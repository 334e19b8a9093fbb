#include "bench_util/experiment.h"

#include <algorithm>

#include "common/timer.h"

namespace atpm {

ExperimentRunner::ExperimentRunner(const ProfitProblem& problem,
                                   uint32_t num_worlds, uint64_t seed)
    : problem_(&problem), seed_(seed) {
  worlds_.reserve(num_worlds);
  Rng rng(seed ^ 0x3715bULL);
  for (uint32_t i = 0; i < num_worlds; ++i) {
    worlds_.push_back(Realization::Sample(*problem.graph, &rng));
  }
}

uint64_t ExperimentRunner::WorldSeed(uint32_t i) const {
  return seed_ * 0x9e3779b97f4a7c15ULL + i + 1;
}

Result<AlgoStats> ExperimentRunner::RunAdaptive(AdaptivePolicy* policy) {
  AlgoStats stats;
  double profit_sum = 0.0;
  double seconds_sum = 0.0;
  double seeds_sum = 0.0;

  for (uint32_t i = 0; i < worlds_.size(); ++i) {
    AdaptiveEnvironment env(worlds_[i]);  // copy: env consumes the world
    Rng rng(WorldSeed(i));
    WallTimer timer;
    Result<AdaptiveRunResult> run = policy->Run(*problem_, &env, &rng);
    const double elapsed = timer.ElapsedSeconds();
    if (!run.ok()) {
      if (run.status().IsOutOfBudget()) {
        stats.out_of_budget = true;
        break;  // the paper marks the config infeasible (filled triangle)
      }
      return run.status();
    }
    profit_sum += run.value().realized_profit;
    seconds_sum += elapsed;
    seeds_sum += static_cast<double>(run.value().seeds.size());
    stats.max_rr_sets_per_iteration =
        std::max(stats.max_rr_sets_per_iteration,
                 run.value().max_rr_sets_per_iteration);
    ++stats.completed_runs;
  }

  if (stats.completed_runs > 0) {
    const double n = static_cast<double>(stats.completed_runs);
    stats.mean_profit = profit_sum / n;
    stats.mean_seconds = seconds_sum / n;
    stats.mean_seeds = seeds_sum / n;
  }
  return stats;
}

AlgoStats ExperimentRunner::EvaluateFixedSet(std::span<const NodeId> seeds,
                                             double selection_seconds) const {
  AlgoStats stats;
  stats.mean_profit = AverageRealizedProfit(*problem_, worlds_, seeds);
  stats.mean_seconds = selection_seconds;
  stats.mean_seeds = static_cast<double>(seeds.size());
  stats.completed_runs = static_cast<uint32_t>(worlds_.size());
  return stats;
}

AlgoStats ExperimentRunner::EvaluateBaseline() const {
  return EvaluateFixedSet(problem_->targets, 0.0);
}

}  // namespace atpm
