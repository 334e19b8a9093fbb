#include "core/nonadaptive_greedy.h"

#include <limits>
#include <string>

#include "rris/rr_collection.h"
#include "rris/sampling_engine.h"
#include "rris/target_coverage_index.h"

namespace atpm {

namespace {

// Checks shared by every entry point, made before any engine or pool is
// allocated; `engine` may be null when the caller has not built one yet.
Status ValidateFixedSample(const ProfitProblem& problem,
                           uint64_t num_rr_sets,
                           const SamplingEngine* engine) {
  ATPM_RETURN_NOT_OK(problem.Validate());
  if (num_rr_sets == 0) {
    return Status::InvalidArgument("fixed-sample greedy: num_rr_sets == 0");
  }
  // The coverage index stores set ids as uint32_t.
  if (num_rr_sets > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(
        "fixed-sample greedy: num_rr_sets " + std::to_string(num_rr_sets) +
        " exceeds the 2^32 - 1 set ids a coverage index can address");
  }
  if (engine != nullptr && &engine->graph() != problem.graph) {
    return Status::InvalidArgument(
        "fixed-sample greedy: sampling engine bound to a different graph");
  }
  return Status::OK();
}

}  // namespace

Result<NonadaptiveResult> RunNsg(const ProfitProblem& problem,
                                 uint64_t num_rr_sets, Rng* rng) {
  ATPM_RETURN_NOT_OK(ValidateFixedSample(problem, num_rr_sets, nullptr));
  RRSamplingEngine engine(*problem.graph);
  return RunNsg(problem, num_rr_sets, rng, &engine);
}

Result<NonadaptiveResult> RunNsg(const ProfitProblem& problem,
                                 uint64_t num_rr_sets, Rng* rng,
                                 SamplingEngine* engine) {
  ATPM_RETURN_NOT_OK(ValidateFixedSample(problem, num_rr_sets, engine));
  const Graph& graph = *problem.graph;
  const NodeId n = graph.num_nodes();

  engine->ResetPool();
  ATPM_RETURN_NOT_OK(
      engine->TryGeneratePool(/*removed=*/nullptr, n, num_rr_sets, rng));
  const RRCollection& pool = engine->pool();
  // Estimates scale by the sets actually generated — identical to
  // num_rr_sets normally, the honest denominator when a BudgetGate
  // truncated the pool. An empty pool (budget spent before one set) has no
  // evidence at all: return the empty seed set rather than divide by zero.
  if (pool.num_sets() == 0) return NonadaptiveResult{};
  const double scale =
      static_cast<double>(n) / static_cast<double>(pool.num_sets());
  const TargetCoverageIndex index(pool, problem.targets);

  // Exact marginal coverage per target, seeded from the index and
  // maintained by decrement on coverage.
  std::vector<uint64_t> gain(n, 0);
  std::vector<bool> eligible(n, false);
  for (NodeId t : problem.targets) {
    gain[t] = index.CoveringSets(t).size();
    eligible[t] = true;
  }
  std::vector<bool> covered(pool.num_sets(), false);

  NonadaptiveResult result;
  result.num_rr_sets = pool.num_sets();
  result.batched_queries = problem.targets.size();
  uint64_t covered_total = 0;

  for (uint32_t round = 0; round < problem.k(); ++round) {
    NodeId best = n;
    double best_profit_gain = 0.0;
    for (NodeId t : problem.targets) {
      if (!eligible[t]) continue;
      const double profit_gain =
          static_cast<double>(gain[t]) * scale - problem.CostOf(t);
      if (best == n || profit_gain > best_profit_gain) {
        best = t;
        best_profit_gain = profit_gain;
      }
    }
    if (best == n || best_profit_gain <= 0.0) break;  // no positive marginal

    result.seeds.push_back(best);
    eligible[best] = false;
    covered_total += gain[best];
    for (uint32_t set_id : index.CoveringSets(best)) {
      if (covered[set_id]) continue;
      covered[set_id] = true;
      for (NodeId w : index.TargetsOf(set_id)) --gain[w];
    }
  }

  result.estimated_profit = static_cast<double>(covered_total) * scale -
                            problem.CostOfSet(result.seeds);
  return result;
}

Result<NonadaptiveResult> RunNdg(const ProfitProblem& problem,
                                 uint64_t num_rr_sets, Rng* rng) {
  ATPM_RETURN_NOT_OK(ValidateFixedSample(problem, num_rr_sets, nullptr));
  RRSamplingEngine engine(*problem.graph);
  return RunNdg(problem, num_rr_sets, rng, &engine);
}

Result<NonadaptiveResult> RunNdg(const ProfitProblem& problem,
                                 uint64_t num_rr_sets, Rng* rng,
                                 SamplingEngine* engine) {
  ATPM_RETURN_NOT_OK(ValidateFixedSample(problem, num_rr_sets, engine));
  const Graph& graph = *problem.graph;
  const NodeId n = graph.num_nodes();

  engine->ResetPool();
  ATPM_RETURN_NOT_OK(
      engine->TryGeneratePool(/*removed=*/nullptr, n, num_rr_sets, rng));
  const RRCollection& pool = engine->pool();
  // See RunNsg: honest denominator under budget truncation, empty seed set
  // when the budget left no evidence at all.
  if (pool.num_sets() == 0) return NonadaptiveResult{};
  const double scale =
      static_cast<double>(n) / static_cast<double>(pool.num_sets());
  const TargetCoverageIndex index(pool, problem.targets);

  // count_s[u]: sets containing u not yet covered by S (front marginal).
  std::vector<uint64_t> count_s(n, 0);
  for (NodeId t : problem.targets) count_s[t] = index.CoveringSets(t).size();
  std::vector<bool> covered_by_s(pool.num_sets(), false);

  // cand_count[set]: members of the current T (selected + undecided) in the
  // set; Cov(u | T \ {u}) = #sets where u is the only remaining member.
  std::vector<uint32_t> cand_count(pool.num_sets());
  for (uint64_t i = 0; i < pool.num_sets(); ++i) {
    cand_count[i] = static_cast<uint32_t>(index.TargetsOf(i).size());
  }

  NonadaptiveResult result;
  result.num_rr_sets = pool.num_sets();
  result.batched_queries = problem.targets.size();
  uint64_t covered_total = 0;

  for (NodeId u : problem.targets) {
    const double cost = problem.CostOf(u);
    const double z_plus = static_cast<double>(count_s[u]) * scale - cost;

    uint64_t exclusive = 0;
    for (uint32_t set_id : index.CoveringSets(u)) {
      if (cand_count[set_id] == 1) ++exclusive;
    }
    const double z_minus = cost - static_cast<double>(exclusive) * scale;

    if (z_plus >= z_minus) {
      result.seeds.push_back(u);
      covered_total += count_s[u];
      for (uint32_t set_id : index.CoveringSets(u)) {
        if (covered_by_s[set_id]) continue;
        covered_by_s[set_id] = true;
        for (NodeId w : index.TargetsOf(set_id)) --count_s[w];
      }
      // u stays in T, so cand_count is unchanged.
    } else {
      // u leaves T: it no longer shields sets it covers.
      for (uint32_t set_id : index.CoveringSets(u)) {
        ATPM_DCHECK(cand_count[set_id] > 0);
        --cand_count[set_id];
      }
    }
  }

  result.estimated_profit = static_cast<double>(covered_total) * scale -
                            problem.CostOfSet(result.seeds);
  return result;
}

}  // namespace atpm
