#include "core/addatp.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "graph/generators.h"

namespace atpm {
namespace {

ProfitProblem MakeProblem(const Graph& g, std::vector<NodeId> targets,
                          std::vector<double> target_costs) {
  ProfitProblem problem;
  problem.graph = &g;
  problem.targets = std::move(targets);
  problem.costs.assign(g.num_nodes(), 0.0);
  for (size_t i = 0; i < problem.targets.size(); ++i) {
    problem.costs[problem.targets[i]] = target_costs[i];
  }
  return problem;
}

AdaptiveEnvironment MakeEnv(const Graph& g, uint64_t seed) {
  Rng rng(seed);
  return AdaptiveEnvironment(Realization::Sample(g, &rng));
}

TEST(AddAtpTest, SelectsClearlyProfitableHub) {
  // Star hub: spread 50 at p=1, cost 5. The decision gap is huge, so C1
  // fires in the first round.
  const Graph g = MakeStarGraph(50, 1.0);
  ProfitProblem problem = MakeProblem(g, {0}, {5.0});
  AddAtpPolicy policy;
  AdaptiveEnvironment env = MakeEnv(g, 1);
  Rng rng(2);
  Result<AdaptiveRunResult> run = policy.Run(problem, &env, &rng);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run.value().seeds.size(), 1u);
  EXPECT_DOUBLE_EQ(run.value().realized_profit, 45.0);
  EXPECT_EQ(run.value().steps[0].rounds, 1u);
}

TEST(AddAtpTest, AbandonsClearlyOverpricedNode) {
  const Graph g = MakeCompleteGraph(30, 0.0);
  ProfitProblem problem = MakeProblem(g, {0}, {25.0});
  AddAtpPolicy policy;
  AdaptiveEnvironment env = MakeEnv(g, 1);
  Rng rng(2);
  Result<AdaptiveRunResult> run = policy.Run(problem, &env, &rng);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run.value().seeds.empty());
  EXPECT_DOUBLE_EQ(run.value().realized_profit, 0.0);
}

TEST(AddAtpTest, SkipsActivatedCandidates) {
  const Graph g = MakePathGraph(4, 1.0);
  ProfitProblem problem = MakeProblem(g, {0, 1, 2}, {0.1, 0.1, 0.1});
  AddAtpPolicy policy;
  AdaptiveEnvironment env = MakeEnv(g, 1);
  Rng rng(2);
  Result<AdaptiveRunResult> run = policy.Run(problem, &env, &rng);
  ASSERT_TRUE(run.ok());
  ASSERT_EQ(run.value().seeds.size(), 1u);
  EXPECT_EQ(run.value().seeds[0], 0u);
  EXPECT_EQ(run.value().steps[1].decision, SeedDecision::kSkippedActivated);
  EXPECT_EQ(run.value().steps[2].decision, SeedDecision::kSkippedActivated);
}

TEST(AddAtpTest, BudgetExhaustionReturnsOutOfBudget) {
  // A node sitting exactly on the decision bar (spread == cost) cannot be
  // separated by C1; with C2 unreachable under a tiny budget the run must
  // abort like the paper's ADDATP runs out of memory.
  const Graph g = MakeStarGraph(400, 0.5);
  ProfitProblem problem = MakeProblem(g, {0}, {200.5});
  AddAtpOptions options;
  options.sampling.max_rr_sets_per_decision = 64;  // absurdly small
  options.fail_on_budget_exhausted = true;
  AddAtpPolicy policy(options);
  AdaptiveEnvironment env = MakeEnv(g, 1);
  Rng rng(2);
  Result<AdaptiveRunResult> run = policy.Run(problem, &env, &rng);
  ASSERT_FALSE(run.ok());
  EXPECT_TRUE(run.status().IsOutOfBudget());
}

TEST(AddAtpTest, ForcedDecisionModeCompletes) {
  const Graph g = MakeStarGraph(400, 0.5);
  ProfitProblem problem = MakeProblem(g, {0}, {200.5});
  AddAtpOptions options;
  options.sampling.max_rr_sets_per_decision = 2048;
  options.fail_on_budget_exhausted = false;
  AddAtpPolicy policy(options);
  AdaptiveEnvironment env = MakeEnv(g, 1);
  Rng rng(2);
  Result<AdaptiveRunResult> run = policy.Run(problem, &env, &rng);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.value().steps.size(), 1u);
}

TEST(AddAtpTest, DeterministicGivenSeeds) {
  const Graph g = MakeStarGraph(40, 0.4);
  ProfitProblem problem = MakeProblem(g, {0, 5, 6}, {2.0, 1.0, 1.0});
  AddAtpPolicy policy;

  AdaptiveEnvironment env_a = MakeEnv(g, 9);
  AdaptiveEnvironment env_b = MakeEnv(g, 9);
  Rng rng_a(3);
  Rng rng_b(3);
  Result<AdaptiveRunResult> a = policy.Run(problem, &env_a, &rng_a);
  Result<AdaptiveRunResult> b = policy.Run(problem, &env_b, &rng_b);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().seeds, b.value().seeds);
  EXPECT_DOUBLE_EQ(a.value().realized_profit, b.value().realized_profit);
  EXPECT_EQ(a.value().total_rr_sets, b.value().total_rr_sets);
}

TEST(AddAtpTest, TracksSamplingTelemetry) {
  const Graph g = MakeStarGraph(50, 1.0);
  ProfitProblem problem = MakeProblem(g, {0}, {5.0});
  AddAtpPolicy policy;
  AdaptiveEnvironment env = MakeEnv(g, 1);
  Rng rng(2);
  Result<AdaptiveRunResult> run = policy.Run(problem, &env, &rng);
  ASSERT_TRUE(run.ok());
  EXPECT_GT(run.value().total_rr_sets, 0u);
  EXPECT_EQ(run.value().max_rr_sets_per_iteration,
            run.value().total_rr_sets);  // single-iteration run
  EXPECT_EQ(run.value().steps[0].rr_sets_used, run.value().total_rr_sets);
}

TEST(AddAtpTest, EmptyTargetSetIsNoop) {
  const Graph g = MakePathGraph(3, 0.5);
  ProfitProblem problem = MakeProblem(g, {}, {});
  AddAtpPolicy policy;
  AdaptiveEnvironment env = MakeEnv(g, 1);
  Rng rng(2);
  Result<AdaptiveRunResult> run = policy.Run(problem, &env, &rng);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run.value().seeds.empty());
}

TEST(AddAtpTest, RejectsInvalidErrorConfiguration) {
  // An invalid knob must come back as InvalidArgument, never reach
  // AddAtpSampleSize, whose CHECK would abort the process on a NaN.
  const Graph g = MakePathGraph(3, 0.5);
  ProfitProblem problem = MakeProblem(g, {0}, {1.0});
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<AddAtpOptions> invalid(6);
  invalid[0].initial_spread_error = nan;
  invalid[1].initial_spread_error = inf;
  invalid[2].initial_spread_error = 0.0;
  invalid[3].dynamic_epsilon = nan;
  invalid[4].dynamic_epsilon = -0.1;
  invalid[5].dynamic_epsilon = 1.0;
  for (const AddAtpOptions& options : invalid) {
    AddAtpPolicy policy(options);
    AdaptiveEnvironment env = MakeEnv(g, 1);
    Rng rng(2);
    Result<AdaptiveRunResult> run = policy.Run(problem, &env, &rng);
    ASSERT_FALSE(run.ok());
    EXPECT_TRUE(run.status().IsInvalidArgument());
  }
}

TEST(AddAtpTest, RejectsMismatchedEnvironment) {
  const Graph g1 = MakePathGraph(3, 0.5);
  const Graph g2 = MakePathGraph(3, 0.5);
  ProfitProblem problem = MakeProblem(g1, {0}, {1.0});
  AddAtpPolicy policy;
  AdaptiveEnvironment env = MakeEnv(g2, 1);
  Rng rng(2);
  EXPECT_FALSE(policy.Run(problem, &env, &rng).ok());
}

TEST(AddAtpTest, MultiThreadedRunMatchesQuality) {
  const Graph g = MakeStarGraph(60, 0.5);
  ProfitProblem problem =
      MakeProblem(g, {0, 3, 4}, {10.0, 20.0, 0.2});
  AddAtpOptions options;
  options.sampling.num_threads = 4;
  AddAtpPolicy policy(options);
  AdaptiveEnvironment env = MakeEnv(g, 5);
  Rng rng(6);
  Result<AdaptiveRunResult> run = policy.Run(problem, &env, &rng);
  ASSERT_TRUE(run.ok());
  // Hub (spread ~30.5 vs cost 10) kept; node 3 (spread 1, cost 20)
  // dropped; node 4 (spread 1, cost 0.2) kept unless already activated.
  ASSERT_FALSE(run.value().seeds.empty());
  EXPECT_EQ(run.value().seeds[0], 0u);
  for (const AdaptiveStepRecord& step : run.value().steps) {
    if (step.node == 3) {
      EXPECT_EQ(step.decision, SeedDecision::kAbandoned);
    }
  }
}

}  // namespace
}  // namespace atpm
