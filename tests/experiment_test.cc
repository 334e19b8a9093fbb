#include "bench_util/experiment.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/ars.h"
#include "core/hatp.h"
#include "graph/generators.h"

namespace atpm {
namespace {

ProfitProblem MakeProblem(const Graph& g, std::vector<NodeId> targets,
                          double uniform_cost) {
  ProfitProblem problem;
  problem.graph = &g;
  problem.targets = std::move(targets);
  problem.costs.assign(g.num_nodes(), 0.0);
  for (NodeId t : problem.targets) problem.costs[t] = uniform_cost;
  return problem;
}

TEST(ExperimentRunnerTest, SamplesRequestedWorlds) {
  const Graph g = MakeStarGraph(20, 0.5);
  ProfitProblem problem = MakeProblem(g, {0}, 1.0);
  ExperimentRunner runner(problem, 5, 1);
  EXPECT_EQ(runner.worlds().size(), 5u);
  EXPECT_EQ(&runner.problem(), &problem);
}

TEST(ExperimentRunnerTest, BaselineEvaluatesWholeTargetSet) {
  // All-isolated graph: baseline profit = |T| * (1 - cost).
  const Graph g = MakeCompleteGraph(10, 0.0);
  ProfitProblem problem = MakeProblem(g, {0, 1, 2}, 0.4);
  ExperimentRunner runner(problem, 4, 2);
  AlgoStats stats = runner.EvaluateBaseline();
  EXPECT_NEAR(stats.mean_profit, 3.0 * 0.6, 1e-9);
  EXPECT_DOUBLE_EQ(stats.mean_seeds, 3.0);
  EXPECT_EQ(stats.completed_runs, 4u);
  EXPECT_FALSE(stats.out_of_budget);
}

TEST(ExperimentRunnerTest, FixedSetEvaluation) {
  const Graph g = MakePathGraph(5, 1.0);
  ProfitProblem problem = MakeProblem(g, {0, 4}, 1.0);
  ExperimentRunner runner(problem, 3, 3);
  std::vector<NodeId> seeds = {0};
  AlgoStats stats = runner.EvaluateFixedSet(seeds, 1.25);
  // Seeding 0 on the all-live path reaches all 5 nodes; cost 1.
  EXPECT_DOUBLE_EQ(stats.mean_profit, 4.0);
  EXPECT_DOUBLE_EQ(stats.mean_seconds, 1.25);
  EXPECT_DOUBLE_EQ(stats.mean_seeds, 1.0);
}

TEST(ExperimentRunnerTest, AdaptiveRunsOncePerWorld) {
  const Graph g = MakeStarGraph(30, 0.5);
  ProfitProblem problem = MakeProblem(g, {0, 2}, 0.5);
  ExperimentRunner runner(problem, 6, 4);
  ArsPolicy policy;
  Result<AlgoStats> stats = runner.RunAdaptive(&policy);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().completed_runs, 6u);
  EXPECT_GE(stats.value().mean_seconds, 0.0);
}

TEST(ExperimentRunnerTest, AdaptiveStatsAreDeterministic) {
  const Graph g = MakeStarGraph(30, 0.5);
  ProfitProblem problem = MakeProblem(g, {0, 2, 4}, 0.5);
  ArsPolicy policy;
  ExperimentRunner runner_a(problem, 5, 7);
  ExperimentRunner runner_b(problem, 5, 7);
  Result<AlgoStats> a = runner_a.RunAdaptive(&policy);
  Result<AlgoStats> b = runner_b.RunAdaptive(&policy);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a.value().mean_profit, b.value().mean_profit);
  EXPECT_DOUBLE_EQ(a.value().mean_seeds, b.value().mean_seeds);
}

TEST(ExperimentRunnerTest, OutOfBudgetIsFlaggedNotFatal) {
  const Graph g = MakeStarGraph(300, 0.5);
  // Borderline cost, tiny budget, fail-fast: the run aborts and the cell
  // is marked like the paper's OOM triangle.
  ProfitProblem problem = MakeProblem(g, {0}, 150.5);
  HatpOptions options;
  options.sampling.max_rr_sets_per_decision = 128;
  options.fail_on_budget_exhausted = true;
  HatpPolicy policy(options);
  ExperimentRunner runner(problem, 3, 8);
  Result<AlgoStats> stats = runner.RunAdaptive(&policy);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats.value().out_of_budget);
  EXPECT_LT(stats.value().completed_runs, 3u);
}

TEST(ExperimentRunnerTest, SharedWorldsAcrossAlgorithms) {
  // Two evaluations of the same fixed set must agree exactly — the worlds
  // are shared, not resampled.
  const Graph g = MakeStarGraph(40, 0.3);
  ProfitProblem problem = MakeProblem(g, {0, 1}, 0.5);
  ExperimentRunner runner(problem, 10, 9);
  std::vector<NodeId> seeds = {0};
  EXPECT_DOUBLE_EQ(runner.EvaluateFixedSet(seeds, 0).mean_profit,
                   runner.EvaluateFixedSet(seeds, 0).mean_profit);
}

TEST(ExperimentRunnerTest, WorldSeedsAreDistinct) {
  const Graph g = MakePathGraph(3, 0.5);
  ProfitProblem problem = MakeProblem(g, {0}, 0.1);
  ExperimentRunner runner(problem, 3, 10);
  EXPECT_NE(runner.WorldSeed(0), runner.WorldSeed(1));
  EXPECT_NE(runner.WorldSeed(1), runner.WorldSeed(2));
}

}  // namespace
}  // namespace atpm
