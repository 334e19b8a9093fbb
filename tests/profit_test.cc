#include "core/profit.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

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

TEST(ProfitProblemTest, Accessors) {
  const Graph g = MakePathGraph(5, 0.5);
  ProfitProblem problem = MakeProblem(g, {0, 2}, 1.5);
  EXPECT_EQ(problem.k(), 2u);
  EXPECT_DOUBLE_EQ(problem.CostOf(0), 1.5);
  EXPECT_DOUBLE_EQ(problem.CostOf(1), 0.0);
  std::vector<NodeId> set = {0, 2};
  EXPECT_DOUBLE_EQ(problem.CostOfSet(set), 3.0);
  EXPECT_DOUBLE_EQ(problem.TotalTargetCost(), 3.0);
}

TEST(ProfitProblemTest, ValidatePasses) {
  const Graph g = MakePathGraph(5, 0.5);
  ProfitProblem problem = MakeProblem(g, {0, 2}, 1.0);
  EXPECT_TRUE(problem.Validate().ok());
}

TEST(ProfitProblemTest, ValidateCatchesNullGraph) {
  ProfitProblem problem;
  EXPECT_FALSE(problem.Validate().ok());
}

TEST(ProfitProblemTest, ValidateCatchesWrongCostSize) {
  const Graph g = MakePathGraph(5, 0.5);
  ProfitProblem problem = MakeProblem(g, {0}, 1.0);
  problem.costs.resize(3);
  EXPECT_FALSE(problem.Validate().ok());
}

TEST(ProfitProblemTest, ValidateCatchesNegativeCost) {
  const Graph g = MakePathGraph(5, 0.5);
  ProfitProblem problem = MakeProblem(g, {0}, 1.0);
  problem.costs[2] = -0.5;
  EXPECT_FALSE(problem.Validate().ok());
}

TEST(ProfitProblemTest, ValidateCatchesNonFiniteCost) {
  const Graph g = MakePathGraph(3, 0.5);
  ProfitProblem problem = MakeProblem(g, {0}, 0.5);
  problem.costs = {0.5, std::nan(""), 0.5};
  EXPECT_TRUE(problem.Validate().IsInvalidArgument());
  problem.costs = {0.5, std::numeric_limits<double>::infinity(), 0.5};
  EXPECT_TRUE(problem.Validate().IsInvalidArgument());
}

TEST(ProfitProblemTest, ValidateCatchesOutOfRangeTarget) {
  const Graph g = MakePathGraph(5, 0.5);
  ProfitProblem problem = MakeProblem(g, {0}, 1.0);
  problem.targets.push_back(99);
  EXPECT_FALSE(problem.Validate().ok());
}

TEST(ProfitProblemTest, ValidateCatchesDuplicateTargets) {
  const Graph g = MakePathGraph(5, 0.5);
  ProfitProblem problem = MakeProblem(g, {0, 2, 0}, 1.0);
  Status s = problem.Validate();
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
}

TEST(RealizedProfitTest, SpreadMinusCost) {
  const Graph g = MakePathGraph(4, 1.0);
  ProfitProblem problem = MakeProblem(g, {0}, 1.5);
  Rng rng(1);
  Realization world = Realization::Sample(g, &rng);  // all edges live
  std::vector<NodeId> seeds = {0};
  EXPECT_DOUBLE_EQ(RealizedProfit(problem, world, seeds), 4.0 - 1.5);
}

TEST(RealizedProfitTest, EmptySeedSetHasZeroProfit) {
  const Graph g = MakePathGraph(4, 1.0);
  ProfitProblem problem = MakeProblem(g, {0}, 1.5);
  Rng rng(1);
  Realization world = Realization::Sample(g, &rng);
  EXPECT_DOUBLE_EQ(RealizedProfit(problem, world, {}), 0.0);
}

TEST(RealizedProfitTest, CanBeNegative) {
  const Graph g = MakeCompleteGraph(3, 0.0);
  ProfitProblem problem = MakeProblem(g, {0, 1, 2}, 5.0);
  Rng rng(1);
  Realization world = Realization::Sample(g, &rng);
  EXPECT_DOUBLE_EQ(RealizedProfit(problem, world, problem.targets),
                   3.0 - 15.0);
}

TEST(OracleProfitTest, MatchesExactOracle) {
  const Graph g = MakeStarGraph(6, 0.25);
  ProfitProblem problem = MakeProblem(g, {0}, 2.0);
  auto oracle = ExactSpreadOracle::Create(g);
  ASSERT_TRUE(oracle.ok());
  std::vector<NodeId> seeds = {0};
  // E[I({0})] = 2.25, cost 2 -> profit 0.25.
  EXPECT_NEAR(OracleProfit(problem, oracle.value().get(), seeds), 0.25, 1e-6);
}

TEST(OracleProfitTest, RespectsRemovedMask) {
  const Graph g = MakePathGraph(4, 1.0);
  ProfitProblem problem = MakeProblem(g, {0}, 1.0);
  auto oracle = ExactSpreadOracle::Create(g);
  ASSERT_TRUE(oracle.ok());
  BitVector removed(4);
  removed.Set(1);
  std::vector<NodeId> seeds = {0};
  // Residual spread of {0} is 1 (blocked at removed node 1); cost 1.
  EXPECT_NEAR(OracleProfit(problem, oracle.value().get(), seeds, &removed),
              0.0, 1e-9);
}

TEST(AverageRealizedProfitTest, AveragesOverWorlds) {
  const Graph g = MakePathGraph(2, 0.5);
  ProfitProblem problem = MakeProblem(g, {0}, 0.5);
  Rng rng(3);
  std::vector<Realization> worlds;
  for (int i = 0; i < 2000; ++i) {
    worlds.push_back(Realization::Sample(g, &rng));
  }
  std::vector<NodeId> seeds = {0};
  // E[profit] = E[I({0})] - 0.5 = 1.5 - 0.5 = 1.0.
  EXPECT_NEAR(AverageRealizedProfit(problem, worlds, seeds), 1.0, 0.05);
}

TEST(AverageRealizedProfitTest, EmptyWorldsIsZero) {
  const Graph g = MakePathGraph(2, 0.5);
  ProfitProblem problem = MakeProblem(g, {0}, 0.5);
  std::vector<NodeId> seeds = {0};
  EXPECT_DOUBLE_EQ(AverageRealizedProfit(problem, {}, seeds), 0.0);
}

}  // namespace
}  // namespace atpm
