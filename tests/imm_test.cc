#include "im/imm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "diffusion/spread_oracle.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/weighting.h"

namespace atpm {
namespace {

TEST(ImmTest, PicksHubOfStar) {
  const Graph g = MakeStarGraph(50, 0.5);
  Result<ImmResult> result = RunImm(g, 1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().seeds.size(), 1u);
  EXPECT_EQ(result.value().seeds[0], 0u);
  // E[I(hub)] = 1 + 49 * 0.5 = 25.5; the estimate must be in the ballpark.
  EXPECT_NEAR(result.value().estimated_spread, 25.5, 3.0);
}

TEST(ImmTest, RejectsInvalidArguments) {
  const Graph g = MakeStarGraph(10, 0.5);
  EXPECT_FALSE(RunImm(g, 0).ok());
  EXPECT_FALSE(RunImm(g, 11).ok());
  ImmOptions bad_eps;
  bad_eps.epsilon = 0.0;
  EXPECT_FALSE(RunImm(g, 2, bad_eps).ok());
  const Graph empty;
  EXPECT_FALSE(RunImm(empty, 1).ok());
  // NaN or out-of-range accuracy options are rejected up front instead of
  // reaching the sample-size cast as a NaN.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double bad[][2] = {{nan, 1.0}, {0.5, nan}, {0.5, -50.0}, {0.5, inf}};
  for (const auto& [epsilon, ell] : bad) {
    ImmOptions options;
    options.epsilon = epsilon;
    options.ell = ell;
    const Result<ImmResult> result = RunImm(g, 2, options);
    EXPECT_TRUE(result.status().IsInvalidArgument())
        << "epsilon " << epsilon << " ell " << ell << ": "
        << result.status().ToString();
  }
}

TEST(ImmTest, BudgetCapYieldsOutOfBudget) {
  const Graph g = MakeStarGraph(100, 0.5);
  ImmOptions options;
  options.max_rr_sets = 10;  // absurdly small
  Result<ImmResult> result = RunImm(g, 2, options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsOutOfBudget());
}

TEST(ImmTest, DeterministicGivenSeed) {
  Rng rng(5);
  ErdosRenyiOptions er;
  er.num_nodes = 200;
  er.num_edges = 800;
  Graph g = GenerateErdosRenyi(er, &rng).value();
  ApplyWeightedCascade(&g);

  ImmOptions options;
  options.seed = 31337;
  Result<ImmResult> a = RunImm(g, 5, options);
  Result<ImmResult> b = RunImm(g, 5, options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().seeds, b.value().seeds);
  EXPECT_DOUBLE_EQ(a.value().estimated_spread, b.value().estimated_spread);
}

TEST(ImmTest, ReturnsKDistinctSeeds) {
  Rng rng(6);
  BarabasiAlbertOptions ba;
  ba.num_nodes = 500;
  ba.edges_per_node = 2;
  Graph g = GenerateBarabasiAlbert(ba, &rng).value();
  ApplyWeightedCascade(&g);

  Result<ImmResult> result = RunImm(g, 20);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().seeds.size(), 20u);
  std::vector<NodeId> sorted = result.value().seeds;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
}

TEST(ImmTest, ApproximationHoldsOnEnumerableGraph) {
  // On the paper's 7-node example we can brute-force OPT_k exactly and
  // verify E[I(IMM seeds)] >= (1 - 1/e - eps) OPT_k.
  const Graph g = MakePaperFigure1Graph();
  auto exact = ExactSpreadOracle::Create(g);
  ASSERT_TRUE(exact.ok());

  const uint32_t k = 2;
  double opt = 0.0;
  for (NodeId a = 0; a < 7; ++a) {
    for (NodeId b = a + 1; b < 7; ++b) {
      std::vector<NodeId> seeds = {a, b};
      opt = std::max(opt, exact.value()->ExpectedSpread(seeds, nullptr));
    }
  }

  ImmOptions options;
  options.epsilon = 0.3;
  options.seed = 99;
  Result<ImmResult> result = RunImm(g, k, options);
  ASSERT_TRUE(result.ok());
  const double achieved =
      exact.value()->ExpectedSpread(result.value().seeds, nullptr);
  EXPECT_GE(achieved, (1.0 - 1.0 / 2.718281828 - 0.3) * opt);
}

TEST(ImmTest, SeedsOrderedByGreedyGain) {
  // First seed of the greedy order must be (one of) the most influential
  // single nodes. On a two-star graph the bigger hub comes first.
  GraphBuilder b;
  for (NodeId v = 1; v <= 30; ++v) b.AddEdge(0, v, 0.9);    // big hub 0
  for (NodeId v = 41; v <= 50; ++v) b.AddEdge(40, v, 0.9);  // small hub 40
  Graph g = b.Build().value();

  Result<ImmResult> result = RunImm(g, 2);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().seeds.size(), 2u);
  EXPECT_EQ(result.value().seeds[0], 0u);
  EXPECT_EQ(result.value().seeds[1], 40u);
}

TEST(ImmTest, ReportsRrSetCount) {
  const Graph g = MakeStarGraph(64, 0.5);
  Result<ImmResult> result = RunImm(g, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().num_rr_sets, 0u);
}

}  // namespace
}  // namespace atpm
