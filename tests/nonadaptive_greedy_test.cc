#include "core/nonadaptive_greedy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/cost_model.h"
#include "core/target_selection.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/weighting.h"

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

TEST(NsgTest, PicksProfitableHubFirst) {
  const Graph g = MakeStarGraph(50, 1.0);
  ProfitProblem problem = MakeProblem(g, {0, 3, 4}, {5.0, 0.5, 0.5});
  Rng rng(1);
  Result<NonadaptiveResult> result = RunNsg(problem, 20000, &rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result.value().seeds.empty());
  EXPECT_EQ(result.value().seeds[0], 0u);
  EXPECT_EQ(result.value().num_rr_sets, 20000u);
}

TEST(NsgTest, StopsWhenMarginalProfitNonPositive) {
  // Every node has spread 1; costs exceed 1, so nothing is selected.
  const Graph g = MakeCompleteGraph(20, 0.0);
  ProfitProblem problem = MakeProblem(g, {0, 1, 2}, {2.0, 2.0, 2.0});
  Rng rng(2);
  Result<NonadaptiveResult> result = RunNsg(problem, 5000, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().seeds.empty());
  EXPECT_DOUBLE_EQ(result.value().estimated_profit, 0.0);
}

TEST(NsgTest, RespectsTargetRestriction) {
  // The hub is not a target; NSG must pick among leaves only.
  const Graph g = MakeStarGraph(50, 1.0);
  ProfitProblem problem = MakeProblem(g, {3, 4}, {0.5, 0.5});
  Rng rng(3);
  Result<NonadaptiveResult> result = RunNsg(problem, 20000, &rng);
  ASSERT_TRUE(result.ok());
  for (NodeId s : result.value().seeds) {
    EXPECT_TRUE(s == 3 || s == 4);
  }
}

TEST(NsgTest, AccountsForOverlapBetweenSeeds) {
  // Two hubs with identical reach: after the first, the second's marginal
  // is tiny and should not beat its cost.
  GraphBuilder builder;
  for (NodeId v = 2; v < 30; ++v) {
    builder.AddEdge(0, v, 1.0);
    builder.AddEdge(1, v, 1.0);
  }
  Graph g = builder.Build().value();
  ProfitProblem problem = MakeProblem(g, {0, 1}, {5.0, 5.0});
  Rng rng(4);
  Result<NonadaptiveResult> result = RunNsg(problem, 20000, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().seeds.size(), 1u);
}

TEST(NsgTest, RejectsZeroSampleSize) {
  const Graph g = MakePathGraph(3, 0.5);
  ProfitProblem problem = MakeProblem(g, {0}, {0.1});
  Rng rng(5);
  EXPECT_FALSE(RunNsg(problem, 0, &rng).ok());
}

TEST(NsgNdgTest, RejectsPoolBeyondSetIdRange) {
  // Coverage indexes store set ids as uint32_t: a 2^33-set pool is rejected
  // before the engine samples (or allocates) anything.
  const Graph g = MakePathGraph(3, 0.5);
  ProfitProblem problem = MakeProblem(g, {0}, {0.1});
  constexpr uint64_t kTheta = 1ull << 33;
  RRSamplingEngine engine(g);
  Rng rng(5);
  EXPECT_TRUE(RunNsg(problem, kTheta, &rng).status().IsInvalidArgument());
  EXPECT_TRUE(RunNdg(problem, kTheta, &rng).status().IsInvalidArgument());
  EXPECT_TRUE(
      RunNsg(problem, kTheta, &rng, &engine).status().IsInvalidArgument());
  EXPECT_TRUE(
      RunNdg(problem, kTheta, &rng, &engine).status().IsInvalidArgument());
  EXPECT_EQ(engine.stats().rr_sets_generated, 0u);
  EXPECT_EQ(engine.stats().rng_draws, 0u);
  EXPECT_EQ(engine.pool().num_sets(), 0u);
  Rng fresh(5);
  EXPECT_EQ(rng.Next(), fresh.Next());  // no draw was taken
}

TEST(NsgTest, EstimatedProfitConsistentWithSelection) {
  const Graph g = MakeStarGraph(40, 0.5);
  ProfitProblem problem = MakeProblem(g, {0, 2}, {3.0, 0.2});
  Rng rng(6);
  Result<NonadaptiveResult> result = RunNsg(problem, 50000, &rng);
  ASSERT_TRUE(result.ok());
  // E[I({0,2})] ~ 1 + 39*0.5 + ~1 = ~21.5; costs 3.2.
  EXPECT_NEAR(result.value().estimated_profit, 21.5 - 3.2, 1.5);
}

TEST(NdgTest, KeepsProfitableDropsOverpriced) {
  const Graph g = MakeStarGraph(50, 1.0);
  ProfitProblem problem = MakeProblem(g, {0, 3}, {5.0, 30.0});
  Rng rng(7);
  Result<NonadaptiveResult> result = RunNdg(problem, 20000, &rng);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().seeds.size(), 1u);
  EXPECT_EQ(result.value().seeds[0], 0u);
}

TEST(NdgTest, ExaminesTargetsInProblemOrder) {
  // Both nodes profitable and independent: both kept, in order.
  const Graph g = MakeCompleteGraph(10, 0.0);
  ProfitProblem problem = MakeProblem(g, {4, 2}, {0.1, 0.1});
  Rng rng(8);
  Result<NonadaptiveResult> result = RunNdg(problem, 5000, &rng);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().seeds.size(), 2u);
  EXPECT_EQ(result.value().seeds[0], 4u);
  EXPECT_EQ(result.value().seeds[1], 2u);
}

TEST(NdgTest, RearComparisonDropsRedundantTwin) {
  // Twin hubs: double greedy keeps the first, drops the second (its
  // front marginal collapses once the first is in S).
  GraphBuilder builder;
  for (NodeId v = 2; v < 30; ++v) {
    builder.AddEdge(0, v, 1.0);
    builder.AddEdge(1, v, 1.0);
  }
  Graph g = builder.Build().value();
  ProfitProblem problem = MakeProblem(g, {0, 1}, {5.0, 5.0});
  Rng rng(9);
  Result<NonadaptiveResult> result = RunNdg(problem, 20000, &rng);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().seeds.size(), 1u);
  EXPECT_EQ(result.value().seeds[0], 0u);
}

TEST(NdgTest, DeterministicGivenSeed) {
  const Graph g = MakeStarGraph(30, 0.4);
  ProfitProblem problem = MakeProblem(g, {0, 5, 9}, {3.0, 0.5, 0.5});
  Rng rng_a(10);
  Rng rng_b(10);
  Result<NonadaptiveResult> a = RunNdg(problem, 10000, &rng_a);
  Result<NonadaptiveResult> b = RunNdg(problem, 10000, &rng_b);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().seeds, b.value().seeds);
}

TEST(NsgNdgTest, MoreSamplesDoNotChangeEasyDecisions) {
  // Fig. 9's finding: once the pool is large enough, profit stabilizes.
  const Graph g = MakeStarGraph(60, 0.5);
  ProfitProblem problem = MakeProblem(g, {0, 2, 3}, {10.0, 0.2, 0.2});
  Rng rng_small(11);
  Rng rng_large(11);
  Result<NonadaptiveResult> small = RunNsg(problem, 20000, &rng_small);
  Result<NonadaptiveResult> large = RunNsg(problem, 160000, &rng_large);
  ASSERT_TRUE(small.ok() && large.ok());
  std::vector<NodeId> s = small.value().seeds;
  std::vector<NodeId> l = large.value().seeds;
  std::sort(s.begin(), s.end());
  std::sort(l.begin(), l.end());
  EXPECT_EQ(s, l);
}

TEST(NsgNdgTest, ValidateProblemFailures) {
  const Graph g = MakePathGraph(3, 0.5);
  ProfitProblem bad = MakeProblem(g, {0, 0}, {1.0, 1.0});
  Rng rng(12);
  EXPECT_FALSE(RunNsg(bad, 100, &rng).ok());
  EXPECT_FALSE(RunNdg(bad, 100, &rng).ok());
}

// --- Fixed-seed goldens: exact seeds, estimated profit and pool size of NSG
// and NDG, on an instance with |T| much smaller than n (one and four
// sampling threads) and on the T = V derivation path. A mismatch is a
// behaviour change, never a reason to re-record.

Graph GoldenGraph(NodeId n) {
  Rng rng(7);
  BarabasiAlbertOptions options;
  options.num_nodes = n;
  options.edges_per_node = 3;
  Graph g = GenerateBarabasiAlbert(options, &rng).value();
  ApplyWeightedCascade(&g);
  return g;
}

std::string Exact(double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

std::string Summary(const Result<NonadaptiveResult>& result) {
  if (!result.ok()) return result.status().ToString();
  std::string s = "seeds=";
  for (NodeId v : result.value().seeds) s += std::to_string(v) + ",";
  return s + " rr=" + std::to_string(result.value().num_rr_sets) +
         " profit=" + Exact(result.value().estimated_profit);
}

// 40 targets spread over a 2000-node graph, each priced at a fraction of
// its out-degree so that some are worth seeding and some are not.
ProfitProblem SparseTargetProblem(const Graph& g) {
  ProfitProblem problem;
  problem.graph = &g;
  problem.costs.assign(g.num_nodes(), 0.0);
  for (NodeId t = 0; t < g.num_nodes(); t += 50) {
    problem.targets.push_back(t);
    problem.costs[t] = 0.5 * static_cast<double>(g.OutDegree(t)) + 1.0;
  }
  return problem;
}

enum class Greedy { kNsg, kNdg };

std::string RunGolden(Greedy greedy, const ProfitProblem& problem,
                      uint32_t threads) {
  RRSamplingEngine engine(*problem.graph, DiffusionModel::kIndependentCascade,
                          threads);
  Rng rng(21);
  return Summary(greedy == Greedy::kNsg
                     ? RunNsg(problem, 1 << 15, &rng, &engine)
                     : RunNdg(problem, 1 << 15, &rng, &engine));
}

TEST(NonadaptiveGoldenTest, SparseTargets) {
  const Graph g = GoldenGraph(2000);
  const ProfitProblem problem = SparseTargetProblem(g);
  EXPECT_EQ(RunGolden(Greedy::kNsg, problem, 1),
      "seeds=0,50,300,850,100,200,1000,1750,1150,350,1900,1200,500,250,1050,"
      "1450,550,800,650,600,1100,950,1400,1950,1600,1500,400,1300,1700,1850, "
      "rr=32768 profit=65.72607421875");
  EXPECT_EQ(RunGolden(Greedy::kNsg, problem, 4),
      "seeds=0,50,200,100,850,600,300,550,1200,1150,1050,1300,400,1400,1000,"
      "500,1900,1450,1950,250,1700,900,1350,1600,450,1500,1850,350,1750,1800, "
      "rr=32768 profit=64.73779296875");
  EXPECT_EQ(RunGolden(Greedy::kNdg, problem, 1),
      "seeds=0,50,100,150,200,250,300,350,400,450,500,550,600,650,750,850,900,"
      "950,1000,1050,1100,1150,1200,1300,1350,1400,1450,1500,1600,1700,1750,"
      "1850,1900,1950, rr=32768 profit=64.82275390625");
  EXPECT_EQ(RunGolden(Greedy::kNdg, problem, 4),
      "seeds=0,50,100,200,250,300,350,400,450,500,550,600,700,750,850,900,950,"
      "1000,1050,1150,1200,1300,1350,1400,1450,1500,1600,1700,1750,1800,1850,"
      "1900,1950, rr=32768 profit=64.3671875");
}

// T = V: the greedy runs directly over every node with predefined costs.
TEST(NonadaptiveGoldenTest, AllNodesAsTargets) {
  const Graph g = GoldenGraph(400);
  Rng cost_rng(5);
  ProfitProblem problem;
  problem.graph = &g;
  problem.costs =
      BuildPredefinedCosts(g, CostScheme::kDegreeProportional, 4.0, &cost_rng)
          .value();
  for (NodeId u = 0; u < g.num_nodes(); ++u) problem.targets.push_back(u);
  EXPECT_EQ(RunGolden(Greedy::kNsg, problem, 1),
      "seeds=2,137,89,329,381,356,389,399,175,304,345,195,284,352, rr=32768 "
      "profit=13.798183621771869");
  EXPECT_EQ(RunGolden(Greedy::kNsg, problem, 4),
      "seeds=2,165,252,388,95,299,254,284,98,345,372,328,239,309,358,365, "
      "rr=32768 profit=15.237982816983489");
  EXPECT_EQ(RunGolden(Greedy::kNdg, problem, 1),
      "seeds=190,219,239,273,284,288,301,304,311,312,314,329,332,341,347,349,"
      "351,362,363,367,370,372,383,386,387,389,398,399, rr=32768 "
      "profit=20.343674340925375");
  EXPECT_EQ(RunGolden(Greedy::kNdg, problem, 4),
      "seeds=95,146,188,205,239,254,284,290,299,301,303,311,334,339,340,344,"
      "345,365,367,369,374,379,380,383,388,392,393,397, rr=32768 "
      "profit=21.515549340925375");
}

std::string DerivedSummary(TargetMethod method, uint32_t threads) {
  const Graph g = GoldenGraph(400);
  TargetSelectionOptions options;
  options.derive_rr_sets = 1 << 14;
  options.bound_rr_sets = 1 << 14;
  options.num_threads = threads;
  Result<TargetSelectionResult> result = BuildPredefinedCostProblem(
      g, 4.0, CostScheme::kDegreeProportional, method, options);
  if (!result.ok()) return result.status().ToString();
  std::string s = "targets=";
  for (NodeId v : result.value().problem.targets) s += std::to_string(v) + ",";
  return s + " rr=" +
         std::to_string(result.value().sampling_stats.rr_sets_generated) +
         " bound=" + Exact(result.value().spread_lower_bound);
}

TEST(NonadaptiveGoldenTest, PredefinedCostDerivation) {
  EXPECT_EQ(DerivedSummary(TargetMethod::kNsg, 1),
      "targets=3,30,353,27,393,360,387,133,246,226,221,146,334,301,397,244, "
      "rr=32768 bound=84.118840428896462");
  EXPECT_EQ(DerivedSummary(TargetMethod::kNsg, 4),
      "targets=2,22,254,364,347,169,286,399,370,282,374,189,142,393,354,344, "
      "rr=32768 bound=80.404745881245645");
  EXPECT_EQ(DerivedSummary(TargetMethod::kNdg, 1),
      "targets=96,146,176,220,221,254,275,277,303,304,311,334,348,349,351,354,"
      "356,361,364,367,369,380,384,387,393,394,396,397,399, rr=32768 "
      "bound=79.033330773951846");
  EXPECT_EQ(DerivedSummary(TargetMethod::kNdg, 4),
      "targets=22,112,146,206,209,254,272,282,284,286,290,311,314,334,339,344,"
      "347,364,367,369,370,372,374,381,386,393,397,398,399, rr=32768 "
      "bound=79.931802207994252");
}

}  // namespace
}  // namespace atpm
