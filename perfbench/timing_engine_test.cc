// The timing wrapper must be transparent: for a fixed seed and thread
// count, a policy sampling through TimingEngine sees exactly what it would
// see from the bare engine.
#include "perfbench/timing_engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/hatp.h"
#include "core/target_selection.h"
#include "diffusion/adaptive_environment.h"
#include "graph/generators.h"
#include "graph/weighting.h"

namespace atpm::perfbench {
namespace {

Graph MakeGraph() {
  Rng rng(11);
  RMatOptions options;
  options.scale = 10;
  options.num_edges = 10 * 1024;
  Result<Graph> graph = GenerateRMat(options, &rng);
  EXPECT_TRUE(graph.ok());
  Graph g = std::move(graph).value();
  ApplyWeightedCascade(&g);
  return g;
}

uint64_t PoolHash(const RRCollection& pool) {
  uint64_t h = 1469598103934665603ULL;
  for (uint64_t i = 0; i < pool.num_sets(); ++i) {
    for (NodeId v : pool.set(i)) h = (h ^ v) * 1099511628211ULL;
    h = (h ^ 0xffffffffULL) * 1099511628211ULL;
  }
  return h;
}

std::unique_ptr<SamplingEngine> MakeEngine(const Graph& graph,
                                           uint32_t threads) {
  SamplingEngineOptions options;
  options.num_threads = threads;
  return CreateSamplingEngine(graph, DiffusionModel::kIndependentCascade,
                              options);
}

class TimingEngineTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  TimingEngineTest() : graph_(MakeGraph()) {}
  Graph graph_;
};

TEST_P(TimingEngineTest, SamePoolAndHitCounts) {
  std::unique_ptr<SamplingEngine> bare = MakeEngine(graph_, GetParam());
  std::unique_ptr<SamplingEngine> inner = MakeEngine(graph_, GetParam());
  std::vector<EngineCall> calls;
  TimingEngine timed(inner.get(), &calls);

  Rng rng_bare(5), rng_timed(5);
  ASSERT_TRUE(bare->TryGeneratePool(nullptr, graph_.num_nodes(), 20000,
                                    &rng_bare).ok());
  ASSERT_TRUE(timed.TryGeneratePool(nullptr, graph_.num_nodes(), 20000,
                                    &rng_timed).ok());
  EXPECT_EQ(PoolHash(bare->pool()), PoolHash(timed.pool()));
  EXPECT_EQ(bare->total_edges_examined(), timed.total_edges_examined());

  BitVector base(graph_.num_nodes());
  base.Set(0);
  base.Set(1);
  CoverageQueryBatch bare_batch, timed_batch;
  for (NodeId u : {0u, 1u, 2u, 3u}) {
    bare_batch.Add(u, u < 2 ? nullptr : &base);
    timed_batch.Add(u, u < 2 ? nullptr : &base);
  }
  const Result<uint64_t> a = bare->TryCountCoverageBatch(
      &bare_batch, nullptr, graph_.num_nodes(), 50000, &rng_bare);
  const Result<uint64_t> b = timed.TryCountCoverageBatch(
      &timed_batch, nullptr, graph_.num_nodes(), 50000, &rng_timed);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value(), b.value());
  for (size_t q = 0; q < bare_batch.size(); ++q) {
    EXPECT_EQ(bare_batch.hits(q), timed_batch.hits(q)) << "query " << q;
  }
  EXPECT_EQ(bare->stats().rr_sets_generated, inner->stats().rr_sets_generated);

  ASSERT_EQ(calls.size(), 2u);
  EXPECT_EQ(calls[0].kind, EngineCall::kPoolFill);
  EXPECT_EQ(calls[0].sampled, 20000u);
  EXPECT_EQ(calls[1].kind, EngineCall::kCountBatch);
  EXPECT_EQ(calls[1].node, 0u);
  EXPECT_EQ(calls[1].sampled, 50000u);
  EXPECT_LE(calls[1].start_ns, calls[1].end_ns);
}

TEST_P(TimingEngineTest, SameHatpDecisions) {
  TargetSelectionOptions selection_options;
  selection_options.num_threads = GetParam();
  Result<TargetSelectionResult> selection = BuildTopKTargetProblem(
      graph_, 10, CostScheme::kDegreeProportional, selection_options);
  ASSERT_TRUE(selection.ok());
  const ProfitProblem& problem = selection.value().problem;
  Rng world_rng(3);
  const Realization world = Realization::Sample(graph_, &world_rng);

  std::unique_ptr<SamplingEngine> bare = MakeEngine(graph_, GetParam());
  std::unique_ptr<SamplingEngine> inner = MakeEngine(graph_, GetParam());
  std::vector<EngineCall> calls;
  TimingEngine timed(inner.get(), &calls);
  HatpOptions options;
  options.sampling.num_threads = GetParam();

  auto run = [&](SamplingEngine* engine) {
    HatpPolicy policy(options);
    policy.set_engine(engine);
    AdaptiveEnvironment env(world);
    Rng rng(17);
    Result<AdaptiveRunResult> result = policy.Run(problem, &env, &rng);
    EXPECT_TRUE(result.ok());
    return std::move(result).value();
  };
  const AdaptiveRunResult a = run(bare.get());
  const AdaptiveRunResult b = run(&timed);

  ASSERT_FALSE(a.seeds.empty());
  EXPECT_EQ(a.seeds, b.seeds);
  EXPECT_EQ(a.realized_spread, b.realized_spread);
  EXPECT_EQ(a.total_rr_sets, b.total_rr_sets);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].node, b.steps[i].node) << "step " << i;
    EXPECT_EQ(a.steps[i].decision, b.steps[i].decision) << "step " << i;
    EXPECT_EQ(a.steps[i].rr_sets_used, b.steps[i].rr_sets_used)
        << "step " << i;
    EXPECT_EQ(a.steps[i].rounds, b.steps[i].rounds) << "step " << i;
  }
  // Every count call the policy made went through the wrapper.
  ASSERT_GT(b.total_count_pools, 0u);
  EXPECT_EQ(calls.size(), b.total_count_pools);
}

INSTANTIATE_TEST_SUITE_P(Threads, TimingEngineTest,
                         ::testing::Values(1u, 2u));

}  // namespace
}  // namespace atpm::perfbench
