// Tests for the SamplingEngine layer: one-thread bit-identity against the
// raw generator, multi-thread determinism, 1-vs-N-thread statistical
// agreement, caller-stream use, shard merging, and EPT accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "common/bit_vector.h"
#include "common/rng.h"
#include "rris/coverage_batch.h"
#include "graph/generators.h"
#include "graph/weighting.h"
#include "rris/rr_collection.h"
#include "rris/rr_set.h"
#include "rris/sampling_engine.h"

namespace atpm {
namespace {

Graph TestGraph(NodeId n) {
  Rng rng(7);
  BarabasiAlbertOptions options;
  options.num_nodes = n;
  options.edges_per_node = 3;
  Graph g = GenerateBarabasiAlbert(options, &rng).value();
  ApplyWeightedCascade(&g);
  return g;
}

void ExpectSamePools(const RRCollection& a, const RRCollection& b) {
  ASSERT_EQ(a.num_sets(), b.num_sets());
  ASSERT_EQ(a.total_nodes(), b.total_nodes());
  for (uint64_t i = 0; i < a.num_sets(); ++i) {
    const auto sa = a.set(i);
    const auto sb = b.set(i);
    ASSERT_EQ(sa.size(), sb.size()) << "set " << i;
    for (size_t j = 0; j < sa.size(); ++j) {
      EXPECT_EQ(sa[j], sb[j]) << "set " << i << " slot " << j;
    }
  }
}

// (a) The one-thread engine reproduces the raw-generator code paths bit for
// bit for a fixed seed.

TEST(OneThreadEngineTest, PoolBitIdenticalToRawGenerator) {
  const Graph g = TestGraph(300);
  const uint64_t count = 2000;

  Rng engine_rng(77);
  RRSamplingEngine engine(g);
  const RRCollection& engine_pool =
      engine.GeneratePool(nullptr, g.num_nodes(), count, &engine_rng);

  Rng raw_rng(77);
  RRSetGenerator generator(g);
  RRCollection raw_pool(g.num_nodes());
  const uint64_t raw_edges =
      raw_pool.Generate(&generator, nullptr, g.num_nodes(), count, &raw_rng);

  ExpectSamePools(engine_pool, raw_pool);
  EXPECT_EQ(engine.total_edges_examined(), raw_edges);
}

TEST(OneThreadEngineTest, PoolBitIdenticalOnResidualGraph) {
  const Graph g = TestGraph(300);
  BitVector removed(g.num_nodes());
  for (NodeId v = 0; v < 40; ++v) removed.Set(v);
  const uint32_t alive = g.num_nodes() - 40;

  Rng engine_rng(78);
  RRSamplingEngine engine(g);
  const RRCollection& engine_pool =
      engine.GeneratePool(&removed, alive, 1500, &engine_rng);

  Rng raw_rng(78);
  RRSetGenerator generator(g);
  RRCollection raw_pool(g.num_nodes());
  raw_pool.Generate(&generator, &removed, alive, 1500, &raw_rng);

  ExpectSamePools(engine_pool, raw_pool);
}

TEST(OneThreadEngineTest, CountBitIdenticalToRawGenerator) {
  const Graph g = TestGraph(300);
  BitVector base(g.num_nodes());
  for (NodeId v = 10; v < 30; ++v) base.Set(v);
  const uint64_t theta = 20000;

  // The engine draws one base seed from the caller's stream and counts
  // with the stream Rng(base seed) — exactly a raw generator driven by
  // that reseeded stream.
  Rng engine_rng(5);
  RRSamplingEngine engine(g);
  const uint64_t engine_count = engine.CountConditionalCoverage(
      0, &base, nullptr, g.num_nodes(), theta, &engine_rng);

  Rng reference_rng(5);
  RRSetGenerator reference_generator(g);
  Rng reference_stream(reference_rng.Next());
  const uint64_t reference_count = reference_generator.CountCovering(
      nullptr, g.num_nodes(), theta, 0, &base, &reference_stream);

  EXPECT_EQ(engine_count, reference_count);
  // The caller streams advanced identically (one draw each).
  EXPECT_EQ(engine_rng.Next(), reference_rng.Next());
}

TEST(OneThreadEngineTest, ResetPoolClearsSetsAndAccounting) {
  const Graph g = TestGraph(100);
  Rng rng(9);
  RRSamplingEngine engine(g);
  engine.GeneratePool(nullptr, g.num_nodes(), 100, &rng);
  EXPECT_GT(engine.pool().num_sets(), 0u);
  EXPECT_GT(engine.total_edges_examined(), 0u);
  engine.ResetPool();
  EXPECT_EQ(engine.pool().num_sets(), 0u);
  EXPECT_EQ(engine.total_edges_examined(), 0u);
}

// (b) A multi-threaded engine is deterministic for a fixed (seed, threads).

TEST(MultiThreadEngineTest, PoolDeterministicForFixedSeedAndThreads) {
  const Graph g = TestGraph(500);
  const uint64_t count = 2 * kMinParallelBatch;  // fans out

  RRCollection first(0);
  {
    Rng rng(123);
    RRSamplingEngine engine(g, DiffusionModel::kIndependentCascade, 4);
    first = engine.GeneratePool(nullptr, g.num_nodes(), count, &rng);
    EXPECT_EQ(engine.num_workers(), 4u);
  }
  Rng rng(123);
  RRSamplingEngine engine(g, DiffusionModel::kIndependentCascade, 4);
  const RRCollection& second =
      engine.GeneratePool(nullptr, g.num_nodes(), count, &rng);
  ExpectSamePools(first, second);
}

TEST(MultiThreadEngineTest, CountDeterministicForFixedSeedAndThreads) {
  const Graph g = TestGraph(500);
  const uint64_t theta = 60000;
  uint64_t counts[2];
  for (int trial = 0; trial < 2; ++trial) {
    Rng rng(321);
    RRSamplingEngine engine(g, DiffusionModel::kIndependentCascade, 4);
    counts[trial] = engine.CountConditionalCoverage(
        1, nullptr, nullptr, g.num_nodes(), theta, &rng);
  }
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_GT(counts[0], 0u);
}

TEST(MultiThreadEngineTest, EdgeAccountingDeterministicAndAggregated) {
  const Graph g = TestGraph(500);
  uint64_t edges[2];
  for (int trial = 0; trial < 2; ++trial) {
    Rng rng(55);
    RRSamplingEngine engine(g, DiffusionModel::kIndependentCascade, 4);
    engine.GeneratePool(nullptr, g.num_nodes(), 8192, &rng);
    edges[trial] = engine.total_edges_examined();
  }
  EXPECT_EQ(edges[0], edges[1]);
  // Every RR set examines at least the root's in-edges; with 8192 sets on a
  // BA graph the aggregate must be substantial.
  EXPECT_GT(edges[0], 8192u);
}

TEST(MultiThreadEngineTest, SmallCountsRunInlineBitExactly) {
  const Graph g = TestGraph(300);
  const uint64_t theta = 512;  // below kMinParallelBatch

  Rng multi_rng(42);
  RRSamplingEngine multi(g, DiffusionModel::kIndependentCascade, 4);
  const uint64_t multi_count = multi.CountConditionalCoverage(
      0, nullptr, nullptr, g.num_nodes(), theta, &multi_rng);

  Rng single_rng(42);
  RRSamplingEngine single(g);
  const uint64_t single_count = single.CountConditionalCoverage(
      0, nullptr, nullptr, g.num_nodes(), theta, &single_rng);

  EXPECT_EQ(multi_count, single_count);
}

// Concurrency stress for the TSan lane: every batch is at least
// kMinParallelBatch, so every job goes through the workers, and the
// alternating GeneratePool / CountCoverageBatchSeeded rounds keep the
// hand-off machinery hot — job-epoch publication, the pending-counter
// rendezvous, per-worker shard fills, the worker-order merge, and the
// draw/edge stat harvest. Under -fsanitize=thread this is the data-race
// probe for the worker pool (CI runs it with TSAN_OPTIONS=halt_on_error=1);
// in a plain build it doubles as a determinism check — a second
// identically seeded engine must produce a bit-identical pool, counters,
// and stats through the same churn.
TEST(MultiThreadEngineTest, WorkerHandoffStress) {
  const Graph g = TestGraph(200);
  constexpr uint32_t kThreads = 4;
  constexpr int kRounds = 50;
  RRSamplingEngine a(g, DiffusionModel::kIndependentCascade, kThreads);
  RRSamplingEngine b(g, DiffusionModel::kIndependentCascade, kThreads);
  Rng rng_a(991), rng_b(991);
  BitVector removed(g.num_nodes());
  for (NodeId v = 0; v < 17; ++v) removed.Set(v);
  const uint32_t alive = g.num_nodes() - 17;
  BitVector base(g.num_nodes());
  base.Set(20);
  base.Set(21);
  for (int round = 0; round < kRounds; ++round) {
    // Odd sizes exercise quota remainders.
    const uint64_t count = kMinParallelBatch + 1 + round;
    a.GeneratePool(&removed, alive, count, &rng_a);
    b.GeneratePool(&removed, alive, count, &rng_b);
    CoverageQueryBatch batch_a;
    CoverageQueryBatch batch_b;
    for (NodeId q = 30; q < 34; ++q) {
      batch_a.Add(q, &base);
      batch_b.Add(q, &base);
    }
    const uint64_t theta =
        kMinParallelBatch + 8 * static_cast<uint64_t>(round);
    a.CountCoverageBatchSeeded(&batch_a, &removed, alive, theta, 17 + round);
    b.CountCoverageBatchSeeded(&batch_b, &removed, alive, theta, 17 + round);
    for (size_t q = 0; q < batch_a.size(); ++q) {
      ASSERT_EQ(batch_a.hits(q), batch_b.hits(q))
          << "round " << round << " query " << q;
    }
  }
  ExpectSamePools(a.pool(), b.pool());
  EXPECT_EQ(a.stats().rng_draws, b.stats().rng_draws);
  EXPECT_EQ(a.stats().edges_examined, b.stats().edges_examined);
  EXPECT_EQ(a.total_edges_examined(), b.total_edges_examined());
}

// (c) One- and four-thread engines agree within concentration bounds on a
// 1k-node generator graph: both estimate p = Pr[u in RR set avoiding base],
// and two independent θ-sample means differ by more than
// 5·sqrt(2·p̂(1−p̂)/θ) with probability well under 1e-5.

TEST(SamplingEngineAgreementTest, OneVsFourThreadCoverageEstimates) {
  const Graph g = TestGraph(1000);
  BitVector base(g.num_nodes());
  for (NodeId v = 50; v < 80; ++v) base.Set(v);
  const uint64_t theta = 200000;
  const NodeId u = 0;

  Rng single_rng(2024);
  RRSamplingEngine single(g);
  const double p_single =
      static_cast<double>(single.CountConditionalCoverage(
          u, &base, nullptr, g.num_nodes(), theta, &single_rng)) /
      static_cast<double>(theta);

  Rng multi_rng(4048);
  RRSamplingEngine multi(g, DiffusionModel::kIndependentCascade, 4);
  const double p_multi =
      static_cast<double>(multi.CountConditionalCoverage(
          u, &base, nullptr, g.num_nodes(), theta, &multi_rng)) /
      static_cast<double>(theta);

  const double p_hat = 0.5 * (p_single + p_multi);
  const double sigma =
      std::sqrt(2.0 * p_hat * (1.0 - p_hat) / static_cast<double>(theta));
  EXPECT_GT(p_hat, 0.0);
  EXPECT_NEAR(p_single, p_multi, 5.0 * sigma + 1e-9);
}

TEST(SamplingEngineAgreementTest, OneVsFourThreadPoolCoverage) {
  const Graph g = TestGraph(1000);
  const uint64_t count = 65536;
  const NodeId u = 1;

  Rng single_rng(10);
  RRSamplingEngine single(g);
  const RRCollection& single_pool =
      single.GeneratePool(nullptr, g.num_nodes(), count, &single_rng);
  const double f_single =
      static_cast<double>(single_pool.CoverageOfNode(u)) / count;

  Rng multi_rng(20);
  RRSamplingEngine multi(g, DiffusionModel::kIndependentCascade, 4);
  const RRCollection& multi_pool =
      multi.GeneratePool(nullptr, g.num_nodes(), count, &multi_rng);
  ASSERT_EQ(multi_pool.num_sets(), count);
  const double f_multi =
      static_cast<double>(multi_pool.CoverageOfNode(u)) / count;

  const double p_hat = 0.5 * (f_single + f_multi);
  const double sigma =
      std::sqrt(2.0 * p_hat * (1.0 - p_hat) / static_cast<double>(count));
  EXPECT_NEAR(f_single, f_multi, 5.0 * sigma + 1e-9);
}

// How far each query advances the caller's Rng (the rule stated on
// SamplingEngine): a one-thread pool fill by every draw its generator
// makes, a multi-thread pool fill and every count by exactly one draw.

void ExpectAdvancedBy(Rng rng, uint64_t seed, uint64_t draws) {
  Rng expected(seed);
  for (uint64_t i = 0; i < draws; ++i) expected.Next();
  EXPECT_EQ(rng.Next(), expected.Next()) << "expected " << draws << " draws";
}

TEST(CallerStreamTest, OneThreadPoolFillAdvancesByGeneratorDraws) {
  const Graph g = TestGraph(300);
  RRSamplingEngine engine(g);
  Rng rng(31);
  engine.GeneratePool(nullptr, g.num_nodes(), 2000, &rng);
  EXPECT_GT(engine.stats().rng_draws, 2000u);  // >= 1 root draw per set
  ExpectAdvancedBy(rng, 31, engine.stats().rng_draws);
}

TEST(CallerStreamTest, MultiThreadPoolFillAdvancesByOneDraw) {
  const Graph g = TestGraph(300);
  RRSamplingEngine engine(g, DiffusionModel::kIndependentCascade, 4);
  for (uint64_t count : {uint64_t{512}, 2 * kMinParallelBatch}) {
    Rng rng(32);
    engine.GeneratePool(nullptr, g.num_nodes(), count, &rng);
    ExpectAdvancedBy(rng, 32, 1);
  }
}

TEST(CallerStreamTest, CountAdvancesByOneDrawAtAnyThreadCount) {
  const Graph g = TestGraph(300);
  for (uint32_t threads : {1u, 4u}) {
    RRSamplingEngine engine(g, DiffusionModel::kIndependentCascade, threads);
    for (uint64_t theta : {uint64_t{512}, 2 * kMinParallelBatch}) {
      Rng rng(33);
      engine.CountConditionalCoverage(0, nullptr, nullptr, g.num_nodes(),
                                      theta, &rng);
      ExpectAdvancedBy(rng, 33, 1);
    }
  }
}

// (d) Batched vs unbatched estimates: a one-query CoverageQueryBatch is the
// same code path as CountConditionalCoverage (bit-identity on one thread),
// and a two-query batch agrees with per-query sampling within
// concentration bounds at every thread count (±3σ).

TEST(SamplingEngineBatchTest, OneQueryBatchBitIdenticalOnOneThread) {
  const Graph g = TestGraph(400);
  BitVector base(g.num_nodes());
  for (NodeId v = 10; v < 40; ++v) base.Set(v);
  const uint64_t theta = 30000;

  RRSamplingEngine engine(g);
  Rng batch_rng(55);
  CoverageQueryBatch batch;
  batch.Add(0, &base);
  engine.CountCoverageBatch(&batch, nullptr, g.num_nodes(), theta,
                            &batch_rng);

  Rng query_rng(55);
  const uint64_t unbatched = engine.CountConditionalCoverage(
      0, &base, nullptr, g.num_nodes(), theta, &query_rng);

  EXPECT_EQ(batch.hits(0), unbatched);
  EXPECT_EQ(batch_rng.Next(), query_rng.Next());  // same caller stream use
}

TEST(SamplingEngineBatchTest, BatchedEstimatesAgreeAcrossThreadCounts) {
  const Graph g = TestGraph(1000);
  BitVector front(g.num_nodes());
  for (NodeId v = 10; v < 25; ++v) front.Set(v);
  BitVector rear(g.num_nodes());
  for (NodeId v = 60; v < 200; ++v) rear.Set(v);
  const uint64_t theta = 200000;

  // One-thread batched estimate vs four-thread unbatched per-query
  // estimates: the batch layer must not move the estimand, only the
  // sampling layout.
  RRSamplingEngine single(g);
  CoverageQueryBatch batch;
  batch.Add(0, &front);
  batch.Add(0, &rear);
  Rng single_rng(808);
  single.CountCoverageBatch(&batch, nullptr, g.num_nodes(), theta,
                            &single_rng);

  RRSamplingEngine multi(g, DiffusionModel::kIndependentCascade, 4);
  Rng multi_rng(909);
  const uint64_t front_hits = multi.CountConditionalCoverage(
      0, &front, nullptr, g.num_nodes(), theta, &multi_rng);
  const uint64_t rear_hits = multi.CountConditionalCoverage(
      0, &rear, nullptr, g.num_nodes(), theta, &multi_rng);

  const uint64_t unbatched[2] = {front_hits, rear_hits};
  for (int q = 0; q < 2; ++q) {
    const double p_batched =
        static_cast<double>(batch.hits(q)) / static_cast<double>(theta);
    const double p_unbatched =
        static_cast<double>(unbatched[q]) / static_cast<double>(theta);
    const double p_hat = 0.5 * (p_batched + p_unbatched);
    const double sigma =
        std::sqrt(2.0 * p_hat * (1.0 - p_hat) / static_cast<double>(theta));
    EXPECT_GT(p_hat, 0.0) << "query " << q;
    EXPECT_NEAR(p_batched, p_unbatched, 3.0 * sigma + 1e-9) << "query " << q;
  }
}

// --- Tiny batches on many-thread engines: a theta below the worker count
// (or zero) is far below kMinParallelBatch, so it runs inline on the
// calling thread; the answer must be deterministic and never exceed theta.

TEST(ZeroQuotaWorkerTest, CountCoverageBatchSeededIsDeterministic) {
  const Graph g = TestGraph(200);
  BitVector base(g.num_nodes());
  for (NodeId v = 20; v < 60; ++v) base.Set(v);
  const uint64_t theta = 3;  // fewer draws than workers

  uint64_t reference[2] = {0, 0};
  for (int trial = 0; trial < 3; ++trial) {
    RRSamplingEngine engine(g, DiffusionModel::kIndependentCascade, 8);
    CoverageQueryBatch batch;
    batch.Add(0);
    batch.Add(1, &base);
    for (int repeat = 0; repeat < 2; ++repeat) {
      engine.CountCoverageBatchSeeded(&batch, nullptr, g.num_nodes(), theta,
                                      1234);
      if (trial == 0 && repeat == 0) {
        reference[0] = batch.hits(0);
        reference[1] = batch.hits(1);
      } else {
        EXPECT_EQ(batch.hits(0), reference[0]);
        EXPECT_EQ(batch.hits(1), reference[1]);
      }
    }
    EXPECT_LE(batch.hits(0), theta);
    EXPECT_LE(batch.hits(1), theta);
  }
}

TEST(ZeroQuotaWorkerTest, ZeroThetaBatchLeavesZeroHits) {
  const Graph g = TestGraph(100);
  RRSamplingEngine engine(g, DiffusionModel::kIndependentCascade, 4);
  CoverageQueryBatch batch;
  batch.Add(0);
  engine.CountCoverageBatchSeeded(&batch, nullptr, g.num_nodes(), 0, 9);
  EXPECT_EQ(batch.hits(0), 0u);
}

// Shard merge primitive used by the worker pool.

TEST(RRCollectionAppendShardTest, MatchesPerSetInsertion) {
  RRCollection by_set(10);
  RRCollection by_shard(10);

  const std::vector<std::vector<NodeId>> sets = {
      {1, 2, 3}, {4}, {}, {5, 6}, {7, 8, 9, 0}};
  std::vector<NodeId> flat;
  std::vector<uint32_t> sizes;
  for (const auto& s : sets) {
    by_set.AddSet(s);
    flat.insert(flat.end(), s.begin(), s.end());
    sizes.push_back(static_cast<uint32_t>(s.size()));
  }
  // Split into two shards to exercise repeated appends.
  by_shard.AppendShard({flat.data(), 4}, {sizes.data(), 2});
  by_shard.AppendShard({flat.data() + 4, flat.size() - 4},
                       {sizes.data() + 2, sizes.size() - 2});

  ExpectSamePools(by_set, by_shard);
  by_shard.BuildIndex();
  EXPECT_EQ(by_shard.CoverageOfNode(4), 1u);
  EXPECT_EQ(by_shard.CoverageOfNode(0), 1u);
}

// Engine handle caching (the policies' embedded slot).

TEST(SamplingEngineHandleTest, CachesOwnedEngineAndHonorsInjection) {
  const Graph g = TestGraph(100);
  SamplingEngineOptions options;

  SamplingEngineHandle handle;
  SamplingEngine* first =
      handle.Get(g, DiffusionModel::kIndependentCascade, options);
  SamplingEngine* second =
      handle.Get(g, DiffusionModel::kIndependentCascade, options);
  EXPECT_EQ(first, second);  // cached across calls

  options.num_threads = 2;
  SamplingEngine* third =
      handle.Get(g, DiffusionModel::kIndependentCascade, options);
  EXPECT_EQ(third->num_workers(), 2u);  // rebuilt for the new thread count

  RRSamplingEngine external(g);
  handle.Use(&external);
  EXPECT_EQ(handle.Get(g, DiffusionModel::kIndependentCascade, options),
            &external);
  handle.Use(nullptr);
  EXPECT_NE(handle.Get(g, DiffusionModel::kIndependentCascade, options),
            &external);
}

}  // namespace
}  // namespace atpm
