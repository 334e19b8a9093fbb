// Chaos suite for the fault-tolerant sampling substrate: deterministic
// failpoint injection (every registered site surfaces as a Status, never a
// crash), transient-fault retry absorption, crash-safe graph-store saves,
// run budgets (deadline / byte cap / cancellation) with graceful
// degradation telemetry, and golden bit-identity checks proving that the
// compiled-in-but-inactive machinery leaves every sampling stream
// untouched.
#include "common/failpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/bit_vector.h"
#include "common/rng.h"
#include "common/run_budget.h"
#include "core/hatp.h"
#include "core/hntp.h"
#include "core/target_selection.h"
#include "diffusion/adaptive_environment.h"
#include "diffusion/realization.h"
#include "graph/edge_list_io.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/graph_store.h"
#include "graph/weighting.h"
#include "rris/rr_collection.h"
#include "rris/sampling_engine.h"

namespace atpm {
namespace {

Graph WcGraph(NodeId n = 300) {
  Rng rng(7);
  BarabasiAlbertOptions options;
  options.num_nodes = n;
  options.edges_per_node = 2;
  Graph g = GenerateBarabasiAlbert(options, &rng).value();
  ApplyWeightedCascade(&g);
  return g;
}

uint64_t PoolHash(const RRCollection& pool) {
  uint64_t h = 1469598103934665603ull;
  for (uint64_t i = 0; i < pool.num_sets(); ++i) {
    const auto s = pool.set(i);
    h = (h ^ s.size()) * 1099511628211ull;
    for (NodeId v : s) h = (h ^ v) * 1099511628211ull;
  }
  return h;
}

uint64_t PoolTotalNodes(const RRCollection& pool) {
  uint64_t total = 0;
  for (uint64_t i = 0; i < pool.num_sets(); ++i) total += pool.set(i).size();
  return total;
}

// The pipelining-test instance: BA n=300 epn=2 weighted-cascade graph,
// top-10 degree-proportional targets, default (geometric-jump) kernels.
ProfitProblem GoldenProblem(const Graph& g) {
  auto selection =
      BuildTopKTargetProblem(g, 10, CostScheme::kDegreeProportional);
  EXPECT_TRUE(selection.ok()) << selection.status().ToString();
  return selection.value().problem;
}

Result<AdaptiveRunResult> RunGoldenHatp(const Graph& g,
                                        const ProfitProblem& problem,
                                        const HatpOptions& hopt) {
  HatpPolicy policy(hopt);
  Rng world_rng(42);
  AdaptiveEnvironment env(Realization::Sample(g, &world_rng));
  Rng rng(1);
  return policy.Run(problem, &env, &rng);
}

// Every test leaves the process failpoint-free, however it exits.
class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::DisarmAll(); }
  void TearDown() override {
    failpoint::DisarmAll();
    std::remove(StorePath().c_str());
    std::remove(EdgePath().c_str());
  }

  std::string StorePath() const {
    return ::testing::TempDir() + "/atpm_failpoint_store_" +
           std::to_string(reinterpret_cast<uintptr_t>(this)) + ".atpm";
  }
  std::string EdgePath() const {
    return ::testing::TempDir() + "/atpm_failpoint_edges_" +
           std::to_string(reinterpret_cast<uintptr_t>(this)) + ".txt";
  }
};

// ---- Registry sanity.

TEST_F(FailpointTest, RegistryListsEveryDeclaredSite) {
  const std::vector<std::string> names = failpoint::RegisteredNames();
  const char* expected[] = {
      "alloc.pool_reserve",    "alloc.pool_append",
      "engine.serial_batch",   "engine.parallel_worker",
      "graph_store.open",      "graph_store.open.transient",
      "graph_store.mmap",      "graph_store.read",
      "graph_store.write",     "graph_store.fsync",
      "graph_store.rename",    "edge_list.open",
      "edge_list.read",        "edge_list.read.transient",
      "edge_list.write",
  };
  for (const char* name : expected) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << name << " missing from the failpoint registry";
  }
  EXPECT_FALSE(failpoint::AnyArmed());
  EXPECT_FALSE(failpoint::Arm("no.such.failpoint"));
}

TEST_F(FailpointTest, SpecGrammarParsesAndRejects) {
  EXPECT_TRUE(failpoint::ArmFromSpec(
                  "graph_store.write;edge_list.read=error@2:1")
                  .ok());
  EXPECT_TRUE(failpoint::AnyArmed());
  failpoint::DisarmAll();
  EXPECT_TRUE(failpoint::ArmFromSpec("chaos:17:0.25").ok());
  failpoint::DisarmAll();
  EXPECT_TRUE(failpoint::ArmFromSpec("no.such.failpoint")
                  .IsInvalidArgument());
  EXPECT_TRUE(failpoint::ArmFromSpec("graph_store.write=frobnicate")
                  .IsInvalidArgument());
  EXPECT_TRUE(failpoint::ArmFromSpec("chaos:9:1.5").IsInvalidArgument());
}

// ---- Golden bit-identity: the machinery is compiled in everywhere, but
// with nothing armed every sampling stream must match the pre-failpoint
// tree bit for bit.

TEST_F(FailpointTest, InactiveSitesKeepSerialPoolGolden) {
  const Graph g = WcGraph();
  RRSamplingEngine engine(g);
  Rng rng(77);
  const RRCollection& pool =
      engine.GeneratePool(nullptr, g.num_nodes(), 2000, &rng);
  EXPECT_EQ(pool.num_sets(), 2000u);
  EXPECT_EQ(PoolTotalNodes(pool), 9141u);
  EXPECT_EQ(PoolHash(pool), 11827176579932382309ull);
}

TEST_F(FailpointTest, InactiveSitesKeepParallelSeededCountGolden) {
  const Graph g = WcGraph();
  BitVector base(g.num_nodes());
  for (NodeId v = 10; v < 30; ++v) base.Set(v);
  RRSamplingEngine engine(g, DiffusionModel::kIndependentCascade, 4);
  EXPECT_EQ(engine.CountConditionalCoverageSeeded(0, &base, nullptr,
                                                  g.num_nodes(), 60000, 42),
            809u);
}

TEST_F(FailpointTest, InactiveSitesKeepHatpRunGolden) {
  const Graph g = WcGraph();
  const ProfitProblem problem = GoldenProblem(g);
  EXPECT_EQ(problem.targets,
            (std::vector<NodeId>{2, 4, 7, 18, 13, 17, 8, 9, 41, 22}));

  HatpOptions hopt;
  auto run = RunGoldenHatp(g, problem, hopt);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().seeds, (std::vector<NodeId>{2, 7, 17, 9}));
  EXPECT_EQ(run.value().total_rr_sets, 720744u);
  EXPECT_NEAR(run.value().realized_profit, 17.874342, 1e-4);
  std::vector<int> decisions;
  for (const AdaptiveStepRecord& step : run.value().steps) {
    decisions.push_back(static_cast<int>(step.decision));
  }
  EXPECT_EQ(decisions, (std::vector<int>{0, 1, 0, 1, 2, 0, 1, 0, 1, 2}));

  // A clean (unbudgeted, unfaulted) run certifies exactly what was asked.
  EXPECT_TRUE(run.value().degradation_events.empty());
  EXPECT_DOUBLE_EQ(run.value().effective_epsilon,
                   hopt.relative_error_threshold);
  EXPECT_GT(run.value().achieved_theta, 0u);
  EXPECT_GT(run.value().achieved_additive_error, 0.0);
}

// ---- Armed sites surface as Statuses; disarming restores the exact
// clean-run behavior.

TEST_F(FailpointTest, SerialEngineFaultsSurfaceAsStatus) {
  const Graph g = WcGraph();
  RRSamplingEngine engine(g);
  Rng rng(77);

  ASSERT_TRUE(failpoint::Arm("engine.serial_batch"));
  EXPECT_TRUE(engine.TryGeneratePool(nullptr, g.num_nodes(), 100, &rng)
                  .IsInternal());
  EXPECT_EQ(engine.pool().num_sets(), 0u);
  CoverageQueryBatch batch;
  batch.Add(0);
  EXPECT_TRUE(
      engine.TryCountCoverageBatchSeeded(&batch, nullptr, g.num_nodes(), 100,
                                         42)
          .status()
          .IsInternal());

  // Disarm + rerun from a fresh stream: bit-identical to the golden pool.
  failpoint::DisarmAll();
  Rng clean(77);
  ASSERT_TRUE(
      engine.TryGeneratePool(nullptr, g.num_nodes(), 2000, &clean).ok());
  EXPECT_EQ(PoolHash(engine.pool()), 11827176579932382309ull);
}

TEST_F(FailpointTest, AllocFailuresBecomeResourceExhausted) {
  const Graph g = WcGraph();
  RRSamplingEngine engine(g);
  Rng rng(77);

  ASSERT_TRUE(failpoint::Arm("alloc.pool_reserve"));
  Status reserve = engine.TryGeneratePool(nullptr, g.num_nodes(), 100, &rng);
  EXPECT_TRUE(reserve.IsResourceExhausted()) << reserve.ToString();
  EXPECT_EQ(engine.pool().num_sets(), 0u);

  failpoint::DisarmAll();
  ASSERT_TRUE(failpoint::Arm("alloc.pool_append"));
  Status append = engine.TryGeneratePool(nullptr, g.num_nodes(), 100, &rng);
  EXPECT_TRUE(append.IsResourceExhausted()) << append.ToString();
}

TEST_F(FailpointTest, ParallelWorkerThrowIsContained) {
  const Graph g = WcGraph();
  RRSamplingEngine engine(g, DiffusionModel::kIndependentCascade, 4);
  Rng rng(77);
  ASSERT_TRUE(failpoint::Arm("engine.parallel_worker"));
  // Large enough to engage the worker pool: the exception crosses the
  // thread boundary as a Status, the process stays alive, and the engine
  // stays usable after disarming.
  Status fault = engine.TryGeneratePool(nullptr, g.num_nodes(), 20000, &rng);
  EXPECT_TRUE(fault.IsInternal()) << fault.ToString();

  failpoint::DisarmAll();
  engine.ResetPool();
  Rng clean(77);
  ASSERT_TRUE(
      engine.TryGeneratePool(nullptr, g.num_nodes(), 20000, &clean).ok());
  EXPECT_EQ(engine.pool().num_sets(), 20000u);
}

// One accounting rule on every path: RNG draws accrue even when a query
// fails (they were consumed), while RR sets, edges, count pools and
// queries accrue only for work that was delivered.
TEST_F(FailpointTest, FailedQueriesAccrueDrawsOnly) {
  const Graph g = WcGraph();
  const uint64_t big = 2 * kMinParallelBatch;  // fans out on 4 threads
  for (uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    RRSamplingEngine engine(g, DiffusionModel::kIndependentCascade, threads);
    Rng rng(77);
    CoverageQueryBatch batch;
    batch.Add(0);

    // Pool fill whose sets never reach the pool: the inline append, or the
    // first shard merge, fails after the sampling ran.
    ASSERT_TRUE(failpoint::Arm("alloc.pool_append"));
    EXPECT_TRUE(engine.TryGeneratePool(nullptr, g.num_nodes(), big, &rng)
                    .IsResourceExhausted());
    failpoint::DisarmAll();
    EXPECT_EQ(engine.pool().num_sets(), 0u);
    EXPECT_EQ(engine.total_edges_examined(), 0u);
    EXPECT_GT(engine.stats().rng_draws, big);
    EXPECT_EQ(engine.stats().rr_sets_generated, 0u);
    EXPECT_EQ(engine.stats().edges_examined, 0u);

    // A count that fails: on one thread the inline allocation fault fires
    // before any draw; on four the second worker to start throws while the
    // other three sample their shares.
    engine.ResetStats();
    if (threads == 1) {
      ASSERT_TRUE(failpoint::Arm("alloc.pool_reserve"));
    } else {
      failpoint::Spec second_hit;
      second_hit.fire_at = 2;
      second_hit.count = 1;
      ASSERT_TRUE(failpoint::Arm("engine.parallel_worker", second_hit));
    }
    EXPECT_FALSE(engine
                     .TryCountCoverageBatchSeeded(&batch, nullptr,
                                                  g.num_nodes(), big, 42)
                     .ok());
    failpoint::DisarmAll();
    const SamplingStats& stats = engine.stats();
    EXPECT_EQ(stats.rng_draws > 0, threads > 1);
    EXPECT_EQ(stats.rr_sets_generated, 0u);
    EXPECT_EQ(stats.edges_examined, 0u);
    EXPECT_EQ(stats.count_pools, 0u);
    EXPECT_EQ(stats.coverage_queries, 0u);

    // Disarmed, the same count succeeds and accrues everything.
    ASSERT_TRUE(engine
                    .TryCountCoverageBatchSeeded(&batch, nullptr,
                                                 g.num_nodes(), big, 42)
                    .ok());
    EXPECT_EQ(stats.rr_sets_generated, big);
    EXPECT_GT(stats.edges_examined, 0u);
    EXPECT_EQ(stats.count_pools, 1u);
    EXPECT_EQ(stats.coverage_queries, 1u);
  }
}

TEST_F(FailpointTest, ScheduledFailpointFiresOnExactHits) {
  const Graph g = WcGraph();
  RRSamplingEngine engine(g);
  failpoint::Spec spec;
  spec.fire_at = 3;
  spec.count = 1;
  ASSERT_TRUE(failpoint::Arm("engine.serial_batch", spec));
  Rng rng(77);
  for (int call = 1; call <= 4; ++call) {
    const Status s = engine.TryGeneratePool(nullptr, g.num_nodes(), 10, &rng);
    if (call == 3) {
      EXPECT_FALSE(s.ok()) << "call " << call;
    } else {
      EXPECT_TRUE(s.ok()) << "call " << call << ": " << s.ToString();
    }
  }
  EXPECT_EQ(failpoint::HitCount("engine.serial_batch"), 4u);
}

// ---- Graph-store IO: injected faults reject cleanly, saves are atomic,
// transient faults are absorbed by bounded retries.

TEST_F(FailpointTest, GraphStoreSaveFaultsLeaveNoFileBehind) {
  const Graph g = WcGraph(64);
  const std::string path = StorePath();
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  for (const char* site :
       {"graph_store.open", "graph_store.write", "graph_store.fsync",
        "graph_store.rename"}) {
    failpoint::DisarmAll();
    ASSERT_TRUE(failpoint::Arm(site));
    const Status s = SaveGraphStore(g, path);
    EXPECT_TRUE(s.IsIOError()) << site << ": " << s.ToString();
    EXPECT_NE(::access(path.c_str(), F_OK), 0)
        << site << " left a partial store at the final path";
    EXPECT_NE(::access(tmp.c_str(), F_OK), 0)
        << site << " leaked the temp file";
  }
  failpoint::DisarmAll();
  ASSERT_TRUE(SaveGraphStore(g, path).ok());
  EXPECT_TRUE(LoadGraphStore(path).ok());
}

TEST_F(FailpointTest, FailedResaveLeavesExistingStoreIntact) {
  const std::string path = StorePath();
  const Graph original = WcGraph();
  ASSERT_TRUE(SaveGraphStore(original, path).ok());

  // Every failure mode of the re-save must leave the published store
  // byte-identical — the temp-file + rename protocol never exposes a torn
  // write at the final path.
  Rng rng(11);
  BarabasiAlbertOptions big;
  big.num_nodes = 400;
  big.edges_per_node = 3;
  Graph other = GenerateBarabasiAlbert(big, &rng).value();
  ApplyWeightedCascade(&other);
  for (const char* site :
       {"graph_store.write", "graph_store.fsync", "graph_store.rename"}) {
    failpoint::DisarmAll();
    ASSERT_TRUE(failpoint::Arm(site));
    EXPECT_FALSE(SaveGraphStore(other, path).ok()) << site;
    failpoint::DisarmAll();
    Result<Graph> loaded = LoadGraphStore(path);
    ASSERT_TRUE(loaded.ok()) << site << ": " << loaded.status().ToString();
    EXPECT_EQ(loaded.value().num_nodes(), original.num_nodes()) << site;
    EXPECT_EQ(loaded.value().num_edges(), original.num_edges()) << site;
  }
}

TEST_F(FailpointTest, GraphStoreLoadFaultsRejectCleanly) {
  const std::string path = StorePath();
  ASSERT_TRUE(SaveGraphStore(WcGraph(64), path).ok());
  for (const char* site :
       {"graph_store.open", "graph_store.mmap", "graph_store.read"}) {
    failpoint::DisarmAll();
    ASSERT_TRUE(failpoint::Arm(site));
    const Status s = LoadGraphStore(path).status();
    EXPECT_TRUE(s.IsIOError()) << site << ": " << s.ToString();
  }
  failpoint::DisarmAll();
  EXPECT_TRUE(LoadGraphStore(path).ok());
}

TEST_F(FailpointTest, TransientOpenFaultsAreRetriedAway) {
  const std::string path = StorePath();
  ASSERT_TRUE(SaveGraphStore(WcGraph(64), path).ok());

  failpoint::Spec three;
  three.action = failpoint::Action::kTransient;
  three.count = 3;
  ASSERT_TRUE(failpoint::Arm("graph_store.open.transient", three));
  EXPECT_TRUE(LoadGraphStore(path).ok());
  // Three simulated faults plus the clean fourth consult.
  EXPECT_EQ(failpoint::HitCount("graph_store.open.transient"), 4u);

  // An unbounded transient schedule exhausts the retry budget and turns
  // into a hard IOError instead of spinning.
  failpoint::DisarmAll();
  ASSERT_TRUE(failpoint::Arm("graph_store.open.transient"));
  const Status s = LoadGraphStore(path).status();
  ASSERT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_NE(s.ToString().find("retry budget"), std::string::npos);
}

// ---- Edge-list IO.

TEST_F(FailpointTest, EdgeListIoFaultsSurfaceAndTransientsAbsorb) {
  const Graph g = WcGraph(64);
  const std::string path = EdgePath();
  ASSERT_TRUE(SaveEdgeList(g, path).ok());

  ASSERT_TRUE(failpoint::Arm("edge_list.open"));
  EXPECT_TRUE(LoadEdgeList(path).status().IsIOError());
  EXPECT_TRUE(SaveEdgeList(g, path + ".second").IsIOError());
  failpoint::DisarmAll();

  ASSERT_TRUE(failpoint::Arm("edge_list.read"));
  EXPECT_TRUE(LoadEdgeList(path).status().IsIOError());
  failpoint::DisarmAll();

  failpoint::Spec two;
  two.action = failpoint::Action::kTransient;
  two.count = 2;
  ASSERT_TRUE(failpoint::Arm("edge_list.read.transient", two));
  Result<Graph> absorbed = LoadEdgeList(path);
  ASSERT_TRUE(absorbed.ok()) << absorbed.status().ToString();
  EXPECT_EQ(absorbed.value().num_edges(), g.num_edges());
  failpoint::DisarmAll();

  ASSERT_TRUE(failpoint::Arm("edge_list.read.transient"));
  const Status exhausted = LoadEdgeList(path).status();
  ASSERT_TRUE(exhausted.IsIOError()) << exhausted.ToString();
  EXPECT_NE(exhausted.ToString().find("retry budget"), std::string::npos);
  failpoint::DisarmAll();

  ASSERT_TRUE(failpoint::Arm("edge_list.write"));
  EXPECT_TRUE(SaveEdgeList(g, path + ".second").IsIOError());
  std::remove((path + ".second").c_str());
}

// ---- Policy-level containment and degradation.

TEST_F(FailpointTest, HatpPropagatesHardEngineFaults) {
  const Graph g = WcGraph();
  const ProfitProblem problem = GoldenProblem(g);
  ASSERT_TRUE(failpoint::Arm("engine.serial_batch"));
  HatpOptions hopt;
  auto run = RunGoldenHatp(g, problem, hopt);
  EXPECT_TRUE(run.status().IsInternal()) << run.status().ToString();
}

TEST_F(FailpointTest, HatpAbsorbsInjectedAllocFailure) {
  const Graph g = WcGraph();
  const ProfitProblem problem = GoldenProblem(g);

  // One bad_alloc on the second counting pool: the decision in flight is
  // concluded on the rounds it already completed, the event is recorded,
  // and the run still finishes.
  failpoint::Spec spec;
  spec.action = failpoint::Action::kBadAlloc;
  spec.fire_at = 2;
  spec.count = 1;
  ASSERT_TRUE(failpoint::Arm("alloc.pool_reserve", spec));
  HatpOptions hopt;
  auto run = RunGoldenHatp(g, problem, hopt);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run.value().degradation_events.size(), 1u);
  EXPECT_EQ(run.value().degradation_events[0].reason,
            DegradationReason::kAllocFailure);
  EXPECT_EQ(run.value().budget_exhausted_decisions +
                run.value().budget_truncated_decisions,
            1u);
  // The weakened guarantee is reported, not hidden: the forced decision
  // stood on an earlier round's (looser) error pair.
  EXPECT_GE(run.value().effective_epsilon, hopt.relative_error_threshold);
}

TEST_F(FailpointTest, DeadlineBudgetedHatpTerminatesWithinTwiceBudget) {
  const Graph g = WcGraph();
  const ProfitProblem problem = GoldenProblem(g);
  HatpOptions hopt;

  // Baseline the unbudgeted run, then grant a quarter of that: the
  // deadline must trip mid-run, and the run must still return within 2x
  // the granted wall-clock (the ISSUE acceptance bound).
  const auto baseline_start = std::chrono::steady_clock::now();
  ASSERT_TRUE(RunGoldenHatp(g, problem, hopt).ok());
  const double baseline_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    baseline_start)
          .count();

  const double deadline = std::max(baseline_seconds / 4.0, 0.001);
  hopt.sampling.budget.deadline_seconds = deadline;
  const auto start = std::chrono::steady_clock::now();
  auto run = RunGoldenHatp(g, problem, hopt);
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_LE(elapsed, 2.0 * deadline)
      << "budget " << deadline << "s, ran " << elapsed << "s";

  // Telemetry names what was given up.
  ASSERT_FALSE(run.value().degradation_events.empty());
  EXPECT_EQ(run.value().degradation_events[0].reason,
            DegradationReason::kDeadline);
  EXPECT_GE(run.value().effective_epsilon, hopt.relative_error_threshold);
  EXPECT_EQ(run.value().steps.size(), problem.targets.size());
}

TEST_F(FailpointTest, PreCancelledRunDecidesBlindAndDeterministically) {
  const Graph g = WcGraph();
  const ProfitProblem problem = GoldenProblem(g);
  CancelToken cancel;
  cancel.Cancel();
  HatpOptions hopt;
  hopt.sampling.budget.cancel = &cancel;

  auto first = RunGoldenHatp(g, problem, hopt);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const AdaptiveRunResult& r = first.value();
  // Zero evidence: no sampling happened, nothing was selected, and the
  // vacuous guarantee is reported explicitly instead of implied.
  EXPECT_TRUE(r.seeds.empty());
  EXPECT_EQ(r.total_rr_sets, 0u);
  EXPECT_EQ(r.degradation_events.size(), problem.targets.size());
  for (const DegradationEvent& event : r.degradation_events) {
    EXPECT_EQ(event.reason, DegradationReason::kCancelled);
    EXPECT_EQ(event.rounds_completed, 0u);
  }
  EXPECT_DOUBLE_EQ(r.effective_epsilon, 1.0);
  EXPECT_EQ(r.achieved_theta, 0u);
  for (const AdaptiveStepRecord& step : r.steps) {
    EXPECT_EQ(step.decision, SeedDecision::kBudgetExhausted);
  }

  // Degraded runs are as deterministic as clean ones.
  auto second = RunGoldenHatp(g, problem, hopt);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().seeds, r.seeds);
  EXPECT_EQ(second.value().degradation_events.size(),
            r.degradation_events.size());

  // HNTP rides the same planner plumbing.
  Rng rng(1);
  auto hntp = RunHntp(problem, hopt, &rng);
  ASSERT_TRUE(hntp.ok()) << hntp.status().ToString();
  EXPECT_TRUE(hntp.value().seeds.empty());
  EXPECT_EQ(hntp.value().total_rr_sets, 0u);
  EXPECT_DOUBLE_EQ(hntp.value().effective_epsilon, 1.0);
  EXPECT_EQ(hntp.value().degradation_events.size(), problem.targets.size());
}

TEST_F(FailpointTest, PoolByteCapTruncatesGeneratePool) {
  const Graph g = WcGraph();
  RRSamplingEngine engine(g);
  RunBudget budget;
  budget.rr_pool_byte_cap = 2048;
  BudgetGate gate(budget);
  ScopedEngineBudget scoped(&engine, &gate);
  ASSERT_TRUE(scoped.armed());

  Rng rng(77);
  ASSERT_TRUE(
      engine.TryGeneratePool(nullptr, g.num_nodes(), 100000, &rng).ok());
  // The cap stopped generation at a batch boundary: far fewer sets than
  // requested, but every stored set is whole.
  EXPECT_GT(engine.pool().num_sets(), 0u);
  EXPECT_LT(engine.pool().num_sets(), 100000u);
  EXPECT_EQ(gate.Exhausted(), BudgetStop::kPoolBytes);
}

// ---- Chaos mode: every registered site armed on one seeded pseudo-random
// schedule. Any outcome is acceptable except a crash or an unregistered
// error — and the same seed must reproduce the same outcome exactly.

TEST_F(FailpointTest, ChaosScheduleIsReproducibleAndContained) {
  const Graph g = WcGraph();
  const ProfitProblem problem = GoldenProblem(g);
  uint64_t chaos_seed = 20260808;
  if (const char* env = std::getenv("ATPM_CHAOS_SEED")) {
    chaos_seed = std::strtoull(env, nullptr, 10);
  }
  // Echoed so a CI failure names the schedule to replay.
  std::printf("[ chaos ] ATPM_CHAOS_SEED=%llu\n",
              static_cast<unsigned long long>(chaos_seed));

  HatpOptions hopt;
  for (uint64_t trial = 0; trial < 3; ++trial) {
    const uint64_t seed = chaos_seed + trial;
    failpoint::DisarmAll();
    failpoint::ArmChaos(seed, 0.02);
    auto first = RunGoldenHatp(g, problem, hopt);
    if (!first.ok()) {
      // Injected faults may only surface through registered channels.
      EXPECT_TRUE(first.status().IsInternal() ||
                  first.status().IsIOError() ||
                  first.status().IsResourceExhausted())
          << "seed " << seed << ": " << first.status().ToString();
    }

    failpoint::DisarmAll();
    failpoint::ArmChaos(seed, 0.02);
    auto second = RunGoldenHatp(g, problem, hopt);
    ASSERT_EQ(first.ok(), second.ok()) << "seed " << seed;
    if (first.ok()) {
      EXPECT_EQ(first.value().seeds, second.value().seeds)
          << "seed " << seed;
      EXPECT_EQ(first.value().total_rr_sets, second.value().total_rr_sets)
          << "seed " << seed;
      EXPECT_EQ(first.value().degradation_events.size(),
                second.value().degradation_events.size())
          << "seed " << seed;
    } else {
      EXPECT_EQ(first.status().code(), second.status().code())
          << "seed " << seed;
    }
  }
  failpoint::DisarmAll();

  // Chaos armed, chaos disarmed: back to the golden stream.
  RRSamplingEngine engine(g);
  Rng rng(77);
  ASSERT_TRUE(
      engine.TryGeneratePool(nullptr, g.num_nodes(), 2000, &rng).ok());
  EXPECT_EQ(PoolHash(engine.pool()), 11827176579932382309ull);
}

}  // namespace
}  // namespace atpm
