#ifndef ATPM_RRIS_SAMPLING_ENGINE_H_
#define ATPM_RRIS_SAMPLING_ENGINE_H_

#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "common/bit_vector.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/run_budget.h"
#include "common/status.h"
#include "diffusion/diffusion_model.h"
#include "graph/graph.h"
#include "rris/coverage_batch.h"
#include "rris/rr_collection.h"
#include "rris/rr_set.h"
#include "rris/sampling_stats.h"

namespace atpm {

/// Queries smaller than this run on the calling thread even on a
/// multi-threaded engine: fan-out overhead dominates tiny jobs, and the
/// adaptive policies issue plenty of them early in the error schedule.
inline constexpr uint64_t kMinParallelBatch = 4096;

/// Engine construction knobs, threaded through policy options.
struct SamplingEngineOptions {
  /// Sampling threads; 0 = hardware concurrency.
  uint32_t num_threads = 1;
  /// RR-generation kernel of every generator the engine owns (see
  /// SamplingKernel in graph/graph.h): geometric jumps where the weight
  /// classes allow by default, kPerEdge for bit-compat reruns.
  SamplingKernel kernel = SamplingKernel::kGeometricJump;
};

/// Sampling knobs shared by every RIS-driven decision loop (ADDATP, HATP,
/// HNTP). Policy option structs embed one of these instead of copy-pasting
/// the fields.
struct SamplingOptions {
  /// Sampling threads (0 = hardware concurrency). One thread reproduces
  /// the single-threaded code path bit for bit for a fixed seed; results
  /// are deterministic for a fixed (seed, num_threads) pair but differ
  /// across thread counts.
  uint32_t num_threads = 1;
  /// Budget cap on RR sets generated for a single seed decision (all pools
  /// and all halving rounds combined).
  uint64_t max_rr_sets_per_decision = 1ull << 23;
  /// One shared pool of θ RR sets per halving round answers both the front
  /// and the rear coverage query through a CoverageQueryBatch — half the RR
  /// sets per round, identical per-query concentration bounds. false
  /// restores the literal two-independent-pools sampling of Algorithms 3/4
  /// (bit-identical to the pre-batching code paths for a fixed seed).
  bool batched_rounds = true;
  /// RR-generation kernel. The default geometric-jump kernel is
  /// statistically equivalent to the historical per-edge loop but consumes
  /// a different RNG stream; set kPerEdge to reproduce pre-kernel decision
  /// sequences bit for bit for a fixed seed.
  SamplingKernel kernel = SamplingKernel::kGeometricJump;
  /// Resource envelope for the whole run: wall-clock deadline, RR-pool
  /// byte cap, and cooperative cancellation. Inactive (the default) adds
  /// no checks and leaves every RNG stream bit-identical; when a limit
  /// trips mid-run the policies finish the current decision on the RR
  /// sets already drawn and report the weakened guarantee
  /// (DegradationEvent / achieved_theta / effective_epsilon) instead of
  /// crashing or silently answering with less evidence than requested.
  RunBudget budget;

  /// Engine-construction view of these knobs.
  SamplingEngineOptions EngineOptions() const {
    return SamplingEngineOptions{num_threads, kernel};
  }
};

/// The substrate boundary between RR-set sampling and the TPM algorithms.
///
/// Every policy needs exactly two operations on the residual graph
/// G \ removed (`num_alive` = nodes outside `removed`):
///
///  * GeneratePool — append `count` stored RR sets to the engine's pool
///    (NSG/NDG/IMM-style fixed pools, spread lower bounds), with the total
///    edges examined (the IMM/EPT cost measure) accumulated in
///    total_edges_examined() so concentration accounting aggregates
///    correctly across parallel shards;
///  * CountCoverageBatch — draw ONE pool of θ throwaway RR sets and answer
///    every Cov(u | base) query of a CoverageQueryBatch in a single pass
///    (the ADDATP/HATP per-decision hot path; a round's front and rear
///    estimates share the pool instead of paying a fan-out each).
///    CountConditionalCoverage is the one-query convenience form.
///
/// Engines are bound to one (graph, diffusion model) pair and are *not*
/// re-entrant: one query runs at a time. Randomness is always drawn from
/// the caller's Rng, so runs remain reproducible for a fixed (caller
/// stream, thread count) pair. How far a query advances the caller's Rng:
///
///  * a count query: exactly one 64-bit draw, at any thread count (the
///    draw seeds the query; see TryCountCoverageBatchSeeded);
///  * a pool fill on a one-thread engine: by every draw the generator
///    makes, because it samples straight from the caller's stream;
///  * a pool fill on a multi-threaded engine: exactly one draw, the base
///    seed of the query's own streams.
class SamplingEngine {
 public:
  virtual ~SamplingEngine() = default;

  /// Appends up to `count` RR sets sampled on G \ removed to the engine's
  /// pool (fewer when the installed BudgetGate trips mid-batch — the pool
  /// then holds every set generated before the stop, and pool().num_sets()
  /// is the honest denominator). Edge-examination cost accrues into
  /// total_edges_examined(). Failures — an injected failpoint, a worker
  /// exception, allocation exhaustion — surface as a Status instead of
  /// terminating the process; kResourceExhausted means the pool kept what
  /// it had and the caller may degrade onto it.
  virtual Status TryGeneratePool(const BitVector* removed,
                                 uint32_t num_alive, uint64_t count,
                                 Rng* rng) = 0;

  /// Historical convenience form of TryGeneratePool for callers with no
  /// failure channel (benchmarks, tests): aborts on error and returns the
  /// pool. Identical to the pre-Status API when nothing fails.
  RRCollection& GeneratePool(const BitVector* removed, uint32_t num_alive,
                             uint64_t count, Rng* rng) {
    const Status status = TryGeneratePool(removed, num_alive, count, rng);
    if (!status.ok()) {
      std::fprintf(stderr, "GeneratePool: %s\n", status.ToString().c_str());
    }
    ATPM_CHECK(status.ok());
    return pool();
  }

  /// Samples one shared pool of `theta` RR sets without storing them and
  /// fills in `batch`'s per-query hit counters. Consumes one 64-bit draw
  /// from `rng` regardless of batch width or worker count. Returns the
  /// number of sets actually drawn — θ, unless the installed BudgetGate
  /// stopped the pool early, in which case the hit counters are exact over
  /// that smaller pool and the return value is the honest denominator.
  Result<uint64_t> TryCountCoverageBatch(CoverageQueryBatch* batch,
                                         const BitVector* removed,
                                         uint32_t num_alive, uint64_t theta,
                                         Rng* rng) {
    return TryCountCoverageBatchSeeded(batch, removed, num_alive, theta,
                                       rng->Next());
  }

  /// Abort-on-error convenience form of TryCountCoverageBatch (the
  /// historical API shape; callers without budgets always sample θ sets).
  void CountCoverageBatch(CoverageQueryBatch* batch, const BitVector* removed,
                          uint32_t num_alive, uint64_t theta, Rng* rng) {
    CountCoverageBatchSeeded(batch, removed, num_alive, theta, rng->Next());
  }

  /// Seed-level variant of TryCountCoverageBatch: below kMinParallelBatch
  /// (and always on one thread) the engine counts inline with the stream
  /// Rng(seed); above it worker w counts its share with the stream
  /// Rng(SplitSeed(seed, w)) into a private counter shard, merged in worker
  /// order. Returns the sets actually drawn (see TryCountCoverageBatch).
  virtual Result<uint64_t> TryCountCoverageBatchSeeded(
      CoverageQueryBatch* batch, const BitVector* removed,
      uint32_t num_alive, uint64_t theta, uint64_t seed) = 0;

  /// Abort-on-error convenience form of TryCountCoverageBatchSeeded.
  void CountCoverageBatchSeeded(CoverageQueryBatch* batch,
                                const BitVector* removed, uint32_t num_alive,
                                uint64_t theta, uint64_t seed) {
    const Result<uint64_t> sampled =
        TryCountCoverageBatchSeeded(batch, removed, num_alive, theta, seed);
    if (!sampled.ok()) {
      std::fprintf(stderr, "CountCoverageBatchSeeded: %s\n",
                   sampled.status().ToString().c_str());
    }
    ATPM_CHECK(sampled.ok());
  }

  /// One-query convenience form: samples `theta` RR sets and returns how
  /// many contain `u` while avoiding every node of `base` (nullptr base =
  /// plain Cov({u}) count). Consumes one 64-bit draw from `rng`.
  uint64_t CountConditionalCoverage(NodeId u, const BitVector* base,
                                    const BitVector* removed,
                                    uint32_t num_alive, uint64_t theta,
                                    Rng* rng) {
    return CountConditionalCoverageSeeded(u, base, removed, num_alive, theta,
                                          rng->Next());
  }

  /// Seed-level variant of CountConditionalCoverage; a one-query batch, so
  /// bit-identical to the historical per-query sampling for a fixed seed.
  uint64_t CountConditionalCoverageSeeded(NodeId u, const BitVector* base,
                                          const BitVector* removed,
                                          uint32_t num_alive, uint64_t theta,
                                          uint64_t seed) {
    scratch_batch_.Clear();
    scratch_batch_.Add(u, base);
    CountCoverageBatchSeeded(&scratch_batch_, removed, num_alive, theta,
                             seed);
    return scratch_batch_.hits(0);
  }

  /// Installs (or clears, with nullptr) the budget gate the sampling
  /// paths poll at batch boundaries. Borrowed: the caller keeps the gate
  /// alive until it is cleared. Engines are not re-entrant, so one gate at
  /// a time; decorators forward to their inner engine.
  virtual void set_budget(BudgetGate* budget) { budget_ = budget; }
  /// The installed budget gate (null = unbudgeted).
  BudgetGate* budget() const { return budget_; }

  /// The engine's pool of stored RR sets (as filled by GeneratePool).
  virtual RRCollection& pool() = 0;
  /// Empties the pool (keeps capacity) and zeroes the edge accounting.
  virtual void ResetPool() = 0;
  /// Total edges examined by all GeneratePool calls since the last
  /// ResetPool, aggregated across workers.
  virtual uint64_t total_edges_examined() const = 0;

  /// Lifetime sampling-effort counters (pool + counting paths). Unlike
  /// total_edges_examined these survive ResetPool; ResetStats re-baselines
  /// them (e.g. per benchmark phase).
  const SamplingStats& stats() const { return stats_; }
  void ResetStats() { stats_ = SamplingStats{}; }

  /// The bound graph.
  virtual const Graph& graph() const = 0;
  /// The bound diffusion model.
  virtual DiffusionModel model() const = 0;
  /// The RR-generation kernel of the engine's generators.
  virtual SamplingKernel kernel() const = 0;
  /// Sampling thread count (1 when everything runs on the caller).
  virtual uint32_t num_workers() const = 0;
  /// Engine identifier for logs and benchmarks.
  virtual std::string_view name() const = 0;

 protected:
  SamplingStats stats_;
  BudgetGate* budget_ = nullptr;

 private:
  /// Scratch for the one-query convenience path (engines are one query at a
  /// time by contract, so a single slot suffices).
  CoverageQueryBatch scratch_batch_;
};

/// The RR-set sampling engine. With one thread it samples on the calling
/// thread through one persistent RRSetGenerator and, for a fixed (seed,
/// kernel) pair, reproduces the raw generator code paths
/// (RRCollection::Generate / CountCoveringBatch) bit for bit. With more it
/// also runs that many persistent workers, each with its own generator (no
/// shared mutable state on the hot path) and a private stream
/// Rng(SplitSeed(base seed, w)). Queries of at least kMinParallelBatch sets
/// fan out: pool fills shard into per-worker flat buffers spliced into the
/// CSR pool in worker order (RRCollection::AppendShard), and counting jobs
/// give every worker a private counter shard summed in worker order — so
/// pools, hit counts and edge totals are deterministic for a fixed (seed,
/// thread count) pair. Smaller queries run inline: a count with the stream
/// Rng(seed), bit-identical at every thread count; a pool fill with the
/// stream Rng(base seed), which is only statistically equivalent to the
/// one-thread engine's fill from the caller's stream.
///
/// SamplingStats follow one rule on every path: RNG draws always accrue
/// (they were consumed); RR sets and edges accrue only for sets that
/// reached the pool or the hit counters; count pools and queries accrue
/// only when the count call succeeds.
class RRSamplingEngine final : public SamplingEngine {
 public:
  /// `num_threads` = 0 means hardware concurrency.
  explicit RRSamplingEngine(
      const Graph& graph,
      DiffusionModel model = DiffusionModel::kIndependentCascade,
      uint32_t num_threads = 1,
      SamplingKernel kernel = SamplingKernel::kGeometricJump);
  ~RRSamplingEngine() override;

  RRSamplingEngine(const RRSamplingEngine&) = delete;
  RRSamplingEngine& operator=(const RRSamplingEngine&) = delete;

  Status TryGeneratePool(const BitVector* removed, uint32_t num_alive,
                         uint64_t count, Rng* rng) override;
  Result<uint64_t> TryCountCoverageBatchSeeded(CoverageQueryBatch* batch,
                                               const BitVector* removed,
                                               uint32_t num_alive,
                                               uint64_t theta,
                                               uint64_t seed) override;

  RRCollection& pool() override { return pool_; }
  void ResetPool() override;
  uint64_t total_edges_examined() const override { return edges_examined_; }
  const Graph& graph() const override { return generator_.graph(); }
  DiffusionModel model() const override { return model_; }
  SamplingKernel kernel() const override { return generator_.kernel(); }
  uint32_t num_workers() const override {
    return workers_.empty() ? 1 : static_cast<uint32_t>(workers_.size());
  }
  std::string_view name() const override {
    return workers_.empty() ? "serial" : "parallel";
  }

 private:
  /// Per-worker state; only its owning thread touches it during a job.
  struct Worker {
    std::unique_ptr<RRSetGenerator> generator;
    /// Per-query hit counters of the current batch job (counter shard).
    std::vector<uint64_t> hit_shard;
    uint64_t edges_result = 0;
    /// RR sets this worker actually drew in the current counting job
    /// (its quota, unless a budget gate stopped it early).
    uint64_t sampled_result = 0;
    /// Exception that escaped this worker's job body, if any. Captured by
    /// WorkerLoop so a throwing job degrades to a Status from RunOnPool
    /// instead of std::terminate-ing the process.
    std::exception_ptr error;
    std::vector<NodeId> shard_nodes;
    std::vector<uint32_t> shard_sizes;
  };

  /// Pool fill and count on the calling thread.
  Status GenerateInline(const BitVector* removed, uint32_t num_alive,
                        uint64_t count, Rng* rng);
  Result<uint64_t> CountInline(CoverageQueryBatch* batch,
                               const BitVector* removed, uint32_t num_alive,
                               uint64_t theta, uint64_t seed);
  /// The same two jobs fanned out over the workers.
  Status GenerateOnWorkers(const BitVector* removed, uint32_t num_alive,
                           uint64_t count, uint64_t base_seed);
  Result<uint64_t> CountOnWorkers(CoverageQueryBatch* batch,
                                  const BitVector* removed,
                                  uint32_t num_alive, uint64_t theta,
                                  uint64_t seed);

  /// Runs `body(worker_index)` on every worker and blocks until all
  /// finish. Exactly one job is in flight at a time. Returns the first
  /// (by worker index) captured worker exception translated to a Status —
  /// std::bad_alloc to kResourceExhausted, anything else to kInternal —
  /// after every worker has reached the barrier, so the pool is always
  /// reusable afterwards.
  Status RunOnPool(const std::function<void(uint32_t)>& body);
  void WorkerLoop(uint32_t index);
  /// Worker w's share of `total` sets (remainder to the lowest ids).
  uint64_t Quota(uint64_t total, uint32_t w) const {
    return total / workers_.size() + (w < total % workers_.size() ? 1 : 0);
  }
  /// RNG draws of every generator the engine owns; the difference across
  /// a query is what that query consumed, whichever path ran.
  uint64_t TotalDraws() const;

  /// Folds a finished batch into stats_ and mirrors the same deltas into
  /// the global atpm_obs registry (atpm_rr_sets_generated_total & co).
  void AccrueGeneration(uint64_t sets, uint64_t edges, uint64_t draws);

  DiffusionModel model_;
  /// The calling thread's generator (every query on one thread, the
  /// sub-kMinParallelBatch ones otherwise).
  RRSetGenerator generator_;
  RRCollection pool_;
  /// Inline batch staging in AppendShard layout, reused across calls so
  /// the hot loop never reallocates.
  std::vector<NodeId> shard_nodes_;
  std::vector<uint32_t> shard_sizes_;
  uint64_t edges_examined_ = 0;

  /// Empty on a one-thread engine.
  std::vector<Worker> workers_;
  std::mutex mu_;
  std::condition_variable job_cv_;
  std::condition_variable done_cv_;
  const std::function<void(uint32_t)>* job_ = nullptr;
  uint64_t job_epoch_ = 0;
  uint32_t pending_ = 0;
  bool stopping_ = false;
  /// Declared last: the workers use every member above.
  std::vector<std::thread> threads_;
};

/// Installs `gate` on `engine` for the current scope iff the gate's
/// RunBudget is active, and always clears the engine's gate slot on
/// destruction — so a policy's budget never leaks into the next caller of
/// a shared engine. An inactive budget arms nothing and the engine runs
/// the bit-identical unbudgeted paths.
class ScopedEngineBudget {
 public:
  ScopedEngineBudget(SamplingEngine* engine, BudgetGate* gate)
      : engine_(engine),
        armed_(gate != nullptr && gate->budget().active()) {
    if (armed_) engine_->set_budget(gate);
  }
  ~ScopedEngineBudget() {
    if (armed_) engine_->set_budget(nullptr);
  }

  ScopedEngineBudget(const ScopedEngineBudget&) = delete;
  ScopedEngineBudget& operator=(const ScopedEngineBudget&) = delete;

  /// Whether the gate was installed (i.e. the budget is active).
  bool armed() const { return armed_; }

 private:
  SamplingEngine* engine_;
  bool armed_;
};

/// Builds an RRSamplingEngine for (graph, model) with `options`.
std::unique_ptr<SamplingEngine> CreateSamplingEngine(
    const Graph& graph,
    DiffusionModel model = DiffusionModel::kIndependentCascade,
    const SamplingEngineOptions& options = {});

/// Engine slot embedded by policies: hands out an injected (borrowed)
/// engine when one was set, otherwise lazily builds — and caches across
/// Run() calls, so a multi-threaded engine keeps its workers warm — an
/// owned engine for the requested (graph, model, options). The cache keys
/// on graph identity, so the graph passed to Get must stay alive (and
/// unmoved) for as long as the handle may serve it.
class SamplingEngineHandle {
 public:
  /// Injects an external engine (not owned; pass nullptr to clear). Its
  /// graph/model must match what the policy is run on.
  void Use(SamplingEngine* external) { external_ = external; }

  /// The engine to use for (graph, model, options).
  SamplingEngine* Get(const Graph& graph, DiffusionModel model,
                      const SamplingEngineOptions& options);

 private:
  SamplingEngine* external_ = nullptr;
  std::unique_ptr<SamplingEngine> owned_;
  SamplingEngineOptions owned_options_{};
};

}  // namespace atpm

#endif  // ATPM_RRIS_SAMPLING_ENGINE_H_
