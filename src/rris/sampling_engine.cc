#include "rris/sampling_engine.h"

#include <algorithm>
#include <new>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace atpm {

namespace {

/// Global-registry instruments shared by every engine. Registered once on
/// first use; every hot-path touch is a relaxed add (or a single relaxed
/// load when metrics are disabled).
struct EngineMetrics {
  obs::Counter* rr_sets;
  obs::Counter* edges;
  obs::Counter* draws;
  obs::Counter* count_pools;
  obs::Counter* coverage_queries;
  obs::Histogram* pool_fill_seconds;
  obs::Histogram* count_batch_seconds;
  obs::Histogram* batch_sets;

  static const EngineMetrics& Get() {
    static const EngineMetrics* const metrics = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      auto* m = new EngineMetrics();
      m->rr_sets = reg.RegisterCounter(
          "atpm_rr_sets_generated_total",
          "RR sets sampled across all engines (pool + counting paths)");
      m->edges = reg.RegisterCounter(
          "atpm_rr_edges_examined_total",
          "Edges examined while sampling RR sets (the IMM/EPT cost measure)");
      m->draws = reg.RegisterCounter(
          "atpm_rng_draws_total",
          "64-bit RNG draws consumed by RR-set generators");
      m->count_pools = reg.RegisterCounter(
          "atpm_count_pools_total",
          "Throwaway counting pools sampled for coverage-query batches");
      m->coverage_queries = reg.RegisterCounter(
          "atpm_coverage_queries_total",
          "Coverage queries answered by counting pools");
      m->pool_fill_seconds = reg.RegisterHistogram(
          "atpm_pool_fill_seconds", "Latency of stored-pool generation calls",
          obs::ExponentialBuckets(1e-6, 4.0, 14));
      m->count_batch_seconds = reg.RegisterHistogram(
          "atpm_count_batch_seconds",
          "Latency of coverage-counting batch calls",
          obs::ExponentialBuckets(1e-6, 4.0, 14));
      m->batch_sets = reg.RegisterHistogram(
          "atpm_rr_batch_sets", "RR sets drawn per engine batch",
          obs::ExponentialBuckets(1.0, 4.0, 14));
      return m;
    }();
    return *metrics;
  }
};

/// Translates an exception that escaped a sampling job into the Status the
/// engine API surfaces: allocation exhaustion is a degradable condition
/// (callers keep what they have), everything else is an internal fault.
Status ExceptionToStatus(const char* where, std::exception_ptr error) {
  try {
    std::rethrow_exception(std::move(error));
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted(std::string(where) +
                                     ": allocation failed");
  } catch (const std::exception& e) {
    return Status::Internal(std::string(where) + ": " + e.what());
  } catch (...) {
    return Status::Internal(std::string(where) + ": unknown exception");
  }
}

}  // namespace

RRSamplingEngine::RRSamplingEngine(const Graph& graph, DiffusionModel model,
                                   uint32_t num_threads,
                                   SamplingKernel kernel)
    : model_(model),
      generator_(graph, model, kernel),
      pool_(graph.num_nodes()) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  if (num_threads == 1) return;
  workers_.resize(num_threads);
  for (Worker& worker : workers_) {
    worker.generator = std::make_unique<RRSetGenerator>(graph, model, kernel);
  }
  threads_.reserve(num_threads);
  for (uint32_t w = 0; w < num_threads; ++w) {
    threads_.emplace_back([this, w]() { WorkerLoop(w); });
  }
}

RRSamplingEngine::~RRSamplingEngine() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  job_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void RRSamplingEngine::AccrueGeneration(uint64_t sets, uint64_t edges,
                                        uint64_t draws) {
  stats_.rr_sets_generated += sets;
  stats_.edges_examined += edges;
  stats_.rng_draws += draws;
  const EngineMetrics& metrics = EngineMetrics::Get();
  metrics.rr_sets->Increment(sets);
  metrics.edges->Increment(edges);
  metrics.draws->Increment(draws);
  if (sets > 0) metrics.batch_sets->Observe(static_cast<double>(sets));
}

uint64_t RRSamplingEngine::TotalDraws() const {
  uint64_t draws = generator_.rng_draws();
  for (const Worker& worker : workers_) draws += worker.generator->rng_draws();
  return draws;
}

Status RRSamplingEngine::TryGeneratePool(const BitVector* removed,
                                         uint32_t num_alive, uint64_t count,
                                         Rng* rng) {
  obs::TraceSpan span("pool_fill");
  span.AnnotateU64("count", count);
  obs::ScopedLatency latency(EngineMetrics::Get().pool_fill_seconds);
  // One thread samples straight from the caller's stream (the reference
  // path). More threads take one draw from it, independent of the worker
  // count, and derive every stream of the query from that base seed.
  if (workers_.empty()) return GenerateInline(removed, num_alive, count, rng);
  const uint64_t base_seed = rng->Next();
  if (count >= kMinParallelBatch) {
    return GenerateOnWorkers(removed, num_alive, count, base_seed);
  }
  Rng local(base_seed);
  return GenerateInline(removed, num_alive, count, &local);
}

Result<uint64_t> RRSamplingEngine::TryCountCoverageBatchSeeded(
    CoverageQueryBatch* batch, const BitVector* removed, uint32_t num_alive,
    uint64_t theta, uint64_t seed) {
  if (batch->empty()) return uint64_t{0};
  obs::TraceSpan span("count_batch");
  span.AnnotateU64("theta", theta);
  span.AnnotateU64("queries", batch->size());
  obs::ScopedLatency latency(EngineMetrics::Get().count_batch_seconds);
  Result<uint64_t> sampled =
      workers_.empty() || theta < kMinParallelBatch
          ? CountInline(batch, removed, num_alive, theta, seed)
          : CountOnWorkers(batch, removed, num_alive, theta, seed);
  if (sampled.ok()) {
    stats_.count_pools += 1;
    stats_.coverage_queries += batch->size();
    EngineMetrics::Get().count_pools->Increment(1);
    EngineMetrics::Get().coverage_queries->Increment(batch->size());
  }
  return sampled;
}

Status RRSamplingEngine::GenerateInline(const BitVector* removed,
                                        uint32_t num_alive, uint64_t count,
                                        Rng* rng) {
  ATPM_FAILPOINT("engine.serial_batch");
  // Batched block generation straight into the shard layout: one splice
  // into the pool CSR instead of a staging copy per set, and one shared
  // alive-list build per block. Bit-identical sets to the historical
  // Generate + AddSet loop on the same stream.
  shard_nodes_.clear();
  shard_sizes_.clear();
  const uint64_t draws_before = TotalDraws();
  Status status = Status::OK();
  uint64_t edges = 0;
  try {
    ATPM_FAILPOINT_MAYBE_THROW("alloc.pool_reserve");
    edges = generator_.GenerateBatch(removed, num_alive, count, rng,
                                     &shard_nodes_, &shard_sizes_, budget_);
    ATPM_FAILPOINT_MAYBE_THROW("alloc.pool_append");
    pool_.AppendShard(shard_nodes_, shard_sizes_);
  } catch (...) {
    // The pool is untouched, so nothing but the draws accrues.
    status = ExceptionToStatus("pool generation", std::current_exception());
    shard_sizes_.clear();
    edges = 0;
  }
  edges_examined_ += edges;
  AccrueGeneration(shard_sizes_.size(), edges, TotalDraws() - draws_before);
  return status;
}

Result<uint64_t> RRSamplingEngine::CountInline(CoverageQueryBatch* batch,
                                               const BitVector* removed,
                                               uint32_t num_alive,
                                               uint64_t theta, uint64_t seed) {
  ATPM_FAILPOINT("engine.serial_batch");
  Rng rng(seed);
  const uint64_t draws_before = TotalDraws();
  uint64_t sampled = theta;
  uint64_t edges = 0;
  try {
    // The throwaway counting pool is an allocation consumer too: its
    // scratch growth is covered by the same alloc failpoint so injected
    // bad_alloc exercises the policies' absorb-and-degrade path.
    ATPM_FAILPOINT_MAYBE_THROW("alloc.pool_reserve");
    edges = generator_.CountCoveringBatch(removed, num_alive, theta,
                                          batch->queries(), batch->hit_data(),
                                          &rng, budget_, &sampled);
  } catch (...) {
    AccrueGeneration(0, 0, TotalDraws() - draws_before);
    return ExceptionToStatus("coverage counting", std::current_exception());
  }
  AccrueGeneration(sampled, edges, TotalDraws() - draws_before);
  return sampled;
}

void RRSamplingEngine::WorkerLoop(uint32_t index) {
  uint64_t seen_epoch = 0;
  for (;;) {
    const std::function<void(uint32_t)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      job_cv_.wait(lock, [&]() {
        return stopping_ || (job_ != nullptr && job_epoch_ != seen_epoch);
      });
      if (stopping_) return;
      seen_epoch = job_epoch_;
      job = job_;
    }
    // Containment: nothing above this frame catches, so an escaping
    // exception would std::terminate. Capture it so RunOnPool can
    // translate it into a Status after the barrier; the worker stays alive
    // and the pool stays usable.
    try {
      (*job)(index);
    } catch (...) {
      workers_[index].error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--pending_ == 0) done_cv_.notify_all();
    }
  }
}

Status RRSamplingEngine::RunOnPool(
    const std::function<void(uint32_t)>& body) {
  for (Worker& worker : workers_) worker.error = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &body;
    ++job_epoch_;
    pending_ = static_cast<uint32_t>(workers_.size());
  }
  job_cv_.notify_all();
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&]() { return pending_ == 0; });
    job_ = nullptr;
  }
  for (Worker& worker : workers_) {
    if (worker.error != nullptr) {
      // First failed worker in index order: deterministic for a fixed
      // fault schedule even when several workers fail at once.
      return ExceptionToStatus("sampling worker", std::move(worker.error));
    }
  }
  return Status::OK();
}

Status RRSamplingEngine::GenerateOnWorkers(const BitVector* removed,
                                           uint32_t num_alive, uint64_t count,
                                           uint64_t base_seed) {
  const uint64_t draws_before = TotalDraws();
  Status status = RunOnPool([&](uint32_t w) {
    Worker& worker = workers_[w];
    worker.shard_nodes.clear();
    worker.shard_sizes.clear();
    Rng local(SplitSeed(base_seed, w));
    ATPM_FAILPOINT_MAYBE_THROW("engine.parallel_worker");
    ATPM_FAILPOINT_MAYBE_THROW("alloc.pool_reserve");
    worker.edges_result =
        worker.generator->GenerateBatch(removed, num_alive, Quota(count, w),
                                        &local, &worker.shard_nodes,
                                        &worker.shard_sizes, budget_);
  });
  // Merge in worker order: deterministic layout, and the EPT accounting
  // (total edges examined) aggregates exactly as in a one-thread run.
  // Shards merged before a failed append stay in the pool (they are whole
  // RR sets) and are exactly what the stats count.
  uint64_t edges = 0;
  uint64_t generated = 0;
  for (Worker& worker : workers_) {
    if (!status.ok()) break;
    try {
      ATPM_FAILPOINT_MAYBE_THROW("alloc.pool_append");
      pool_.AppendShard(worker.shard_nodes, worker.shard_sizes);
      edges += worker.edges_result;
      generated += worker.shard_sizes.size();
    } catch (...) {
      status = ExceptionToStatus("pool shard merge", std::current_exception());
    }
  }
  edges_examined_ += edges;
  AccrueGeneration(generated, edges, TotalDraws() - draws_before);
  return status;
}

Result<uint64_t> RRSamplingEngine::CountOnWorkers(CoverageQueryBatch* batch,
                                                  const BitVector* removed,
                                                  uint32_t num_alive,
                                                  uint64_t theta,
                                                  uint64_t seed) {
  const size_t num_queries = batch->size();
  const uint64_t draws_before = TotalDraws();
  const Status pool_status = RunOnPool([&](uint32_t w) {
    Worker& worker = workers_[w];
    // Size-only adjustment: CountCoveringBatch zeroes the counters itself,
    // so re-zeroing here would touch every entry twice.
    worker.hit_shard.resize(num_queries);
    worker.sampled_result = 0;
    Rng local(SplitSeed(seed, w));
    ATPM_FAILPOINT_MAYBE_THROW("engine.parallel_worker");
    worker.edges_result = worker.generator->CountCoveringBatch(
        removed, num_alive, Quota(theta, w), batch->queries(),
        worker.hit_shard.data(), &local, budget_, &worker.sampled_result);
  });
  if (!pool_status.ok()) {
    AccrueGeneration(0, 0, TotalDraws() - draws_before);
    return pool_status;
  }

  // Deterministic merge: per-worker counter shards summed in worker order.
  // Under a tripped budget each worker's hits are exact over its own
  // sampled prefix, so the summed hits are exact over the summed sample
  // count — the honest θ the caller scales by.
  uint64_t sampled = 0;
  uint64_t edges = 0;
  batch->ZeroHits();
  uint64_t* hits = batch->hit_data();
  for (const Worker& worker : workers_) {
    for (size_t q = 0; q < num_queries; ++q) hits[q] += worker.hit_shard[q];
    edges += worker.edges_result;
    sampled += worker.sampled_result;
  }
  AccrueGeneration(sampled, edges, TotalDraws() - draws_before);
  return sampled;
}

void RRSamplingEngine::ResetPool() {
  pool_.Clear();
  edges_examined_ = 0;
}

std::unique_ptr<SamplingEngine> CreateSamplingEngine(
    const Graph& graph, DiffusionModel model,
    const SamplingEngineOptions& options) {
  return std::make_unique<RRSamplingEngine>(graph, model, options.num_threads,
                                            options.kernel);
}

SamplingEngine* SamplingEngineHandle::Get(const Graph& graph,
                                          DiffusionModel model,
                                          const SamplingEngineOptions& options) {
  if (external_ != nullptr) return external_;
  // Reuse is keyed by graph identity (address + shape): the caller owns the
  // graph's lifetime and must not recycle it while the handle is live. The
  // shape check guards the likeliest ABA accident — a new, differently
  // sized graph allocated at the old address — which would otherwise hand
  // out generators with undersized visited markers.
  const bool reusable =
      owned_ != nullptr && &owned_->graph() == &graph &&
      owned_->graph().num_nodes() == graph.num_nodes() &&
      owned_->graph().num_edges() == graph.num_edges() &&
      owned_->model() == model &&
      owned_options_.num_threads == options.num_threads &&
      owned_options_.kernel == options.kernel;
  if (!reusable) {
    owned_ = CreateSamplingEngine(graph, model, options);
    owned_options_ = options;
  }
  return owned_.get();
}

}  // namespace atpm
