#ifndef ATPM_PERFBENCH_TIMING_ENGINE_H_
#define ATPM_PERFBENCH_TIMING_ENGINE_H_

#include <chrono>
#include <cstdint>
#include <string_view>
#include <vector>

#include "rris/sampling_engine.h"

namespace atpm::perfbench {

/// Monotonic nanoseconds; every benchmark timestamp uses this clock so
/// engine calls and benchmark spans share one timeline.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One call into the sampling layer, as seen from outside it.
struct EngineCall {
  enum Kind : uint8_t { kCountBatch, kPoolFill };
  Kind kind = kCountBatch;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  /// First query's node for a count call (the candidate under decision);
  /// 0 for a pool fill.
  NodeId node = 0;
  /// Sets actually drawn (0 when the call failed).
  uint64_t sampled = 0;
};

/// Timing decorator over a SamplingEngine, in the shape of
/// bench_util/SharedRoundPoolEngine: it forwards every operation to the
/// wrapped engine unchanged (same arguments, same seeds, same results) and
/// appends one EngineCall per TryGeneratePool / TryCountCoverageBatchSeeded
/// to a call log. Policies take it through AdaptivePolicy::set_engine or
/// the engine overloads of RunHntp / RunNsg / RunNdg.
class TimingEngine final : public SamplingEngine {
 public:
  /// Wraps `inner` and appends to `calls`; neither is owned, both must
  /// outlive the wrapper. Several wrappers may share one log.
  TimingEngine(SamplingEngine* inner, std::vector<EngineCall>* calls)
      : inner_(inner), calls_(calls) {}

  Status TryGeneratePool(const BitVector* removed, uint32_t num_alive,
                         uint64_t count, Rng* rng) override {
    EngineCall call;
    call.kind = EngineCall::kPoolFill;
    const uint64_t before = inner_->pool().num_sets();
    call.start_ns = NowNs();
    const Status status = inner_->TryGeneratePool(removed, num_alive, count,
                                                  rng);
    call.end_ns = NowNs();
    call.sampled = inner_->pool().num_sets() - before;
    calls_->push_back(call);
    return status;
  }

  Result<uint64_t> TryCountCoverageBatchSeeded(CoverageQueryBatch* batch,
                                               const BitVector* removed,
                                               uint32_t num_alive,
                                               uint64_t theta,
                                               uint64_t seed) override {
    EngineCall call;
    call.kind = EngineCall::kCountBatch;
    call.node = batch->empty() ? 0 : batch->queries()[0].node;
    call.start_ns = NowNs();
    Result<uint64_t> sampled = inner_->TryCountCoverageBatchSeeded(
        batch, removed, num_alive, theta, seed);
    call.end_ns = NowNs();
    call.sampled = sampled.ok() ? sampled.value() : 0;
    calls_->push_back(call);
    return sampled;
  }

  /// Budgets apply to the engine that actually samples.
  void set_budget(BudgetGate* budget) override {
    SamplingEngine::set_budget(budget);
    inner_->set_budget(budget);
  }

  RRCollection& pool() override { return inner_->pool(); }
  void ResetPool() override { inner_->ResetPool(); }
  uint64_t total_edges_examined() const override {
    return inner_->total_edges_examined();
  }
  const Graph& graph() const override { return inner_->graph(); }
  DiffusionModel model() const override { return inner_->model(); }
  SamplingKernel kernel() const override { return inner_->kernel(); }
  uint32_t num_workers() const override { return inner_->num_workers(); }
  std::string_view name() const override { return "timing"; }

 private:
  SamplingEngine* inner_;
  std::vector<EngineCall>* calls_;
};

}  // namespace atpm::perfbench

#endif  // ATPM_PERFBENCH_TIMING_ENGINE_H_
