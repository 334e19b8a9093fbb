#ifndef ATPM_PERFBENCH_SPANS_H_
#define ATPM_PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "perfbench/timing_engine.h"

namespace atpm::perfbench {

/// One benchmark-side span: a call into a layer, timed from outside it.
/// `name` and `layer` point at string literals.
struct Span {
  const char* name = "";
  /// Layer the span's self time is charged to ("rris.count_batch", ...).
  const char* layer = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  /// One optional numeric annotation (world index, θ, ...).
  const char* arg_key = nullptr;
  uint64_t arg = 0;
};

/// In-memory span log of the traced run. Disabled, a Scope is one branch;
/// spans are only written out when the benchmark ends. Every span is
/// recorded on the benchmark's main thread, so nesting is interval
/// containment.
class SpanLog {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Appends calls[begin..] as leaf spans of the rris layer.
  void AddEngineCalls(const std::vector<EngineCall>& calls, size_t begin);

  const std::vector<Span>& spans() const { return spans_; }

  /// RAII span; records nothing while the log is disabled.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name, const char* layer,
          const char* arg_key = nullptr, uint64_t arg = 0)
        : log_(log->enabled_ ? log : nullptr) {
      if (log_ == nullptr) return;
      span_.name = name;
      span_.layer = layer;
      span_.arg_key = arg_key;
      span_.arg = arg;
      span_.start_ns = NowNs();
    }
    ~Scope() {
      if (log_ == nullptr) return;
      span_.end_ns = NowNs();
      log_->spans_.push_back(span_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    Span span_;
  };

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
};

/// Self time per layer, in seconds: each span's duration minus the part
/// covered by its direct children, summed over spans of the same layer.
/// Only spans nested inside a span named `root` (inclusive) count.
std::map<std::string, double> SelfSecondsByLayer(
    const std::vector<Span>& spans, const std::string& root);

/// Writes `spans` as Chrome trace_event JSON ("X" complete events, µs),
/// loadable in Perfetto or chrome://tracing.
Status WriteChromeTrace(const std::vector<Span>& spans,
                        const std::string& path);

}  // namespace atpm::perfbench

#endif  // ATPM_PERFBENCH_SPANS_H_
