#include "perfbench/spans.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace atpm::perfbench {

void SpanLog::AddEngineCalls(const std::vector<EngineCall>& calls,
                             size_t begin) {
  if (!enabled_) return;
  for (size_t i = begin; i < calls.size(); ++i) {
    const EngineCall& call = calls[i];
    Span span;
    const bool count = call.kind == EngineCall::kCountBatch;
    span.name = count ? "TryCountCoverageBatchSeeded" : "TryGeneratePool";
    span.layer = count ? "rris.count_batch" : "rris.pool_fill";
    span.start_ns = call.start_ns;
    span.end_ns = call.end_ns;
    span.arg_key = "sets";
    span.arg = call.sampled;
    spans_.push_back(span);
  }
}

namespace {

// Parents before children: earlier start first, the longer span first on
// a tie.
std::vector<Span> NestingOrder(const std::vector<Span>& spans) {
  std::vector<Span> sorted = spans;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Span& a, const Span& b) {
                     if (a.start_ns != b.start_ns) {
                       return a.start_ns < b.start_ns;
                     }
                     return a.end_ns > b.end_ns;
                   });
  return sorted;
}

}  // namespace

std::map<std::string, double> SelfSecondsByLayer(
    const std::vector<Span>& spans, const std::string& root) {
  const std::vector<Span> sorted = NestingOrder(spans);
  std::vector<double> self_ns(sorted.size());
  std::vector<bool> in_root(sorted.size());
  std::vector<size_t> stack;
  for (size_t i = 0; i < sorted.size(); ++i) {
    const Span& span = sorted[i];
    while (!stack.empty() && sorted[stack.back()].end_ns <= span.start_ns) {
      stack.pop_back();
    }
    const double dur = static_cast<double>(span.end_ns - span.start_ns);
    self_ns[i] = dur;
    in_root[i] = root == span.name;
    if (!stack.empty()) {
      self_ns[stack.back()] -= dur;
      in_root[i] = in_root[i] || in_root[stack.back()];
    }
    stack.push_back(i);
  }
  std::map<std::string, double> by_layer;
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (in_root[i]) by_layer[sorted[i].layer] += self_ns[i] * 1e-9;
  }
  return by_layer;
}

Status WriteChromeTrace(const std::vector<Span>& spans,
                        const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return Status::IOError("cannot open " + path);
  const std::vector<Span> sorted = NestingOrder(spans);
  const uint64_t origin = sorted.empty() ? 0 : sorted.front().start_ns;
  std::fprintf(file, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < sorted.size(); ++i) {
    const Span& span = sorted[i];
    std::fprintf(file,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f",
                 span.name, span.layer,
                 static_cast<double>(span.start_ns - origin) * 1e-3,
                 static_cast<double>(span.end_ns - span.start_ns) * 1e-3);
    if (span.arg_key != nullptr) {
      std::fprintf(file, ", \"args\": {\"%s\": %llu}", span.arg_key,
                   static_cast<unsigned long long>(span.arg));
    }
    std::fprintf(file, "}%s\n", i + 1 < sorted.size() ? "," : "");
  }
  std::fprintf(file, "]}\n");
  if (std::fclose(file) != 0) return Status::IOError("cannot write " + path);
  return Status::OK();
}

}  // namespace atpm::perfbench
