#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the traced run. A span is one call into one
// layer: its name, start and end, the span that caused it and the request
// it belongs to, plus up to four work counters the layer reported for that
// call (nodes visited, rows scanned, ...). Spans stay in memory until the
// run ends; the per-layer metrics are derived from them.

#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  uint64_t request = 0;
  int64_t parent = -1;  ///< Index of the causing span, -1 for a root.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::array<double, 4> counts{};

  double micros() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

int64_t NowNs();

class Tracer {
 public:
  /// Records a finished span; returns its index (a parent for later spans).
  int64_t Record(const Span& span);

  /// Every span of `name`, in recording order.
  std::vector<Span> Named(const std::string& name) const;

  /// Writes one JSON object per span and line.
  bool WriteJsonl(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times one layer call: construct before the call, `Finish` after it.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request,
             int64_t parent = -1)
      : tracer_(tracer) {
    span_.name = name;
    span_.request = request;
    span_.parent = parent;
    span_.start_ns = NowNs();
  }

  /// Ends the span with the layer's work counters; returns its index.
  int64_t Finish(std::array<double, 4> counts = {}) {
    span_.end_ns = NowNs();
    span_.counts = counts;
    return tracer_->Record(span_);
  }

 private:
  Tracer* tracer_;
  Span span_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
