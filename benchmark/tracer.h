// In-benchmark span tracer for flatbench's per-layer run.
//
// Spans are recorded from the benchmark's own code, around the public calls
// into each layer; the library itself is not instrumented. Each thread that
// records spans owns one Tracer (no locking on the hot path). Spans stay in
// memory until the run ends, then are summarised (total and self time per
// span name) and optionally written as Chrome trace-event JSON, which
// Perfetto (ui.perfetto.dev) and chrome://tracing open directly.
#ifndef FLATBENCH_TRACER_H_
#define FLATBENCH_TRACER_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace flatbench {

/// Nanoseconds on the steady clock since the first call in this process.
inline int64_t NowNs() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

class Tracer {
 public:
  struct Span {
    const char* name = nullptr;  // static string
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;  // index into spans(), -1 for a root span
    uint64_t op = 0;      // the benchmark op the span belongs to
  };

  explicit Tracer(int tid) : tid_(tid) {}

  /// Opens a span as a child of the innermost open span; returns its index.
  int32_t Begin(const char* name, uint64_t op) {
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.op = op;
    const int32_t index = static_cast<int32_t>(spans_.size());
    spans_.push_back(span);
    open_.push_back(index);
    spans_[index].start_ns = NowNs();
    return index;
  }

  /// Closes span `index`, which must be the innermost open span.
  void End(int32_t index) {
    spans_[index].end_ns = NowNs();
    open_.pop_back();
  }

  int tid() const { return tid_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int tid_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t op)
      : tracer_(tracer), index_(tracer ? tracer->Begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

/// Time per span name across tracers. Self time is a span's duration minus
/// the part its direct children cover (children never overlap their parent
/// or each other: one tracer records one thread).
struct LayerTime {
  uint64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
};

inline std::map<std::string, LayerTime> Summarize(
    const std::vector<const Tracer*>& tracers) {
  std::map<std::string, LayerTime> out;
  for (const Tracer* tracer : tracers) {
    const std::vector<Tracer::Span>& spans = tracer->spans();
    std::vector<double> child_ns(spans.size(), 0.0);
    for (const Tracer::Span& span : spans) {
      if (span.parent >= 0) {
        child_ns[span.parent] += static_cast<double>(span.end_ns - span.start_ns);
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const double duration =
          static_cast<double>(spans[i].end_ns - spans[i].start_ns);
      LayerTime& layer = out[spans[i].name];
      ++layer.count;
      layer.total_ns += duration;
      layer.self_ns += duration - child_ns[i];
    }
  }
  return out;
}

/// Writes the spans as Chrome trace-event JSON ("X" complete events, times
/// in microseconds). At most `max_events` spans are written, in recording
/// order per tracer; returns the number written, or -1 if the file could
/// not be written.
inline int64_t WriteChromeTrace(const std::string& path,
                                const std::vector<const Tracer*>& tracers,
                                size_t max_events) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return -1;
  std::fprintf(out, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  size_t written = 0;
  for (const Tracer* tracer : tracers) {
    const std::vector<Tracer::Span>& spans = tracer->spans();
    for (size_t i = 0; i < spans.size() && written < max_events; ++i) {
      const Tracer::Span& span = spans[i];
      std::fprintf(out,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"op\": %llu, \"span\": %zu, \"parent\": %d}}",
                   written == 0 ? "" : ",\n", span.name, tracer->tid(),
                   static_cast<double>(span.start_ns) / 1e3,
                   static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                   static_cast<unsigned long long>(span.op), i, span.parent);
      ++written;
    }
  }
  std::fprintf(out, "\n]}\n");
  const bool ok = std::fclose(out) == 0;
  return ok ? static_cast<int64_t>(written) : -1;
}

}  // namespace flatbench

#endif  // FLATBENCH_TRACER_H_
