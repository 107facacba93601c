#pragma once

// In-memory span recorder for the benchmark's traced run. Spans are taken
// around every call the benchmark makes into a layer; timings the engine
// already returns (PlanTrace passes, queue_ms, ExecOutcome::ms, morsel
// pipelines) are attached as child spans. Nothing is written until Write,
// which emits Chrome trace-event JSON (chrome://tracing, Perfetto).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Tracer {
 public:
  /// Spans beyond this many are dropped (and counted) so a long traced run
  /// cannot exhaust memory.
  static constexpr size_t kMaxSpans = 400000;

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Records [start, start + dur_ms] as a span of request `op` (0 = set-up
  /// or probes) on lane `tid`; returns its id for children (-1 if dropped
  /// or disabled). `parent` < 0 makes it a root span.
  int64_t Add(const char* name, Clock::time_point start, double dur_ms,
              uint64_t op, int tid, int64_t parent = -1) {
    if (!enabled_) return -1;
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      return -1;
    }
    const double ts_us =
        std::chrono::duration<double, std::micro>(start - origin_).count();
    spans_.push_back({name, ts_us, dur_ms * 1000.0, op, tid, parent});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  int64_t Add(const char* name, Clock::time_point start,
              Clock::time_point end, uint64_t op, int tid,
              int64_t parent = -1) {
    return Add(name, start,
               std::chrono::duration<double, std::milli>(end - start).count(),
               op, tid, parent);
  }

  /// Writes every span as a Chrome "complete" (ph X) event. Returns false
  /// if the file could not be written.
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":%llu},"
                 "\"traceEvents\":[",
                 static_cast<unsigned long long>(dropped_));
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                   "\"span\":%zu,\"parent\":%lld}}",
                   i ? "," : "", s.name.c_str(), s.tid, s.ts_us, s.dur_us,
                   static_cast<unsigned long long>(s.op), i,
                   static_cast<long long>(s.parent));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

  size_t size() const { return spans_.size(); }

 private:
  struct Span {
    std::string name;
    double ts_us;
    double dur_us;
    uint64_t op;
    int tid;
    int64_t parent;
  };

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

}  // namespace perfbench
