// In-memory span log for the traced run. A span is (request id, name,
// start, end, parent); spans of one request share the id. Spans are
// appended while the run measures and written out once at the end.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace useful::e2e {

class SpanLog {
 public:
  /// A fresh request id.
  std::uint64_t NewRequest() { return next_request_++; }

  /// Opens a span now; returns its handle (also its parent id for
  /// children). `name` must be a string literal.
  int Begin(std::uint64_t request, const char* name, int parent = -1);
  /// Closes span `handle` now.
  void End(int handle);
  /// Records an already-timed span (steady-clock nanoseconds).
  int Add(std::uint64_t request, const char* name, std::int64_t start_ns,
          std::int64_t end_ns, int parent = -1);
  /// Duration of a closed span.
  std::int64_t DurationNs(int handle) const {
    return spans_[handle].end_ns - spans_[handle].start_ns;
  }

  /// Per span name, every span's self time in µs: its duration minus the
  /// part of it its children cover.
  std::map<std::string, std::vector<double>> SelfTimesUs() const;

  /// Writes {"spans": [[request, name, start_us, end_us, parent], ...],
  /// "self_us": {name: {count, p50, p99}}} with times relative to the
  /// first span. Returns false on an IO error.
  bool WriteJson(const std::string& path, const std::string& workload) const;

 private:
  struct Span {
    std::uint64_t request;
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
  };
  std::vector<Span> spans_;
  std::uint64_t next_request_ = 0;
};

}  // namespace useful::e2e
