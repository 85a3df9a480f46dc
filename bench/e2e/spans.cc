#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common.h"

namespace useful::e2e {

int SpanLog::Begin(std::uint64_t request, const char* name, int parent) {
  spans_.push_back({request, name, NowNs(), 0, parent});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::End(int handle) { spans_[handle].end_ns = NowNs(); }

int SpanLog::Add(std::uint64_t request, const char* name,
                 std::int64_t start_ns, std::int64_t end_ns, int parent) {
  spans_.push_back({request, name, start_ns, end_ns, parent});
  return static_cast<int>(spans_.size() - 1);
}

std::map<std::string, std::vector<double>> SpanLog::SelfTimesUs() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (auto [start, end] : kids) {
      start = std::max(start, reach);
      end = std::min(end, s.end_ns);
      if (end > start) {
        covered += end - start;
        reach = end;
      }
    }
    out[s.name].push_back(
        static_cast<double>(s.end_ns - s.start_ns - covered) / 1e3);
  }
  return out;
}

bool SpanLog::WriteJson(const std::string& path,
                        const std::string& workload) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) t0 = std::min(t0, s.start_ns);
  std::fprintf(f, "{\"workload\": \"%s\",\n\"self_us\": {", workload.c_str());
  bool first = true;
  for (const auto& [name, values] : SelfTimesUs()) {
    std::fprintf(f, "%s\n  \"%s\": {\"count\": %zu, \"p50\": %.3f, "
                 "\"p99\": %.3f}",
                 first ? "" : ",", name.c_str(), values.size(),
                 Percentile(values, 50), Percentile(values, 99));
    first = false;
  }
  std::fprintf(f, "},\n\"spans\": [");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s\n[%llu, \"%s\", %.3f, %.3f, %d]", i == 0 ? "" : ",",
                 static_cast<unsigned long long>(s.request), s.name,
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - t0) / 1e3, s.parent);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace useful::e2e
