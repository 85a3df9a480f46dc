// Small helpers shared by useful_bench's files.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace useful::e2e {

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One reported number. `samples` is the count a percentile rests on (0
/// for values that are not percentiles).
struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t samples = 0;
  bool higher_is_better = false;
};
using MetricList = std::vector<Metric>;

/// Kills and reaps every server process useful_bench started, prints
/// `message` to stderr, and exits with status 1 (no result line).
[[noreturn]] void Fail(const std::string& message);

/// The value of `result`, or Fail naming `what`.
template <typename T>
T Check(Result<T> result, const std::string& what) {
  if (!result.ok()) Fail(what + ": " + result.status().ToString());
  return std::move(result).value();
}

inline void Check(const Status& status, const std::string& what) {
  if (!status.ok()) Fail(what + ": " + status.ToString());
}

/// Linear-interpolated percentile (pct in [0, 100]) of `values`; 0 when
/// empty. Sorts a copy.
inline double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = pct / 100.0 * static_cast<double>(values.size() - 1);
  std::size_t lo = static_cast<std::size_t>(rank);
  std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

}  // namespace useful::e2e
