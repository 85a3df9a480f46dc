// Elapsed-time helper for the serving path's latency recordings.
#pragma once

#include <chrono>
#include <cstdint>

namespace useful::util {

/// Whole microseconds from `start` to `now`, clamped at 0.
inline std::uint64_t MicrosSince(
    std::chrono::steady_clock::time_point start,
    std::chrono::steady_clock::time_point now =
        std::chrono::steady_clock::now()) {
  const auto micros =
      std::chrono::duration_cast<std::chrono::microseconds>(now - start)
          .count();
  return micros < 0 ? 0 : static_cast<std::uint64_t>(micros);
}

}  // namespace useful::util
