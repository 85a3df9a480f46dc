#include "util/flags.h"

namespace useful::util {

std::optional<std::uint64_t> ParseUnsigned(std::string_view text,
                                           std::uint64_t max) {
  if (text.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (digit > max || value > (max - digit) / 10) return std::nullopt;
    value = value * 10 + digit;
  }
  return value;
}

}  // namespace useful::util
