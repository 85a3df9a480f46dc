#include "util/flags.h"

#include <cctype>
#include <cmath>
#include <string>

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

std::optional<double> ParseDouble(std::string_view text) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    return std::nullopt;
  }
  const std::string copy(text);  // strtod needs the terminating NUL
  char* end = nullptr;
  const double value = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size() || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

double ParseDoubleFlag(std::string_view flag, std::string_view text) {
  const std::optional<double> value = ParseDouble(text);
  if (!value.has_value()) {
    std::fprintf(stderr, "%.*s: expected a finite number, got '%.*s'\n",
                 static_cast<int>(flag.size()), flag.data(),
                 static_cast<int>(text.size()), text.data());
    std::exit(2);
  }
  return *value;
}

}  // namespace useful::util
