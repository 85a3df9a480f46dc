// Strict parsing of numeric command-line flags and tokens. A
// strtoul-and-cast reads "70000" for a u16 port as 4464, "" as 0 and "8x"
// as 8, and a bare strtod reads "0.2x" as 0.2; ParseFlag and
// ParseDoubleFlag reject them all.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string_view>

namespace useful::util {

/// `text` as a base-10 integer in [0, max]: nullopt when it is empty,
/// holds anything but the digits 0-9 (no sign, no spaces), or exceeds
/// `max`.
std::optional<std::uint64_t> ParseUnsigned(std::string_view text,
                                           std::uint64_t max);

/// `text` as a finite double in strtod's syntax: nullopt when it is
/// empty, starts with white space, holds anything after the number, or
/// reads as an infinity or NaN (a decimal out of double's range reads as
/// an infinity).
std::optional<double> ParseDouble(std::string_view text);

/// The value of floating-point flag `flag` given as `text`. Anything
/// ParseDouble rejects prints a message naming the flag to stderr and
/// exits the process with status 2.
double ParseDoubleFlag(std::string_view flag, std::string_view text);

/// The value of numeric flag `flag` given as `text`, in [0, T's maximum].
/// Anything ParseUnsigned rejects prints a message naming the flag to
/// stderr and exits the process with status 2.
template <typename T>
T ParseFlag(std::string_view flag, std::string_view text) {
  constexpr auto kMax =
      static_cast<std::uint64_t>(std::numeric_limits<T>::max());
  const std::optional<std::uint64_t> value = ParseUnsigned(text, kMax);
  if (!value.has_value()) {
    std::fprintf(stderr, "%.*s: expected an integer in [0, %llu], got '%.*s'\n",
                 static_cast<int>(flag.size()), flag.data(),
                 static_cast<unsigned long long>(kMax),
                 static_cast<int>(text.size()), text.data());
    std::exit(2);
  }
  return static_cast<T>(*value);
}

}  // namespace useful::util
