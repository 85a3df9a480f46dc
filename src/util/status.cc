#include "util/status.h"

#include <iterator>

namespace useful {

namespace {

/// Every code's name, indexed by Status::Code: ToString prints them and
/// FromString reads them back.
constexpr const char* kCodeNames[] = {
    "OK",         "InvalidArgument",    "NotFound",
    "OutOfRange", "FailedPrecondition", "Corruption",
    "IOError",    "Internal",           "DeadlineExceeded",
    "Unavailable",
};
static_assert(std::size(kCodeNames) ==
              static_cast<std::size_t>(Status::Code::kUnavailable) + 1);

}  // namespace

std::string Status::ToString() const {
  std::string out = kCodeNames[static_cast<std::size_t>(code_)];
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

std::optional<Status> Status::FromString(std::string_view text) {
  const std::size_t colon = text.find(':');
  const std::string_view name = text.substr(0, colon);
  for (std::size_t c = 1; c < std::size(kCodeNames); ++c) {
    if (name != kCodeNames[c]) continue;
    const auto code = static_cast<Code>(c);
    if (colon == std::string_view::npos) return Status(code, "");
    if (text.substr(colon, 2) != ": ") return std::nullopt;
    return Status(code, std::string(text.substr(colon + 2)));
  }
  return std::nullopt;
}

}  // namespace useful
