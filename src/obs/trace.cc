#include "obs/trace.h"

#include <algorithm>

#include "util/clock.h"

namespace useful::obs {

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kDispatch:
      return "dispatch";
    case Stage::kParse:
      return "parse";
    case Stage::kCache:
      return "cache";
    case Stage::kResolve:
      return "resolve";
    case Stage::kEstimate:
      return "estimate";
    case Stage::kRank:
      return "rank";
    case Stage::kPolicy:
      return "policy";
    case Stage::kSerialize:
      return "serialize";
    case Stage::kWrite:
      return "write";
    case Stage::kFanout:
      return "fanout";
    case Stage::kCount_:
      break;
  }
  return "unknown";
}

Trace::Span::Span(Trace* trace, Stage stage)
    : trace_(trace != nullptr && trace->sampled() ? trace : nullptr),
      stage_(stage) {
  if (trace_ != nullptr) start_ = std::chrono::steady_clock::now();
}

Trace::Span::~Span() {
  if (trace_ == nullptr) return;
  trace_->AddStageMicros(stage_, util::MicrosSince(start_));
}

void Trace::AddStageMicros(Stage stage, std::uint64_t micros) {
  if (!sampled_) return;
  stage_micros_[static_cast<std::size_t>(stage)] += micros;
  touched_ |= 1u << static_cast<unsigned>(stage);
}

namespace {
/// Control bytes (and DEL) become '_': the stored text must never carry a
/// framing byte back onto the wire or a raw terminal escape into a log.
char Normalize(char c) {
  unsigned char u = static_cast<unsigned char>(c);
  return (u < 0x20 || u == 0x7f) ? '_' : c;
}
}  // namespace

void Trace::SetQuery(std::string_view raw) {
  if (!sampled_) return;
  std::size_t n = std::min(raw.size(), kMaxQueryBytes);
  for (std::size_t i = 0; i < n; ++i) query_[i] = Normalize(raw[i]);
  query_len_ = static_cast<std::uint8_t>(n);
}

void Trace::SetEstimator(std::string_view name) {
  if (!sampled_) return;
  std::size_t n = std::min(name.size(), kMaxEstimatorBytes);
  for (std::size_t i = 0; i < n; ++i) estimator_[i] = Normalize(name[i]);
  estimator_len_ = static_cast<std::uint8_t>(n);
}

}  // namespace useful::obs
