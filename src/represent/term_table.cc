#include "represent/term_table.h"

#include <bit>

#include "represent/serialize.h"

namespace useful::represent {

TermTable::TermTable(std::string engine_name, std::size_t num_docs,
                     RepresentativeKind kind, bool stale_max,
                     std::size_t max_terms, std::size_t max_term_bytes)
    : engine_name_(std::move(engine_name)),
      num_docs_(num_docs),
      kind_(kind),
      stale_max_(stale_max),
      slots_(std::bit_ceil(2 * max_terms + 2), kEmpty) {
  blob_.reserve(max_term_bytes);
  offsets_.reserve(max_terms + 1);
  offsets_.push_back(0);
  stats_.reserve(max_terms);
}

bool TermTable::Put(std::string_view term, const TermStats& stats) {
  std::uint32_t& slot = slots_[SlotOf(term)];
  if (slot != kEmpty) {
    stats_[slot] = stats;
    return true;
  }
  if (term.size() >= kEmpty - blob_.size()) return false;
  slot = static_cast<std::uint32_t>(stats_.size());
  blob_.append(term);
  offsets_.push_back(static_cast<std::uint32_t>(blob_.size()));
  stats_.push_back(stats);
  return true;
}

Result<TermTable> TermTable::Parse(std::string_view bytes) {
  Result<Urp1Header> header = ParseUrp1Header(&bytes);
  if (!header.ok()) return header.status();
  const Urp1Header& h = header.value();
  TermTable table(std::string(h.engine_name),
                  static_cast<std::size_t>(h.num_docs), h.kind, h.stale_max,
                  static_cast<std::size_t>(h.num_terms),
                  static_cast<std::size_t>(h.max_term_bytes));
  for (std::uint64_t i = 0; i < h.num_terms; ++i) {
    std::string_view term;
    TermStats ts;
    USEFUL_RETURN_IF_ERROR(ParseUrp1Term(&bytes, &term, &ts));
    if (!table.Put(term, ts)) {
      return Status::Corruption("term bytes exceed 4 GiB");
    }
  }
  return table;
}

Result<TermTable> TermTable::Load(const std::string& path) {
  Result<std::string> bytes = ReadFileBytes(path);
  if (!bytes.ok()) return bytes.status();
  return Parse(bytes.value());
}

Result<TermTable> TermTable::Freeze(const Representative& rep) {
  std::size_t term_bytes = 0;
  for (const auto& [term, ts] : rep.stats()) term_bytes += term.size();
  TermTable table(rep.engine_name(), rep.num_docs(), rep.kind(),
                  rep.stale_max(), rep.num_terms(), term_bytes);
  for (const auto& [term, ts] : rep.stats()) {
    if (!table.Put(term, ts)) {
      return Status::InvalidArgument("term bytes exceed 4 GiB: " +
                                     rep.engine_name());
    }
  }
  return table;
}

}  // namespace useful::represent
