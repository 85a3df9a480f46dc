// An engine's representative frozen for serving. Where a Representative
// is a node-based hash map that can still be edited, a TermTable is four
// flat arrays built once and never changed: every term's bytes in one
// blob, u32 offsets into it, a TermStats array, and a power-of-two
// open-addressing index of u32 term ids. A URP1 file becomes a TermTable
// in one pass over one read() of the file, and brokers share a table
// between snapshots by pointer instead of copying it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "represent/representative.h"
#include "represent/term_stats.h"
#include "util/status.h"

namespace useful::represent {

class TermTable {
 public:
  /// Parses one URP1 image with the checks of ReadRepresentative (same
  /// messages and codes); a repeated term keeps its last record. Fails
  /// with Corruption when the terms total 4 GiB or more.
  static Result<TermTable> Parse(std::string_view bytes);

  /// Reads the URP1 file at `path` with ReadFileBytes and parses it.
  static Result<TermTable> Load(const std::string& path);

  /// The table of `rep`'s terms and header fields. Fails with
  /// InvalidArgument when the terms total 4 GiB or more.
  static Result<TermTable> Freeze(const Representative& rep);

  const std::string& engine_name() const { return engine_name_; }
  std::size_t num_docs() const { return num_docs_; }
  RepresentativeKind kind() const { return kind_; }
  /// See Representative::stale_max.
  bool stale_max() const { return stale_max_; }
  std::size_t num_terms() const { return stats_.size(); }

  /// Stats for `term`, or nullopt when the database lacks it.
  /// Allocation-free.
  std::optional<TermStats> Find(std::string_view term) const {
    const std::uint32_t id = slots_[SlotOf(term)];
    if (id == kEmpty) return std::nullopt;
    return stats_[id];
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xffffffffu;

  TermTable(std::string engine_name, std::size_t num_docs,
            RepresentativeKind kind, bool stale_max, std::size_t max_terms,
            std::size_t max_term_bytes);

  /// The term with id `id` (ids count distinct terms in first-seen order).
  std::string_view TermAt(std::uint32_t id) const {
    return std::string_view(blob_.data() + offsets_[id],
                            offsets_[id + 1] - offsets_[id]);
  }

  /// The slot holding `term`, or the empty slot where it would go.
  std::size_t SlotOf(std::string_view term) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot = std::hash<std::string_view>{}(term) & mask;
    while (slots_[slot] != kEmpty && TermAt(slots_[slot]) != term) {
      slot = (slot + 1) & mask;
    }
    return slot;
  }

  /// Adds `term` or, when present, overwrites its stats. False when the
  /// blob would reach 4 GiB. At most the constructor's `max_terms`
  /// distinct terms fit.
  bool Put(std::string_view term, const TermStats& stats);

  std::string engine_name_;
  std::size_t num_docs_ = 0;
  RepresentativeKind kind_ = RepresentativeKind::kQuadruplet;
  bool stale_max_ = false;
  std::string blob_;
  std::vector<std::uint32_t> offsets_;  // num_terms() + 1 entries
  std::vector<TermStats> stats_;
  // Term ids or kEmpty; at least twice max_terms slots, so probes end.
  std::vector<std::uint32_t> slots_;
};

}  // namespace useful::represent
