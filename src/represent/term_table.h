// An engine's representative frozen for serving. Where a Representative
// is a node-based hash map that can still be edited, a TermTable is the
// URP1 image it was built from plus a power-of-two open-addressing index
// of u32 record offsets into it, built in one pass and never changed;
// lookups decode records in place. Brokers share a table between
// snapshots by pointer. A file is read, not mapped: SaveRepresentative
// truncates and rewrites a .rep file in place, and truncation unmaps even
// the pages a private mapping had already copied, so a mapped table would
// raise SIGBUS under a snapshot still serving.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "represent/input_file.h"
#include "represent/representative.h"
#include "represent/serialize.h"
#include "represent/term_stats.h"
#include "util/status.h"

namespace useful::represent {

class TermTable {
 public:
  /// Parses one URP1 image with the checks of ReadRepresentative (same
  /// messages and codes); a repeated term keeps its last record. Fails
  /// with Corruption when the image is 4 GiB or more.
  static Result<TermTable> Parse(std::string_view bytes);

  /// Reads the URP1 file at `path` with ReadFileImage and parses it.
  static Result<TermTable> Load(const std::string& path);

  /// Reads the already open `file` with InputFile::ReadAll and parses it.
  static Result<TermTable> Load(const InputFile& file);

  /// The table of `rep`'s terms and header fields, indexed over the bytes
  /// WriteRepresentative gives for `rep`. Fails with the writer's
  /// InvalidArgument, or with InvalidArgument when the image would be
  /// 4 GiB or more.
  static Result<TermTable> Freeze(const Representative& rep);

  const std::string& engine_name() const { return engine_name_; }
  std::size_t num_docs() const { return num_docs_; }
  RepresentativeKind kind() const { return kind_; }
  /// See Representative::stale_max.
  bool stale_max() const { return stale_max_; }
  std::size_t num_terms() const { return num_terms_; }

  /// Stats for `term`, or nullopt when the database lacks it.
  /// Allocation-free.
  std::optional<TermStats> Find(std::string_view term) const {
    const std::uint32_t record = slots_[SlotOf(term)];
    if (record == kEmpty) return std::nullopt;
    TermStats stats;
    DecodeUrp1Term(image_.get() + record, &stats);
    return stats;
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xffffffffu;

  TermTable() = default;

  /// Checks `image` as Parse documents and indexes its records.
  static Result<TermTable> Index(FileImage image);

  /// The slot holding `term`, or the empty slot where it would go.
  std::size_t SlotOf(std::string_view term) const {
    std::size_t slot = std::hash<std::string_view>{}(term) & slot_mask_;
    while (slots_[slot] != kEmpty &&
           DecodeUrp1Term(image_.get() + slots_[slot], nullptr) != term) {
      slot = (slot + 1) & slot_mask_;
    }
    return slot;
  }

  std::string engine_name_;
  std::size_t num_docs_ = 0;
  RepresentativeKind kind_ = RepresentativeKind::kQuadruplet;
  bool stale_max_ = false;
  std::size_t num_terms_ = 0;
  // The URP1 bytes; under 4 GiB, so offsets fit a u32.
  std::unique_ptr<char[]> image_;
  // Offsets of term records in image_, or kEmpty; a power of two more
  // than twice as many slots as records, so probes end.
  std::unique_ptr<std::uint32_t[]> slots_;
  std::size_t slot_mask_ = 0;  // slot count - 1
};

}  // namespace useful::represent
