// An engine's representative frozen for serving. Where a Representative
// is a node-based hash map that can still be edited, a TermTable is the
// engine's term records, rewritten compactly in the buffer the URP1 file
// was read into, plus a power-of-two open-addressing index of u32 record
// offsets into them, built in one pass and never changed; lookups decode
// records in place. A compact record is
//
//   u8 flags | LEB128 term length | term | u32 df | f64 w
//            | [f64 p] | [f64 sigma, f64 mw]
//
// p is left out when its bits are those of df / num_docs, and sigma and
// mw when sigma is +0.0 and mw has w's bits; Find rebuilds both exactly,
// so every field reads back with the bits of the file's record. A record
// never grows (at most 4 header bytes replace the u32 length, given the
// 1 MiB term cap), so the rewrite runs in place and the buffer is then
// shrunk. Brokers share a table between snapshots by pointer. A file is
// read, not mapped: SaveRepresentative truncates and rewrites a .rep file
// in place, and truncation unmaps even the pages a private mapping had
// already copied, so a mapped table would raise SIGBUS under a snapshot
// still serving.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "represent/input_file.h"
#include "represent/representative.h"
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

  /// The bytes the table holds: its compact records plus 4 per slot.
  std::size_t bytes() const {
    return records_.size + sizeof(std::uint32_t) * (slot_mask_ + 1);
  }

  /// Stats for `term`, or nullopt when the database lacks it.
  /// Allocation-free.
  std::optional<TermStats> Find(std::string_view term) const {
    const std::uint32_t record = slots_[SlotOf(term)];
    if (record == kEmpty) return std::nullopt;
    const char* const start = records_.data.get() + record;
    const std::string_view stored = TermOf(start);
    const char* at = stored.data() + stored.size();
    TermStats stats;
    std::memcpy(&stats.doc_freq, at, 4);
    const char* const w = at + 4;
    std::memcpy(&stats.avg_weight, w, 8);
    at = w + 8;
    if (*start & kHasP) {
      std::memcpy(&stats.p, at, 8);
      at += 8;
    } else {
      stats.p = DerivedP(stats.doc_freq);
    }
    if (*start & kHasSpread) {
      std::memcpy(&stats.stddev, at, 8);
      std::memcpy(&stats.max_weight, at + 8, 8);
    } else {
      stats.stddev = 0.0;
      std::memcpy(&stats.max_weight, w, 8);
    }
    return stats;
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xffffffffu;
  // Flags of a compact record: which fields follow w.
  static constexpr char kHasP = 1;       // p is not df / num_docs
  static constexpr char kHasSpread = 2;  // sigma is not +0.0, or mw is not w

  TermTable() = default;

  /// Checks `image` as Parse documents, rewrites its records compactly
  /// in place and indexes them.
  static Result<TermTable> Index(FileImage image);

  /// The term bytes of the compact record at `record`.
  static std::string_view TermOf(const char* record) {
    const char* at = record + 1;  // past the flags
    std::size_t len = 0;
    for (int shift = 0;; shift += 7) {
      const auto byte = static_cast<unsigned char>(*at++);
      len |= static_cast<std::size_t>(byte & 0x7f) << shift;
      if (byte < 0x80) break;
    }
    return {at, len};
  }

  /// The p a record leaves out: df / num_docs, computed the one way the
  /// writer compared it.
  double DerivedP(std::uint32_t doc_freq) const {
    return static_cast<double>(doc_freq) / docs_;
  }

  /// Writes the compact record of the URP1 record holding `term` and
  /// `stats` at `out`, at or before the record's first byte, and returns
  /// the byte after it. Writes nothing past the URP1 record.
  inline char* Encode(std::string_view term, const TermStats& stats,
                      char* out) const;

  /// The slot holding `term`, or the empty slot where it would go.
  std::size_t SlotOf(std::string_view term) const {
    std::size_t slot = std::hash<std::string_view>{}(term) & slot_mask_;
    while (slots_[slot] != kEmpty &&
           TermOf(records_.data.get() + slots_[slot]) != term) {
      slot = (slot + 1) & slot_mask_;
    }
    return slot;
  }

  std::string engine_name_;
  std::size_t num_docs_ = 0;
  double docs_ = 0.0;  // num_docs_ as the double DerivedP divides by
  RepresentativeKind kind_ = RepresentativeKind::kQuadruplet;
  bool stale_max_ = false;
  std::size_t num_terms_ = 0;
  // The compact records, in the buffer the URP1 image was read into;
  // under 4 GiB, so offsets fit a u32.
  FileImage records_;
  // Offsets of records in records_, or kEmpty; a power of two more than
  // twice as many slots as records, so probes end.
  std::unique_ptr<std::uint32_t[]> slots_;
  std::size_t slot_mask_ = 0;  // slot count - 1
};

}  // namespace useful::represent
