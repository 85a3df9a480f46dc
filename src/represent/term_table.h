// An engine's representative frozen for serving. Where a Representative
// is a node-based hash map that can still be edited, a TermTable is the
// engine's term records, compacted into one exact-size buffer and grouped
// by hash bucket, plus a directory of u32 bucket bounds, about one bucket
// per two terms, and a dictionary of the records' document weights. A
// lookup hashes the term once and scans the short run of its bucket,
// decoding records in place. A compact record is
//
//   u8 flags | LEB128 term length | term | LEB128 df | weight
//            | [f64 p] | [f64 w, f64 sigma]
//
// where weight is the record's mw: an index into the dictionary, which
// holds each distinct bit pattern of the table's mw once, in first-seen
// order. The index takes 1 byte when there are at most 256 of them and 2
// up to 65,536. A table whose dictionary would not take fewer bytes than
// its weights inline keeps none, and its records hold the f64 itself.
// p is left out when its bits are those of df / num_docs, and w and sigma
// when sigma is +0.0 and w has mw's bits; Find rebuilds them exactly, so
// every field reads back with the bits of the file's record. The flags
// byte's other six bits hold six bits of the term's hash, so a scan steps
// over other terms without comparing their bytes.
//
// A table is built in two passes over the URP1 image and keeps none of
// it: the first checks every record, gives its mw a dictionary index and
// sizes the buckets, the second writes each record, in file order, at its
// bucket's cursor. Brokers share a table between snapshots by pointer. A
// file is read, not mapped: SaveRepresentative truncates and rewrites a
// .rep file in place, and truncation unmaps even the pages a private
// mapping had already copied, so a mapped table would raise SIGBUS under
// a snapshot still serving.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "represent/input_file.h"
#include "represent/representative.h"
#include "represent/term_stats.h"
#include "util/status.h"

namespace useful::represent {

class TermTable {
 public:
  /// Parses one URP1 image with the checks of ReadRepresentative (same
  /// messages and codes); a repeated term keeps its last record. Fails
  /// with Corruption when the image, or its compact records, would be
  /// 4 GiB or more.
  static Result<TermTable> Parse(std::string_view bytes);

  /// Reads the URP1 file at `path` with ReadFileImage and parses it.
  static Result<TermTable> Load(const std::string& path);

  /// Reads the already open `file` into `*buffer` with InputFile::ReadAll
  /// and parses it. The table keeps none of the buffer, so a loader can
  /// pass the same one for file after file.
  static Result<TermTable> Load(const InputFile& file, FileImage* buffer);

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
  /// Distinct terms: a repeated term counts once.
  std::size_t num_terms() const { return num_terms_; }

  /// The bytes the table holds: its compact records, 4 per bucket bound
  /// and 8 per dictionary entry.
  std::size_t bytes() const {
    return bounds_[bucket_mask_ + 1] +
           sizeof(std::uint32_t) * (bucket_mask_ + 2) +
           sizeof(std::uint64_t) * weights_.size();
  }

  /// Stats for `term`, or nullopt when the database lacks it.
  /// Allocation-free.
  std::optional<TermStats> Find(std::string_view term) const {
    const std::uint64_t hash = Hash(term);
    const std::size_t bucket = (hash >> kTagBits) & bucket_mask_;
    const char* const record =
        Scan(records_.get() + bounds_[bucket],
             records_.get() + bounds_[bucket + 1], TagOf(hash), term);
    if (record == nullptr) return std::nullopt;
    return Decode(record);
  }

 private:
  // The flags byte of a compact record: kHasP when p is kept (it is not
  // df / num_docs), kHasSpread when w and sigma are (sigma is not +0.0,
  // or w is not mw), and the term's hash tag in the other six bits.
  static constexpr unsigned char kHasP = 1;
  static constexpr unsigned char kHasSpread = 2;
  static constexpr int kTagBits = 6;
  static constexpr unsigned char kTagMask = 0xfc;

  TermTable() = default;

  /// Checks `image` as Parse documents and builds the table from it.
  static Result<TermTable> Index(std::string_view image);

  /// A 64-bit hash of `term` for this process's index only: its 8-byte
  /// words, each multiplied by an odd constant, xored into a state that a
  /// multiply-xorshift step folds, so every bit of the term reaches the
  /// low bits. The low kTagBits bits are the tag, the next the bucket.
  /// With std::hash in its place both a load and Find were measurably
  /// slower (DESIGN.md §8).
  static std::uint64_t Hash(std::string_view term) {
    const char* p = term.data();
    const std::size_t n = term.size();
    std::uint64_t state = n;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    if (n <= 16) {
      if (n >= 4) {
        // Four 4-byte reads that together cover every byte.
        const std::size_t step = (n >> 3) << 2;
        a = Load32(p) << 32 | Load32(p + step);
        b = Load32(p + n - 4) << 32 | Load32(p + n - 4 - step);
      } else if (n > 0) {
        a = std::uint64_t{static_cast<unsigned char>(p[0])} << 16 |
            std::uint64_t{static_cast<unsigned char>(p[n >> 1])} << 8 |
            static_cast<unsigned char>(p[n - 1]);
      }
    } else {
      std::size_t left = n;
      for (; left > 16; left -= 16, p += 16) {
        state = Fold(state ^ Load64(p) * kOdd1 ^ Load64(p + 8) * kOdd2);
      }
      // The last 16 bytes, overlapping the words already folded.
      a = Load64(p + left - 16);
      b = Load64(p + left - 8);
    }
    return Fold(state ^ a * kOdd1 ^ b * kOdd2);
  }

  // Odd 64-bit multipliers with well-spread bits (wyhash's).
  static constexpr std::uint64_t kOdd0 = 0xa0761d6478bd642full;
  static constexpr std::uint64_t kOdd1 = 0xe7037ed1a0b428dbull;
  static constexpr std::uint64_t kOdd2 = 0x8ebc6af09c88c6e3ull;

  /// One multiply-xorshift step: the high half is folded into the low
  /// before the multiply and after it.
  static std::uint64_t Fold(std::uint64_t h) {
    h ^= h >> 32;
    h *= kOdd0;
    return h ^ (h >> 32);
  }

  static std::uint64_t Load32(const char* p) {
    std::uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  }
  static std::uint64_t Load64(const char* p) {
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  }

  /// The tag bits of a record whose term hashes to `hash`, placed in the
  /// flags byte.
  static unsigned char TagOf(std::uint64_t hash) {
    return static_cast<unsigned char>(hash << 2) & kTagMask;
  }

  /// Reads the LEB128 value at `at` into `*value`; returns the byte after.
  static const char* ReadVarint(const char* at, std::uint32_t* value) {
    std::uint32_t v = 0;
    for (int shift = 0;; shift += 7) {
      const auto byte = static_cast<unsigned char>(*at++);
      v |= static_cast<std::uint32_t>(byte & 0x7f) << shift;
      if (byte < 0x80) break;
    }
    *value = v;
    return at;
  }

  /// The record of `term`, whose tag is `tag`, among the records in
  /// [at, end), or null.
  const char* Scan(const char* at, const char* end, unsigned char tag,
                   std::string_view term) const {
    while (at < end) {
      const auto flags = static_cast<unsigned char>(*at);
      std::uint32_t len;
      const char* const stored = ReadVarint(at + 1, &len);
      if ((flags & kTagMask) == tag && std::string_view(stored, len) == term) {
        return at;
      }
      // Past the term, df, the weight, then 8 bytes for p and 16 for w
      // and sigma when the record keeps them.
      const char* df = stored + len;
      while (static_cast<unsigned char>(*df) >= 0x80) ++df;
      at = df + 1 + weight_bytes_ + 8 * (flags & (kHasP | kHasSpread));
    }
    return nullptr;
  }

  /// The 8 bytes of the weight whose field starts at `field`: its
  /// dictionary entry, or the field itself when the table has none.
  const char* WeightAt(const char* field) const {
    std::size_t index = 0;
    if (weight_bytes_ == 1) {
      index = static_cast<unsigned char>(*field);
    } else if (weight_bytes_ == 2) {
      std::uint16_t index16 = 0;
      std::memcpy(&index16, field, sizeof(index16));
      index = index16;
    } else {
      return field;
    }
    return reinterpret_cast<const char*>(weights_.data() + index);
  }

  /// The statistics of the record at `record`.
  TermStats Decode(const char* record) const {
    const auto flags = static_cast<unsigned char>(*record);
    std::uint32_t len;
    const char* const term = ReadVarint(record + 1, &len);
    TermStats stats;
    const char* const field = ReadVarint(term + len, &stats.doc_freq);
    const char* const weight = WeightAt(field);
    std::memcpy(&stats.max_weight, weight, 8);
    const char* at = field + weight_bytes_;
    if (flags & kHasP) {
      std::memcpy(&stats.p, at, 8);
      at += 8;
    } else {
      stats.p = DerivedP(stats.doc_freq);
    }
    if (flags & kHasSpread) {
      std::memcpy(&stats.avg_weight, at, 8);
      std::memcpy(&stats.stddev, at + 8, 8);
    } else {
      std::memcpy(&stats.avg_weight, weight, 8);
      stats.stddev = 0.0;
    }
    return stats;
  }

  /// The p a record leaves out: df / num_docs, computed the one way the
  /// writer compared it.
  double DerivedP(std::uint32_t doc_freq) const {
    return static_cast<double>(doc_freq) / docs_;
  }

  /// The flags of a record holding `stats` and a term that hashes to
  /// `hash`.
  unsigned char FlagsOf(std::uint64_t hash, const TermStats& stats) const;

  /// The bytes of the compact record of a term of `len` bytes with
  /// `doc_freq`, under `flags`, besides its weight field.
  static std::size_t CompactBytes(std::uint32_t len, std::uint32_t doc_freq,
                                  unsigned char flags);

  /// Writes the compact record of `term` and `stats` under `flags` at
  /// `out`, its weight as dictionary entry `index` (ignored when the
  /// table has no dictionary); returns the byte after it.
  char* Encode(std::string_view term, const TermStats& stats,
               unsigned char flags, std::uint32_t index, char* out) const;

  std::string engine_name_;
  std::size_t num_docs_ = 0;
  double docs_ = 0.0;  // num_docs_ as the double DerivedP divides by
  RepresentativeKind kind_ = RepresentativeKind::kQuadruplet;
  bool stale_max_ = false;
  std::size_t num_terms_ = 0;
  // The compact records, bucket after bucket; under 4 GiB, so offsets
  // fit a u32.
  std::unique_ptr<char[]> records_;
  // Bucket b's records are [bounds_[b], bounds_[b + 1]); a power of two
  // buckets, plus one bound for the end.
  std::unique_ptr<std::uint32_t[]> bounds_;
  std::size_t bucket_mask_ = 0;  // bucket count - 1
  // The dictionary: each distinct mw bit pattern once, in first-seen
  // order. Empty when the records hold their weights inline.
  std::vector<std::uint64_t> weights_;
  // Bytes of a record's weight field: 1 or 2 for an index, 8 inline.
  std::size_t weight_bytes_ = 8;
};

}  // namespace useful::represent
