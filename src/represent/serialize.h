// Binary persistence for representatives, so a broker can ship/refresh
// engine metadata without re-crawling. Little-endian, versioned format:
//
//   magic "URP1" | u8 kind | u64 num_docs | u32 name_len | name bytes
//   u64 num_terms | repeat: u32 term_len, term bytes, u32 doc_freq,
//                            f64 p, f64 avg_weight, f64 stddev, f64 max_w
//
// The high bit of the kind byte is the stale-max flag. Every reader goes
// through ParseUrp1Header/ParseUrp1Term, so ReadRepresentative,
// LoadRepresentative and TermTable accept and reject exactly the same
// files, with the same messages, and every term record is decoded by
// DecodeUrp1Term.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <string>
#include <string_view>

#include "represent/representative.h"
#include "util/status.h"

namespace useful::represent {

/// Serializes `rep` to `out`.
Status WriteRepresentative(const Representative& rep, std::ostream& out);

/// Parses a representative from `in`, validating the header and structure.
/// Consumes the rest of the stream: bytes after the last term record are
/// read and ignored, so one stream holds one representative.
Result<Representative> ReadRepresentative(std::istream& in);

/// File convenience wrappers. LoadRepresentative reads the file with
/// ReadFileImage (input_file.h), as TermTable::Load does.
Status SaveRepresentative(const Representative& rep, const std::string& path);
Result<Representative> LoadRepresentative(const std::string& path);

/// The header of one URP1 image. `engine_name` views the parsed bytes.
struct Urp1Header {
  std::string_view engine_name;
  std::uint64_t num_docs = 0;
  RepresentativeKind kind = RepresentativeKind::kQuadruplet;
  bool stale_max = false;
  /// Term records that follow; at most what the remaining bytes can hold.
  std::uint64_t num_terms = 0;
};

/// Parses the header at the front of `*bytes` and advances past it:
/// magic, kind and stale-max bit, the engine name within the 1 MiB string
/// cap, and the term count against the remaining bytes. Failures are
/// Corruption.
Result<Urp1Header> ParseUrp1Header(std::string_view* bytes);

/// The longest engine name or term a URP1 file may hold.
inline constexpr std::uint32_t kMaxUrp1StringBytes = 1u << 20;
/// What follows a record's term bytes: u32 doc_freq + four f64 statistics.
inline constexpr std::size_t kUrp1TermStatsBytes = 4 + 4 * sizeof(double);

/// Decodes the term record starting at `record` with memcpy only and no
/// bounds checks, so only a record ParseUrp1Term has accepted may be
/// passed. Returns its term bytes; when `stats` is non-null, also stores
/// its statistics there.
inline std::string_view DecodeUrp1Term(const char* record, TermStats* stats) {
  std::uint32_t len;
  std::memcpy(&len, record, sizeof(len));
  const char* term = record + sizeof(len);
  if (stats != nullptr) {
    const char* tail = term + len;
    std::memcpy(&stats->doc_freq, tail, 4);
    std::memcpy(&stats->p, tail + 4, 8);
    std::memcpy(&stats->avg_weight, tail + 12, 8);
    std::memcpy(&stats->stddev, tail + 20, 8);
    std::memcpy(&stats->max_weight, tail + 28, 8);
  }
  return std::string_view(term, len);
}

/// Moves a fixed-width value off the front of `*bytes`; false when short.
template <typename T>
bool TakePod(std::string_view* bytes, T* value) {
  if (bytes->size() < sizeof(T)) return false;
  std::memcpy(value, bytes->data(), sizeof(T));
  bytes->remove_prefix(sizeof(T));
  return true;
}

/// Moves a u32-length-prefixed string within the string cap off the front
/// of `*bytes` into `*s`, which views it. Failures are Corruption.
inline Status TakeString(std::string_view* bytes, std::string_view* s) {
  std::uint32_t len = 0;
  if (!TakePod(bytes, &len)) {
    return Status::Corruption("truncated string length");
  }
  if (len > kMaxUrp1StringBytes) return Status::Corruption("string too long");
  if (bytes->size() < len) return Status::Corruption("truncated string body");
  *s = bytes->substr(0, len);
  bytes->remove_prefix(len);
  return Status::OK();
}

/// Parses the term record at the front of `*bytes` and advances past it.
/// `*term` views the record's term bytes; the statistics are decoded into
/// `*stats` unless it is null. A repeated term is not detected here; every
/// consumer keeps the last record. Failures are Corruption. Inline, so a
/// loader's per-record loop has no call to make.
inline Status ParseUrp1Term(std::string_view* bytes, std::string_view* term,
                            TermStats* stats) {
  const char* record = bytes->data();
  USEFUL_RETURN_IF_ERROR(TakeString(bytes, term));
  if (bytes->size() < kUrp1TermStatsBytes) {
    return Status::Corruption("truncated term record");
  }
  bytes->remove_prefix(kUrp1TermStatsBytes);
  if (stats != nullptr) DecodeUrp1Term(record, stats);
  return Status::OK();
}

}  // namespace useful::represent
