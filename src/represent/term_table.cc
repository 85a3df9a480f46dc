#include "represent/term_table.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "represent/serialize.h"

namespace useful::represent {

namespace {

// Offsets into an image and into a table's records are u32s.
constexpr std::uint64_t kMaxBytes = std::numeric_limits<std::uint32_t>::max();
// Terms per bucket, about: the bucket count is the power of two at or
// above num_terms / kTermsPerBucket.
constexpr std::uint64_t kTermsPerBucket = 2;

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::size_t VarintBytes(std::uint32_t value) {
  return (std::bit_width(value | 1u) + 6) / 7;
}

char* WriteVarint(std::uint32_t value, char* out) {
  for (; value >= 0x80; value >>= 7) {
    *out++ = static_cast<char>((value & 0x7f) | 0x80);
  }
  *out++ = static_cast<char>(value);
  return out;
}

}  // namespace

unsigned char TermTable::FlagsOf(std::uint64_t hash,
                                 const TermStats& stats) const {
  const bool has_p = !SameBits(stats.p, DerivedP(stats.doc_freq));
  const bool has_spread = !SameBits(stats.stddev, 0.0) |
                          !SameBits(stats.max_weight, stats.avg_weight);
  return TagOf(hash) | (has_p ? kHasP : 0) | (has_spread ? kHasSpread : 0);
}

std::size_t TermTable::CompactBytes(std::uint32_t len, std::uint32_t doc_freq,
                                    unsigned char flags) {
  return 1 + VarintBytes(len) + len + VarintBytes(doc_freq) + 8 +
         8 * (flags & (kHasP | kHasSpread));
}

char* TermTable::Encode(std::string_view term, const TermStats& stats,
                        unsigned char flags, char* out) {
  *out++ = static_cast<char>(flags);
  out = WriteVarint(static_cast<std::uint32_t>(term.size()), out);
  std::memcpy(out, term.data(), term.size());
  out = WriteVarint(stats.doc_freq, out + term.size());
  std::memcpy(out, &stats.avg_weight, 8);
  out += 8;
  if (flags & kHasP) {
    std::memcpy(out, &stats.p, 8);
    out += 8;
  }
  if (flags & kHasSpread) {
    std::memcpy(out, &stats.stddev, 8);
    std::memcpy(out + 8, &stats.max_weight, 8);
    out += 16;
  }
  return out;
}

Result<TermTable> TermTable::Index(std::string_view image) {
  if (image.size() > kMaxBytes) {
    return Status::Corruption("representative image exceeds 4 GiB");
  }
  Result<Urp1Header> header = ParseUrp1Header(&image);
  if (!header.ok()) return header.status();
  const Urp1Header& h = header.value();
  TermTable table;
  table.engine_name_ = std::string(h.engine_name);
  table.num_docs_ = static_cast<std::size_t>(h.num_docs);
  table.docs_ = static_cast<double>(h.num_docs);
  table.kind_ = h.kind;
  table.stale_max_ = h.stale_max;
  const std::size_t num_buckets = std::bit_ceil(
      std::max<std::uint64_t>(h.num_terms / kTermsPerBucket, 1));
  table.bucket_mask_ = num_buckets - 1;
  table.bounds_ = std::make_unique<std::uint32_t[]>(num_buckets + 1);
  std::uint32_t* const bounds = table.bounds_.get();

  // Pass 1: each record through ParseUrp1Term, in file order. Its hash
  // and flags are kept for pass 2, and its compact size is added to its
  // bucket's.
  const auto keys = std::make_unique_for_overwrite<std::uint64_t[]>(
      static_cast<std::size_t>(h.num_terms));
  const char* at = image.data();  // the first record, where pass 2 starts
  std::uint64_t total = 0;
  for (std::uint64_t i = 0; i < h.num_terms; ++i) {
    std::string_view term;
    TermStats stats;
    USEFUL_RETURN_IF_ERROR(ParseUrp1Term(&image, &term, &stats));
    const std::uint64_t hash = Hash(term);
    const unsigned char flags = table.FlagsOf(hash, stats);
    keys[i] = hash >> kTagBits << 8 | flags;  // bucket bits, then flags
    const std::size_t bytes = CompactBytes(
        static_cast<std::uint32_t>(term.size()), stats.doc_freq, flags);
    bounds[(hash >> kTagBits) & table.bucket_mask_] += bytes;
    total += bytes;
  }
  if (total > kMaxBytes) {
    return Status::Corruption("representative image exceeds 4 GiB");
  }
  // Bucket sizes to bounds; the last bound, never added to, becomes the
  // total.
  std::uint32_t start = 0;
  for (std::size_t b = 0; b <= num_buckets; ++b) {
    start += std::exchange(bounds[b], start);
  }

  // Pass 2: each record, in file order, at its bucket's cursor. Only a
  // record whose tag its bucket has seen can repeat a term; the bucket's
  // run is then scanned for an earlier record of the term, which is
  // retired, so the term keeps its last record.
  table.records_ = std::make_unique_for_overwrite<char[]>(total);
  char* const records = table.records_.get();
  Prefault(records, total);
  std::vector<std::uint32_t> cursors(bounds, bounds + num_buckets);
  std::vector<std::uint64_t> tags_seen(num_buckets);
  for (std::uint64_t i = 0; i < h.num_terms; ++i) {
    TermStats stats;
    const std::string_view term = DecodeUrp1Term(at, &stats);
    at = term.data() + term.size() + kUrp1TermStatsBytes;
    const auto flags = static_cast<unsigned char>(keys[i]);
    const std::size_t bucket = (keys[i] >> 8) & table.bucket_mask_;
    std::uint32_t& cursor = cursors[bucket];
    const std::uint64_t tag_bit = std::uint64_t{1} << (flags >> 2);
    const char* const earlier =
        (tags_seen[bucket] & tag_bit) != 0
            ? Scan(records + bounds[bucket], records + cursor,
                   flags & kTagMask, term)
            : nullptr;
    tags_seen[bucket] |= tag_bit;
    if (earlier != nullptr) {
      records[earlier - records] ^= static_cast<char>(kTagMask);
    } else {
      ++table.num_terms_;
    }
    cursor = static_cast<std::uint32_t>(
        Encode(term, stats, flags, records + cursor) - records);
  }
  return table;
}

Result<TermTable> TermTable::Parse(std::string_view bytes) {
  return Index(bytes);
}

Result<TermTable> TermTable::Load(const std::string& path) {
  Result<FileImage> image = ReadFileImage(path);
  if (!image.ok()) return image.status();
  return Index(image.value().view());
}

Result<TermTable> TermTable::Load(const InputFile& file, FileImage* buffer) {
  USEFUL_RETURN_IF_ERROR(file.ReadAll(buffer));
  return Index(buffer->view());
}

Result<TermTable> TermTable::Freeze(const Representative& rep) {
  std::ostringstream out;
  USEFUL_RETURN_IF_ERROR(WriteRepresentative(rep, out));
  const std::string_view image = out.view();
  if (image.size() > kMaxBytes) {
    return Status::InvalidArgument("representative image exceeds 4 GiB: " +
                                   rep.engine_name());
  }
  return Index(image);
}

}  // namespace useful::represent
