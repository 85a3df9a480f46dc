#include "represent/term_table.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <sstream>
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

// The most values a dictionary holds: what a 2-byte index reaches.
constexpr std::size_t kMaxWeights = std::size_t{1} << 16;

// Bytes of the index into a dictionary of `num_weights` values.
std::size_t IndexBytes(std::size_t num_weights) {
  return num_weights <= 256 ? 1 : 2;
}

// True when `num_records` indices into a dictionary of `num_weights`
// values, plus its 8 bytes a value, take fewer bytes than an f64 a record.
bool DictionarySaves(std::size_t num_weights, std::uint64_t num_records) {
  return num_weights <= kMaxWeights &&
         8 * num_weights + IndexBytes(num_weights) * num_records <
             8 * num_records;
}

// The distinct bit patterns of a table's weights, in first-seen order,
// found through an open-addressing map of indices that doubles at a
// quarter full, so most lookups end at their first slot. Keyed by bits,
// never by value: +0.0 and -0.0, and NaNs with other payloads, are
// distinct entries.
class WeightDictionary {
 public:
  explicit WeightDictionary(std::uint64_t num_records)
      : num_records_(num_records), slots_(kFirstSlots) {}

  /// The index of `bits`, added when new. Once the dictionary would no
  /// longer save bytes over `num_records` records it adds nothing more,
  /// kept() turns false and the indices it gives mean nothing.
  std::uint32_t IndexOf(std::uint64_t bits) {
    if (given_up_) return 0;
    std::size_t slot = SlotOf(bits);
    for (; slots_[slot] != 0; slot = (slot + 1) & (slots_.size() - 1)) {
      if (values_[slots_[slot] - 1] == bits) return slots_[slot] - 1;
    }
    if (!DictionarySaves(values_.size() + 1, num_records_)) {
      given_up_ = true;
      return 0;
    }
    values_.push_back(bits);
    const auto index = static_cast<std::uint32_t>(values_.size() - 1);
    slots_[slot] = index + 1;
    if (4 * values_.size() > slots_.size()) Grow();
    return index;
  }

  /// True when the records index the dictionary.
  bool kept() const {
    return !given_up_ && DictionarySaves(values_.size(), num_records_);
  }
  const std::vector<std::uint64_t>& values() const { return values_; }

 private:
  static constexpr std::size_t kFirstSlots = 256;

  std::size_t SlotOf(std::uint64_t bits) const {
    return static_cast<std::size_t>((bits * 0x9e3779b97f4a7c15ull) >>
                                    (64 - std::countr_zero(slots_.size())));
  }

  void Grow() {
    slots_.assign(2 * slots_.size(), 0);
    for (std::uint32_t i = 0; i < values_.size(); ++i) {
      std::size_t slot = SlotOf(values_[i]);
      while (slots_[slot] != 0) slot = (slot + 1) & (slots_.size() - 1);
      slots_[slot] = i + 1;
    }
  }

  std::uint64_t num_records_;
  bool given_up_ = false;
  std::vector<std::uint64_t> values_;
  // A power of two slots, each 0 or 1 + an index into values_.
  std::vector<std::uint32_t> slots_;
};

// Copies the `n` bytes at `from` to `to`. A term of 4 to 16 bytes goes as
// two fixed-width copies that overlap when it is shorter than both.
void CopyTerm(const char* from, std::size_t n, char* to) {
  if (n >= 8 && n <= 16) {
    std::memcpy(to, from, 8);
    std::memcpy(to + n - 8, from + n - 8, 8);
  } else if (n >= 4 && n < 8) {
    std::memcpy(to, from, 4);
    std::memcpy(to + n - 4, from + n - 4, 4);
  } else {
    std::memcpy(to, from, n);
  }
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
  return 1 + VarintBytes(len) + len + VarintBytes(doc_freq) +
         8 * (flags & (kHasP | kHasSpread));
}

char* TermTable::Encode(std::string_view term, const TermStats& stats,
                        unsigned char flags, std::uint32_t index,
                        char* out) const {
  *out++ = static_cast<char>(flags);
  out = WriteVarint(static_cast<std::uint32_t>(term.size()), out);
  CopyTerm(term.data(), term.size(), out);
  out = WriteVarint(stats.doc_freq, out + term.size());
  if (weight_bytes_ == 1) {
    *out = static_cast<char>(index);
  } else if (weight_bytes_ == 2) {
    const auto index16 = static_cast<std::uint16_t>(index);
    std::memcpy(out, &index16, sizeof(index16));
  } else {
    std::memcpy(out, &stats.max_weight, 8);
  }
  out += weight_bytes_;
  if (flags & kHasP) {
    std::memcpy(out, &stats.p, 8);
    out += 8;
  }
  if (flags & kHasSpread) {
    std::memcpy(out, &stats.avg_weight, 8);
    std::memcpy(out + 8, &stats.stddev, 8);
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

  // Pass 1: each record through ParseUrp1Term, in file order. Its
  // bucket, dictionary index and flags are kept for pass 2, its compact
  // size besides the weight is added to its bucket's, and its bucket's
  // records are counted in the bucket's cursor, so the weights' bytes can
  // join the sizes once the dictionary is known.
  const auto keys = std::make_unique_for_overwrite<std::uint64_t[]>(
      static_cast<std::size_t>(h.num_terms));
  std::vector<std::uint32_t> cursors(num_buckets);
  WeightDictionary dictionary(h.num_terms);
  const char* at = image.data();  // the first record, where pass 2 starts
  std::uint64_t total = 0;
  for (std::uint64_t i = 0; i < h.num_terms; ++i) {
    std::string_view term;
    TermStats stats;
    USEFUL_RETURN_IF_ERROR(ParseUrp1Term(&image, &term, &stats));
    const std::uint64_t hash = Hash(term);
    const unsigned char flags = table.FlagsOf(hash, stats);
    const std::size_t bucket = (hash >> kTagBits) & table.bucket_mask_;
    const std::uint32_t index =
        dictionary.IndexOf(std::bit_cast<std::uint64_t>(stats.max_weight));
    keys[i] = std::uint64_t{bucket} << 24 | index << 8 | flags;
    const std::size_t bytes = CompactBytes(
        static_cast<std::uint32_t>(term.size()), stats.doc_freq, flags);
    bounds[bucket] += bytes;
    ++cursors[bucket];
    total += bytes;
  }
  if (dictionary.kept()) {
    table.weights_.assign(dictionary.values().begin(),
                          dictionary.values().end());
    table.weight_bytes_ = IndexBytes(table.weights_.size());
  }
  total += table.weight_bytes_ * h.num_terms;
  if (total > kMaxBytes) {
    return Status::Corruption("representative image exceeds 4 GiB");
  }
  // Bucket sizes, weights added, to bounds and cursors; the last bound
  // is the total.
  std::uint32_t start = 0;
  for (std::size_t b = 0; b < num_buckets; ++b) {
    const auto size = static_cast<std::uint32_t>(
        bounds[b] + table.weight_bytes_ * cursors[b]);
    bounds[b] = start;
    cursors[b] = start;
    start += size;
  }
  bounds[num_buckets] = start;

  // Pass 2: each record, in file order, at its bucket's cursor. Only a
  // record whose tag its bucket has seen can repeat a term; the bucket's
  // run is then scanned for an earlier record of the term, which is
  // retired, so the term keeps its last record.
  table.records_ = std::make_unique_for_overwrite<char[]>(total);
  char* const records = table.records_.get();
  Prefault(records, total);
  std::vector<std::uint64_t> tags_seen(num_buckets);
  for (std::uint64_t i = 0; i < h.num_terms; ++i) {
    TermStats stats;
    const std::string_view term = DecodeUrp1Term(at, &stats);
    at = term.data() + term.size() + kUrp1TermStatsBytes;
    const auto flags = static_cast<unsigned char>(keys[i]);
    const auto index = static_cast<std::uint32_t>(keys[i] >> 8 & 0xffff);
    const std::size_t bucket = keys[i] >> 24;
    std::uint32_t& cursor = cursors[bucket];
    const std::uint64_t tag_bit = std::uint64_t{1} << (flags >> 2);
    const char* const earlier =
        (tags_seen[bucket] & tag_bit) != 0
            ? table.Scan(records + bounds[bucket], records + cursor,
                         flags & kTagMask, term)
            : nullptr;
    tags_seen[bucket] |= tag_bit;
    if (earlier != nullptr) {
      records[earlier - records] ^= static_cast<char>(kTagMask);
    } else {
      ++table.num_terms_;
    }
    cursor = static_cast<std::uint32_t>(
        table.Encode(term, stats, flags, index, records + cursor) - records);
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
