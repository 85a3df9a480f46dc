#include "represent/term_table.h"

#include <algorithm>
#include <bit>
#include <sstream>

#include "represent/serialize.h"

namespace useful::represent {

namespace {

/// A copy of `bytes` in the storage a file read would fill.
FileImage CopyImage(std::string_view bytes) {
  FileImage image = AllocateImage(bytes.size());
  std::copy(bytes.begin(), bytes.end(), image.data.get());
  return image;
}

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

char* TermTable::Encode(std::string_view term, const TermStats& stats,
                        char* out) const {
  // Branch-free: which fields a record keeps is as good as random over
  // the records, so the optional fields are always written and the
  // cursor steps over the ones kept.
  const bool has_p = !SameBits(stats.p, DerivedP(stats.doc_freq));
  const bool has_spread = !SameBits(stats.stddev, 0.0) |
                          !SameBits(stats.max_weight, stats.avg_weight);
  *out++ = static_cast<char>((has_p ? kHasP : 0) |
                             (has_spread ? kHasSpread : 0));
  // A term is at most 1 MiB, so its length takes at most 3 bytes and the
  // header ends before the term's old first byte.
  std::size_t len = term.size();
  for (; len >= 0x80; len >>= 7) {
    *out++ = static_cast<char>((len & 0x7f) | 0x80);
  }
  *out++ = static_cast<char>(len);
  // Copied forward 8 bytes at a time, which is safe while `out` is at or
  // before the term: each chunk is read before it can be overwritten. The
  // last chunk reads into the record's statistics (36 bytes follow the
  // term) and writes past the term into bytes the statistics then cover.
  for (std::size_t i = 0; i < term.size(); i += 8) {
    std::uint64_t chunk;
    std::memcpy(&chunk, term.data() + i, 8);
    std::memcpy(out + i, &chunk, 8);
  }
  out += term.size();
  std::memcpy(out, &stats.doc_freq, 4);
  std::memcpy(out + 4, &stats.avg_weight, 8);
  out += 12;
  std::memcpy(out, &stats.p, 8);
  out += has_p ? 8 : 0;
  std::memcpy(out, &stats.stddev, 8);
  std::memcpy(out + 8, &stats.max_weight, 8);
  return out + (has_spread ? 16 : 0);
}

Result<TermTable> TermTable::Index(FileImage image) {
  if (image.size > kEmpty) {
    return Status::Corruption("representative image exceeds 4 GiB");
  }
  TermTable table;
  std::string_view bytes = image.view();
  Result<Urp1Header> header = ParseUrp1Header(&bytes);
  if (!header.ok()) return header.status();
  const Urp1Header& h = header.value();
  table.engine_name_ = std::string(h.engine_name);
  table.num_docs_ = static_cast<std::size_t>(h.num_docs);
  table.docs_ = static_cast<double>(h.num_docs);
  table.kind_ = h.kind;
  table.stale_max_ = h.stale_max;
  const std::size_t num_slots = std::bit_ceil(2 * h.num_terms + 2);
  table.slots_ = AllocatePrefaulted<std::uint32_t>(num_slots);
  std::fill_n(table.slots_.get(), num_slots, kEmpty);
  table.slot_mask_ = num_slots - 1;
  table.records_ = std::move(image);
  // Compact records are written from the front of the buffer, over the
  // header, and none is longer than the URP1 record it replaces, so the
  // write cursor never passes the unread bytes.
  char* const base = table.records_.data.get();
  char* out = base;
  for (std::uint64_t i = 0; i < h.num_terms; ++i) {
    std::string_view term;
    TermStats stats;
    USEFUL_RETURN_IF_ERROR(ParseUrp1Term(&bytes, &term, &stats));
    // The slot is found while the term is still where the file had it.
    std::uint32_t& slot = table.slots_[table.SlotOf(term)];
    if (slot == kEmpty) ++table.num_terms_;
    slot = static_cast<std::uint32_t>(out - base);
    out = table.Encode(term, stats, out);
  }
  table.records_.Shrink(static_cast<std::size_t>(out - base));
  return table;
}

Result<TermTable> TermTable::Parse(std::string_view bytes) {
  return Index(CopyImage(bytes));
}

Result<TermTable> TermTable::Load(const std::string& path) {
  Result<FileImage> image = ReadFileImage(path);
  if (!image.ok()) return image.status();
  return Index(std::move(image).value());
}

Result<TermTable> TermTable::Load(const InputFile& file) {
  Result<FileImage> image = file.ReadAll();
  if (!image.ok()) return image.status();
  return Index(std::move(image).value());
}

Result<TermTable> TermTable::Freeze(const Representative& rep) {
  std::ostringstream out;
  USEFUL_RETURN_IF_ERROR(WriteRepresentative(rep, out));
  const std::string_view image = out.view();
  if (image.size() > kEmpty) {
    return Status::InvalidArgument("representative image exceeds 4 GiB: " +
                                   rep.engine_name());
  }
  return Index(CopyImage(image));
}

}  // namespace useful::represent
