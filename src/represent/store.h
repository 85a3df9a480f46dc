// Packed, mmap-able representative store ("URPZ"): one file per broker
// shard holding every engine's quantized representative in a compressed
// columnar layout that is read in place — resolution never materializes a
// hash map, and reloading a shard is an mmap swap instead of a parse.
//
// File layout (little-endian throughout):
//
//   FileHeader    magic "URPZ" | u32 version | u32 num_engines |
//                 u32 reserved | u64 index_offset | u64 file_bytes
//   engine blocks each 8-byte aligned (see below)
//   engine index  per engine, sorted by name:
//                 u64 block_offset | u64 block_bytes | u32 name_len | name
//
// Each engine block:
//
//   EngineHeader  u32 kind_flags (bit0 quadruplet, bit1 stale_max) |
//                 u32 num_fields | u64 num_docs | u64 num_terms |
//                 u32 restart_interval | u32 num_restarts |
//                 u64 restarts_offset | u64 dfbits_offset |
//                 u64 terms_offset | u64 terms_bytes |
//                 u64 codes_offset | u64 block_bytes
//   codebooks     num_fields x 256 f64, the trained per-field interval
//                 averages (field order: p, avg_weight, stddev, max_weight)
//   restarts      u32 byte offsets into the term blob, one per
//                 restart_interval terms
//   dfbits        ceil(num_terms/8) bytes; bit i set iff term i's original
//                 doc_freq was > 0 (feeds QuantizedDocFreq at decode time)
//   terms         front-coded sorted dictionary: per term
//                 varint shared_prefix_len | varint suffix_len | suffix,
//                 with shared_prefix_len forced to 0 at restart points
//   codes         column-major one-byte codes: num_fields columns of
//                 num_terms bytes each
//
// Per-term cost is num_fields bytes of codes + 1/8 byte of dfbits + the
// front-coded term suffix, versus URP1's 44+ bytes. Decoding a code is a
// codebook lookup, so packed stats are bit-identical to what
// QuantizeRepresentative produces for the same input — the packer trains
// through the very same TrainFieldQuantizers path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "represent/quantized.h"
#include "represent/representative.h"
#include "util/status.h"

namespace useful::represent {

/// Knobs for the packer. The defaults match the golden files under test.
struct PackOptions {
  /// Every `restart_interval`-th term is stored without front coding so
  /// lookups can binary-search restart points before scanning.
  std::uint32_t restart_interval = 16;
};

/// Serializes `reps` into one URPZ image. Engines are written sorted by
/// name; the encoding is byte-stable for identical logical input
/// (quantizer training iterates terms in sorted order). Fails on duplicate
/// or oversized engine names and on empty representatives.
Result<std::string> EncodeStore(const std::vector<const Representative*>& reps,
                                const PackOptions& options = {});

/// EncodeStore + atomic write (temp file then rename) to `path`.
Status PackStoreToFile(const std::vector<const Representative*>& reps,
                       const std::string& path,
                       const PackOptions& options = {});

/// The first four bytes of every URPZ file; a URP1 file starts "URP1".
inline constexpr std::string_view kStoreMagic = "URPZ";

class InputFile;
class StoreView;

/// Zero-copy accessor for one engine inside an open StoreView. Plain
/// pointers into the mapping: copyable, but valid only while the owning
/// StoreView is alive (keep the shared_ptr around).
class RepresentativeView {
 public:
  std::string_view engine_name() const { return name_; }
  std::size_t num_docs() const { return static_cast<std::size_t>(num_docs_); }
  RepresentativeKind kind() const {
    return (kind_flags_ & kQuadrupletFlag) ? RepresentativeKind::kQuadruplet
                                            : RepresentativeKind::kTriplet;
  }
  bool stale_max() const { return (kind_flags_ & kStaleMaxFlag) != 0; }
  std::size_t num_terms() const { return static_cast<std::size_t>(num_terms_); }

  /// Total packed bytes of this engine's block (codebooks included).
  std::size_t block_bytes() const {
    return static_cast<std::size_t>(block_bytes_);
  }

  /// Stats for `term`, or nullopt when absent. Allocation-free: binary
  /// search over restart points, then an incremental front-coded scan.
  std::optional<TermStats> Find(std::string_view term) const;

  /// Decoded stats of the i-th term in sorted order.
  TermStats StatsAt(std::size_t i) const;

  /// Walks every (term, stats) pair in sorted term order. `fn` receives
  /// (std::string_view term, const TermStats&); the term view points into
  /// an internal scratch buffer valid only during the call.
  template <typename Fn>
  void ForEachTerm(Fn&& fn) const {
    std::string scratch;
    for (std::size_t i = 0; i < num_terms(); ++i) {
      DecodeTermInto(i, &scratch);
      fn(std::string_view(scratch), StatsAt(i));
    }
  }

  /// Fully materializes this engine as an in-memory Representative —
  /// equivalence-testing and tooling convenience, not a serving path.
  Representative Materialize() const;

 private:
  friend class StoreView;

  static constexpr std::uint32_t kQuadrupletFlag = 1u << 0;
  static constexpr std::uint32_t kStaleMaxFlag = 1u << 1;

  double CodebookValue(std::size_t field, std::uint8_t code) const {
    double v;
    std::memcpy(&v, codebooks_ + (field * 256 + code) * sizeof(double),
                sizeof(double));
    return v;
  }
  std::uint32_t RestartOffset(std::size_t r) const {
    std::uint32_t off;
    std::memcpy(&off, restarts_ + r * sizeof(std::uint32_t),
                sizeof(std::uint32_t));
    return off;
  }
  bool DfBit(std::size_t i) const {
    return (dfbits_[i / 8] >> (i % 8)) & 1;
  }
  /// The fully-stored term at restart `r` (shared prefix is 0 there).
  std::string_view TermAtRestart(std::size_t r) const;
  /// Appends the i-th term into `*out` (cleared first) by scanning its
  /// restart block.
  void DecodeTermInto(std::size_t i, std::string* out) const;
  /// Walks the whole front-coded term blob once; the first fault found, or
  /// OK. Reads only this engine's block, so engines walk independently.
  Status ValidateTerms() const;

  std::string_view name_;
  std::uint32_t kind_flags_ = 0;
  std::uint32_t num_fields_ = 0;
  std::uint64_t num_docs_ = 0;
  std::uint64_t num_terms_ = 0;
  std::uint32_t restart_interval_ = 0;
  std::uint32_t num_restarts_ = 0;
  std::uint64_t terms_bytes_ = 0;
  std::uint64_t block_bytes_ = 0;
  const unsigned char* codebooks_ = nullptr;
  const unsigned char* restarts_ = nullptr;
  const unsigned char* dfbits_ = nullptr;
  const unsigned char* terms_ = nullptr;
  const unsigned char* codes_ = nullptr;
};

/// An open URPZ file: the whole image mapped (or held) read-only, with
/// every engine block validated up front so the per-query accessors can
/// run unchecked. Immutable once opened; share freely across threads.
/// ReleaseEngine gives one engine's pages back to the kernel without
/// changing a byte any accessor reads.
///
/// Validation reads the index and every engine header serially, then walks
/// each engine's terms on up to `threads` threads, the caller included (one
/// engine per thread at a time; 0 and 1 start no thread). Whatever the
/// thread count, a corrupt image reports the error a serial walk in index
/// order meets first.
class StoreView {
 public:
  /// mmaps the file at `path` and validates the image on the caller. The
  /// returned view owns the mapping; it is unmapped when the last reference
  /// drops (the broker's RELOAD swap relies on this). The mapping is made
  /// with MADV_NOHUGEPAGE, so each page stays resident or not on its own
  /// and ReleaseEngine can drop one engine's pages.
  static Result<std::shared_ptr<const StoreView>> Open(const std::string& path);

  /// Like Open(path), mapping the already open `file` (which need not stay
  /// open afterwards) and validating on up to `threads` threads.
  static Result<std::shared_ptr<const StoreView>> Open(const InputFile& file,
                                                       std::size_t threads = 1);

  /// Validates an in-memory image (tests, corruption probes) on up to
  /// `threads` threads.
  static Result<std::shared_ptr<const StoreView>> FromBuffer(
      std::string bytes, std::size_t threads = 1);

  ~StoreView();
  StoreView(const StoreView&) = delete;
  StoreView& operator=(const StoreView&) = delete;

  std::size_t num_engines() const { return engines_.size(); }
  std::size_t file_bytes() const { return size_; }

  /// The engine named `name`, or nullopt. Binary search over the sorted
  /// index; the result points into this view's mapping.
  std::optional<RepresentativeView> Find(std::string_view name) const;

  /// The i-th engine in name order.
  const RepresentativeView& engine(std::size_t i) const {
    return engines_[i];
  }

  /// Drops the whole pages inside engine `i`'s block from this process
  /// (madvise MADV_DONTNEED): a read of them afterwards faults the same
  /// file bytes back in, so releasing an engine that is still read costs
  /// faults, never a wrong byte. The pages it shares with a neighbouring
  /// block, and the index holding the engine names, stay. A no-op for a
  /// buffer-backed view.
  void ReleaseEngine(std::size_t i) const;

 private:
  StoreView() = default;
  static Result<std::shared_ptr<const StoreView>> Validate(
      std::shared_ptr<StoreView> view, std::size_t threads);

  const unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
  void* map_ = nullptr;        // non-null when mmap-backed
  std::size_t map_len_ = 0;
  std::string owned_;          // backing bytes when buffer-backed
  std::vector<RepresentativeView> engines_;  // sorted by engine_name
};

}  // namespace useful::represent
