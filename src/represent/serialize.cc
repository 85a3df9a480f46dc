#include "represent/serialize.h"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "represent/input_file.h"

namespace useful::represent {

namespace {

constexpr char kMagic[4] = {'U', 'R', 'P', '1'};
// Guards against corrupt headers allocating absurd buffers.
constexpr std::uint64_t kMaxTerms = 1ull << 32;
// Smallest possible on-disk term record: u32 length + empty term bytes +
// the statistics.
constexpr std::uint64_t kMinTermRecordBytes = 4 + kUrp1TermStatsBytes;
// High bit of the kind byte carries the stale-max flag; the low 7 bits
// remain the RepresentativeKind, so files written before the flag existed
// read back with the flag clear and old readers reject flagged files as an
// unknown kind rather than silently mistrusting their max weights.
constexpr std::uint8_t kStaleMaxBit = 0x80;

template <typename T>
void WritePod(std::ostream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

Status WriteString(std::ostream& out, const std::string& s) {
  // The on-disk length is a u32 capped at kMaxUrp1StringBytes; anything
  // longer would either wrap (>= 4 GiB) or be rejected by TakeString, so
  // refuse to produce the unreadable file instead of reporting a phantom
  // OK.
  if (s.size() > kMaxUrp1StringBytes) {
    return Status::InvalidArgument(
        "string exceeds serialization cap (" + std::to_string(s.size()) +
        " > " + std::to_string(kMaxUrp1StringBytes) + " bytes)");
  }
  WritePod(out, static_cast<std::uint32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
  return Status::OK();
}

Result<Representative> ParseRepresentative(std::string_view bytes) {
  Result<Urp1Header> header = ParseUrp1Header(&bytes);
  if (!header.ok()) return header.status();
  const Urp1Header& h = header.value();
  Representative rep(std::string(h.engine_name),
                     static_cast<std::size_t>(h.num_docs), h.kind);
  rep.set_stale_max(h.stale_max);
  for (std::uint64_t i = 0; i < h.num_terms; ++i) {
    std::string_view term;
    TermStats ts;
    USEFUL_RETURN_IF_ERROR(ParseUrp1Term(&bytes, &term, &ts));
    rep.Put(std::string(term), ts);
  }
  return rep;
}

}  // namespace

Status WriteRepresentative(const Representative& rep, std::ostream& out) {
  out.write(kMagic, sizeof(kMagic));
  std::uint8_t kind_byte = static_cast<std::uint8_t>(rep.kind());
  if (rep.stale_max()) kind_byte |= kStaleMaxBit;
  WritePod(out, kind_byte);
  WritePod(out, static_cast<std::uint64_t>(rep.num_docs()));
  USEFUL_RETURN_IF_ERROR(WriteString(out, rep.engine_name()));
  WritePod(out, static_cast<std::uint64_t>(rep.num_terms()));
  for (const auto& [term, ts] : rep.stats()) {
    USEFUL_RETURN_IF_ERROR(WriteString(out, term));
    WritePod(out, ts.doc_freq);
    WritePod(out, ts.p);
    WritePod(out, ts.avg_weight);
    WritePod(out, ts.stddev);
    WritePod(out, ts.max_weight);
  }
  if (!out) return Status::IOError("write failed");
  return Status::OK();
}

Result<Urp1Header> ParseUrp1Header(std::string_view* bytes) {
  if (bytes->size() < sizeof(kMagic) ||
      std::memcmp(bytes->data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad magic (not a representative file)");
  }
  bytes->remove_prefix(sizeof(kMagic));
  Urp1Header h;
  std::uint8_t kind_raw = 0;
  if (!TakePod(bytes, &kind_raw) || !TakePod(bytes, &h.num_docs)) {
    return Status::Corruption("truncated header");
  }
  h.stale_max = (kind_raw & kStaleMaxBit) != 0;
  kind_raw &= static_cast<std::uint8_t>(~kStaleMaxBit);
  if (kind_raw > static_cast<std::uint8_t>(RepresentativeKind::kQuadruplet)) {
    return Status::Corruption("unknown representative kind");
  }
  h.kind = static_cast<RepresentativeKind>(kind_raw);
  USEFUL_RETURN_IF_ERROR(TakeString(bytes, &h.engine_name));
  if (!TakePod(bytes, &h.num_terms)) {
    return Status::Corruption("truncated count");
  }
  if (h.num_terms > kMaxTerms) {
    return Status::Corruption("term count too large");
  }
  // A corrupt count must not drive a long allocation loop: every term
  // record costs at least kMinTermRecordBytes, so the remaining byte
  // count bounds the plausible term count up front.
  if (h.num_terms > bytes->size() / kMinTermRecordBytes) {
    return Status::Corruption("term count exceeds stream size");
  }
  return h;
}

Result<Representative> ReadRepresentative(std::istream& in) {
  std::ostringstream rest;
  // An empty stream inserts nothing and fails `rest`, which is harmless:
  // the empty string is then rejected as a bad magic.
  rest << in.rdbuf();
  return ParseRepresentative(rest.view());
}

Status SaveRepresentative(const Representative& rep, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  return WriteRepresentative(rep, out);
}

Result<Representative> LoadRepresentative(const std::string& path) {
  Result<FileImage> image = ReadFileImage(path);
  if (!image.ok()) return image.status();
  return ParseRepresentative(image.value().view());
}

}  // namespace useful::represent
