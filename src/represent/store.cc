#include "represent/store.h"

#include <sys/mman.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>

#include "represent/input_file.h"
#include "util/thread_pool.h"

namespace useful::represent {
namespace {

constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kFileHeaderBytes = 32;
constexpr std::size_t kEngineHeaderBytes = 80;
// An index entry without its name: block offset, block bytes, name length.
constexpr std::size_t kIndexEntryBytes = 20;
// Same cap the URP1 reader enforces per string.
constexpr std::size_t kMaxNameLen = 1u << 20;

void AppendPod32(std::string* out, std::uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void AppendPod64(std::string* out, std::uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void AppendVarint(std::string* out, std::uint32_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

/// Reads a LEB128 u32 from [*pos, end); false on truncation or overlong
/// encodings that exceed 32 bits.
bool ReadVarint(const unsigned char** pos, const unsigned char* end,
                std::uint32_t* v) {
  std::uint32_t result = 0;
  int shift = 0;
  while (*pos < end && shift < 35) {
    const unsigned char byte = **pos;
    ++*pos;
    result |= static_cast<std::uint32_t>(byte & 0x7f) << shift;
    if (!(byte & 0x80)) {
      *v = result;
      return true;
    }
    shift += 7;
  }
  return false;
}

std::size_t CommonPrefixLen(std::string_view a, std::string_view b) {
  const std::size_t limit = std::min(a.size(), b.size());
  std::size_t i = 0;
  while (i < limit && a[i] == b[i]) ++i;
  return i;
}

std::uint32_t ReadU32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint64_t ReadU64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

Result<std::string> EncodeEngine(const Representative& rep,
                                 const PackOptions& options) {
  if (rep.num_terms() == 0) {
    return Status::FailedPrecondition("EncodeStore: engine '" +
                                      rep.engine_name() +
                                      "' has an empty representative");
  }
  if (options.restart_interval == 0) {
    return Status::InvalidArgument("EncodeStore: restart_interval must be > 0");
  }
  const auto sorted = SortedTerms(rep);
  for (const auto* entry : sorted) {
    if (entry->first.size() > kMaxNameLen) {
      return Status::InvalidArgument("EncodeStore: term exceeds length cap");
    }
  }
  auto fq = TrainFieldQuantizers(rep, sorted);
  if (!fq.ok()) return fq.status();

  const bool quad = rep.kind() == RepresentativeKind::kQuadruplet;
  const std::uint32_t num_fields = quad ? 4 : 3;
  const std::uint64_t num_terms = sorted.size();
  const std::uint32_t interval = options.restart_interval;
  const std::uint32_t num_restarts = static_cast<std::uint32_t>(
      (num_terms + interval - 1) / interval);

  // Front-coded term blob + restart offsets.
  std::string terms;
  std::vector<std::uint32_t> restarts;
  restarts.reserve(num_restarts);
  std::string_view prev;
  for (std::uint64_t i = 0; i < num_terms; ++i) {
    const std::string& term = sorted[i]->first;
    std::size_t shared = 0;
    if (i % interval == 0) {
      if (terms.size() > std::numeric_limits<std::uint32_t>::max()) {
        return Status::InvalidArgument("EncodeStore: term blob exceeds 4 GiB");
      }
      restarts.push_back(static_cast<std::uint32_t>(terms.size()));
    } else {
      shared = CommonPrefixLen(prev, term);
    }
    AppendVarint(&terms, static_cast<std::uint32_t>(shared));
    AppendVarint(&terms, static_cast<std::uint32_t>(term.size() - shared));
    terms.append(term.data() + shared, term.size() - shared);
    prev = term;
  }

  // Column-major codes + doc-freq presence bits.
  std::string codes(num_fields * num_terms, '\0');
  std::string dfbits((num_terms + 7) / 8, '\0');
  const FieldQuantizers& q = fq.value();
  for (std::uint64_t i = 0; i < num_terms; ++i) {
    const TermStats& ts = sorted[i]->second;
    codes[i] = static_cast<char>(q.p.Encode(ts.p));
    codes[num_terms + i] = static_cast<char>(q.weight.Encode(ts.avg_weight));
    codes[2 * num_terms + i] = static_cast<char>(q.stddev.Encode(ts.stddev));
    if (quad) {
      codes[3 * num_terms + i] =
          static_cast<char>(q.max_weight.Encode(ts.max_weight));
    }
    if (ts.doc_freq > 0) dfbits[i / 8] |= static_cast<char>(1u << (i % 8));
  }

  const std::uint64_t codebook_bytes = num_fields * 256ull * sizeof(double);
  const std::uint64_t restarts_offset = kEngineHeaderBytes + codebook_bytes;
  const std::uint64_t dfbits_offset =
      restarts_offset + num_restarts * sizeof(std::uint32_t);
  const std::uint64_t terms_offset = dfbits_offset + dfbits.size();
  const std::uint64_t codes_offset = terms_offset + terms.size();
  const std::uint64_t block_bytes = codes_offset + codes.size();

  std::string block;
  block.reserve(block_bytes);
  std::uint32_t kind_flags = 0;
  if (quad) kind_flags |= 1u << 0;
  if (rep.stale_max()) kind_flags |= 1u << 1;
  AppendPod32(&block, kind_flags);
  AppendPod32(&block, num_fields);
  AppendPod64(&block, rep.num_docs());
  AppendPod64(&block, num_terms);
  AppendPod32(&block, interval);
  AppendPod32(&block, num_restarts);
  AppendPod64(&block, restarts_offset);
  AppendPod64(&block, dfbits_offset);
  AppendPod64(&block, terms_offset);
  AppendPod64(&block, terms.size());
  AppendPod64(&block, codes_offset);
  AppendPod64(&block, block_bytes);

  const ByteQuantizer* field_q[4] = {&q.p, &q.weight, &q.stddev,
                                     &q.max_weight};
  for (std::uint32_t f = 0; f < num_fields; ++f) {
    for (int c = 0; c < 256; ++c) {
      const double v = field_q[f]->Decode(static_cast<std::uint8_t>(c));
      block.append(reinterpret_cast<const char*>(&v), sizeof(v));
    }
  }
  for (std::uint32_t off : restarts) AppendPod32(&block, off);
  block += dfbits;
  block += terms;
  block += codes;
  return block;
}

}  // namespace

Result<std::string> EncodeStore(const std::vector<const Representative*>& reps,
                                const PackOptions& options) {
  std::vector<const Representative*> sorted = reps;
  std::sort(sorted.begin(), sorted.end(),
            [](const Representative* a, const Representative* b) {
              return a->engine_name() < b->engine_name();
            });
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i]->engine_name().size() > kMaxNameLen) {
      return Status::InvalidArgument("EncodeStore: engine name exceeds cap");
    }
    if (i > 0 && sorted[i]->engine_name() == sorted[i - 1]->engine_name()) {
      return Status::InvalidArgument("EncodeStore: duplicate engine name '" +
                                     sorted[i]->engine_name() + "'");
    }
  }

  std::string file(kFileHeaderBytes, '\0');
  struct IndexEntry {
    std::uint64_t offset;
    std::uint64_t bytes;
    const std::string* name;
  };
  std::vector<IndexEntry> index;
  index.reserve(sorted.size());
  for (const Representative* rep : sorted) {
    auto block = EncodeEngine(*rep, options);
    if (!block.ok()) return block.status();
    // Engine blocks are 8-byte aligned so the codebook doubles are too.
    file.append((8 - file.size() % 8) % 8, '\0');
    index.push_back(IndexEntry{file.size(), block.value().size(),
                               &rep->engine_name()});
    file += block.value();
  }

  const std::uint64_t index_offset = file.size();
  for (const IndexEntry& e : index) {
    AppendPod64(&file, e.offset);
    AppendPod64(&file, e.bytes);
    AppendPod32(&file, static_cast<std::uint32_t>(e.name->size()));
    file += *e.name;
  }

  std::string header;
  header.reserve(kFileHeaderBytes);
  header.append(kStoreMagic);
  AppendPod32(&header, kVersion);
  AppendPod32(&header, static_cast<std::uint32_t>(index.size()));
  AppendPod32(&header, 0);  // reserved
  AppendPod64(&header, index_offset);
  AppendPod64(&header, file.size());
  std::memcpy(file.data(), header.data(), kFileHeaderBytes);
  return file;
}

Status PackStoreToFile(const std::vector<const Representative*>& reps,
                       const std::string& path, const PackOptions& options) {
  auto image = EncodeStore(reps, options);
  if (!image.ok()) return image.status();
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("cannot open " + tmp + " for writing");
    out.write(image.value().data(),
              static_cast<std::streamsize>(image.value().size()));
    out.flush();
    if (!out) return Status::IOError("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("rename " + tmp + " -> " + path + " failed: " +
                           std::strerror(errno));
  }
  return Status::OK();
}

std::string_view RepresentativeView::TermAtRestart(std::size_t r) const {
  const unsigned char* pos = terms_ + RestartOffset(r);
  const unsigned char* end = terms_ + terms_bytes_;
  std::uint32_t shared = 0, len = 0;
  ReadVarint(&pos, end, &shared);  // validated 0 at open
  ReadVarint(&pos, end, &len);
  return std::string_view(reinterpret_cast<const char*>(pos), len);
}

void RepresentativeView::DecodeTermInto(std::size_t i, std::string* out) const {
  const std::size_t r = i / restart_interval_;
  const unsigned char* pos = terms_ + RestartOffset(r);
  const unsigned char* end = terms_ + terms_bytes_;
  out->clear();
  for (std::size_t j = r * restart_interval_; j <= i; ++j) {
    std::uint32_t shared = 0, suffix = 0;
    ReadVarint(&pos, end, &shared);
    ReadVarint(&pos, end, &suffix);
    out->resize(shared);
    out->append(reinterpret_cast<const char*>(pos), suffix);
    pos += suffix;
  }
}

TermStats RepresentativeView::StatsAt(std::size_t i) const {
  TermStats ts;
  ts.p = CodebookValue(0, codes_[i]);
  ts.avg_weight = CodebookValue(1, codes_[num_terms_ + i]);
  ts.stddev = CodebookValue(2, codes_[2 * num_terms_ + i]);
  ts.max_weight =
      num_fields_ == 4 ? CodebookValue(3, codes_[3 * num_terms_ + i]) : 0.0;
  ts.doc_freq = QuantizedDocFreq(ts.p, static_cast<std::size_t>(num_docs_),
                                 DfBit(i) ? 1u : 0u);
  return ts;
}

std::optional<TermStats> RepresentativeView::Find(std::string_view term) const {
  if (num_terms_ == 0) return std::nullopt;

  // Largest restart whose (fully stored) first term is <= `term`.
  if (TermAtRestart(0) > term) return std::nullopt;
  std::size_t lo = 0, hi = num_restarts_ - 1;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo + 1) / 2;
    if (TermAtRestart(mid) <= term) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }

  // Scan the block, tracking lcp = common prefix of `term` and the current
  // dictionary entry. Entries only re-materialize the bytes they change,
  // so the scan never copies a term. An entry may share fewer bytes with
  // its predecessor than it could (validation accepts any ascending
  // coding), so one sharing fewer than lcp is compared, not skipped.
  const unsigned char* pos = terms_ + RestartOffset(lo);
  const unsigned char* end = terms_ + terms_bytes_;
  std::size_t idx = lo * restart_interval_;
  const std::size_t limit =
      std::min<std::size_t>(num_terms_, idx + restart_interval_);

  std::uint32_t shared = 0, suffix_len = 0;
  ReadVarint(&pos, end, &shared);
  ReadVarint(&pos, end, &suffix_len);
  const char* suffix = reinterpret_cast<const char*>(pos);
  pos += suffix_len;
  std::size_t lcp = CommonPrefixLen(term, {suffix, suffix_len});
  if (lcp == suffix_len && lcp == term.size()) return StatsAt(idx);
  if (lcp < suffix_len &&
      (lcp == term.size() ||
       static_cast<unsigned char>(suffix[lcp]) >
           static_cast<unsigned char>(term[lcp]))) {
    return std::nullopt;  // first block entry already past `term`
  }

  while (++idx < limit) {
    ReadVarint(&pos, end, &shared);
    ReadVarint(&pos, end, &suffix_len);
    suffix = reinterpret_cast<const char*>(pos);
    pos += suffix_len;
    if (shared > lcp) continue;  // still below `term`
    // The entry's first `shared` bytes are `term`'s; compare the rest.
    const std::size_t m = CommonPrefixLen(term.substr(shared),
                                          {suffix, suffix_len});
    lcp = shared + m;
    if (m == suffix_len) {
      if (lcp == term.size()) return StatsAt(idx);
      continue;  // dictionary term is a proper prefix of `term`: below it
    }
    if (lcp == term.size() ||
        static_cast<unsigned char>(suffix[m]) >
            static_cast<unsigned char>(term[lcp])) {
      return std::nullopt;  // dictionary term is above `term`
    }
  }
  return std::nullopt;
}

Representative RepresentativeView::Materialize() const {
  Representative rep(std::string(engine_name()), num_docs(), kind());
  rep.set_stale_max(stale_max());
  ForEachTerm([&rep](std::string_view term, const TermStats& ts) {
    rep.Put(std::string(term), ts);
  });
  return rep;
}

Status RepresentativeView::ValidateTerms() const {
  // Walk the whole front-coded blob once: exact term count, restart
  // offsets that match the recorded table, shared prefixes that stay
  // within the previous term, and strictly ascending terms (the binary
  // search and scan both rely on sortedness). An entry is
  // prev[0, shared) + suffix, so it is above `prev` exactly when
  // `suffix` is above prev[shared:]; `prev` is extended in place.
  const unsigned char* pos = terms_;
  const unsigned char* end = terms_ + terms_bytes_;
  std::string prev;
  for (std::uint64_t i = 0; i < num_terms_; ++i) {
    if (i % restart_interval_ == 0) {
      const std::uint64_t r = i / restart_interval_;
      if (RestartOffset(r) != static_cast<std::uint64_t>(pos - terms_)) {
        return Status::Corruption("URPZ: restart offset mismatch");
      }
    }
    std::uint32_t shared = 0, suffix_len = 0;
    if (!ReadVarint(&pos, end, &shared) ||
        !ReadVarint(&pos, end, &suffix_len)) {
      return Status::Corruption("URPZ: truncated term entry");
    }
    if (i % restart_interval_ == 0 && shared != 0) {
      return Status::Corruption("URPZ: nonzero shared prefix at restart");
    }
    if (shared > prev.size() ||
        suffix_len > static_cast<std::uint64_t>(end - pos)) {
      return Status::Corruption("URPZ: term entry out of bounds");
    }
    const std::string_view suffix(reinterpret_cast<const char*>(pos),
                                  suffix_len);
    pos += suffix_len;
    if (i > 0 && !(std::string_view(prev).substr(shared) < suffix)) {
      return Status::Corruption("URPZ: terms not strictly ascending");
    }
    prev.resize(shared);
    prev.append(suffix);
  }
  if (pos != end) {
    return Status::Corruption("URPZ: trailing bytes in term blob");
  }
  return Status::OK();
}

StoreView::~StoreView() {
  if (map_ != nullptr) ::munmap(map_, map_len_);
}

void StoreView::ReleaseEngine(std::size_t i) const {
  // DONTNEED on the heap bytes of a buffer-backed view would zero them.
  if (map_ == nullptr) return;
  const RepresentativeView& engine = engines_[i];
  AdviseWholePages(engine.codebooks_ - kEngineHeaderBytes,
                   engine.block_bytes(), MADV_DONTNEED);
}

std::optional<RepresentativeView> StoreView::Find(std::string_view name) const {
  auto it = std::lower_bound(engines_.begin(), engines_.end(), name,
                             [](const RepresentativeView& e,
                                std::string_view n) {
                               return e.engine_name() < n;
                             });
  if (it == engines_.end() || it->engine_name() != name) return std::nullopt;
  return *it;
}

Result<std::shared_ptr<const StoreView>> StoreView::Validate(
    std::shared_ptr<StoreView> view, std::size_t threads) {
  const unsigned char* data = view->data_;
  const std::size_t size = view->size_;
  if (size < kFileHeaderBytes) {
    return Status::Corruption("URPZ: file smaller than header");
  }
  if (std::memcmp(data, kStoreMagic.data(), kStoreMagic.size()) != 0) {
    return Status::Corruption("URPZ: bad magic");
  }
  if (ReadU32(data + 4) != kVersion) {
    return Status::Corruption("URPZ: unsupported version");
  }
  const std::uint32_t num_engines = ReadU32(data + 8);
  const std::uint64_t index_offset = ReadU64(data + 16);
  const std::uint64_t file_bytes = ReadU64(data + 24);
  if (file_bytes != size) {
    return Status::Corruption("URPZ: header size does not match file size");
  }
  if (index_offset > size) {
    return Status::Corruption("URPZ: index offset out of bounds");
  }
  // Every index entry takes at least kIndexEntryBytes, so a count the
  // index cannot hold is corrupt before it sizes an allocation.
  if (num_engines > (size - index_offset) / kIndexEntryBytes) {
    return Status::Corruption("URPZ: engine count exceeds index size");
  }

  // Pass 1, serial: the index (engine extents and names) and each engine's
  // header, in index order, up to the first bad entry.
  const unsigned char* cursor = data + index_offset;
  const unsigned char* file_end = data + size;
  std::string_view prev_name;
  auto read_entry = [&](std::uint32_t e) -> Status {
    if (file_end - cursor < static_cast<std::ptrdiff_t>(kIndexEntryBytes)) {
      return Status::Corruption("URPZ: truncated engine index");
    }
    const std::uint64_t block_offset = ReadU64(cursor);
    const std::uint64_t block_bytes = ReadU64(cursor + 8);
    const std::uint32_t name_len = ReadU32(cursor + 16);
    cursor += kIndexEntryBytes;
    if (name_len > kMaxNameLen ||
        static_cast<std::uint64_t>(file_end - cursor) < name_len) {
      return Status::Corruption("URPZ: engine name out of bounds");
    }
    const std::string_view name(reinterpret_cast<const char*>(cursor),
                                name_len);
    cursor += name_len;
    if (e > 0 && !(prev_name < name)) {
      return Status::Corruption("URPZ: engine index not sorted by name");
    }
    prev_name = name;
    if (block_offset > size || block_bytes > size - block_offset ||
        block_offset % 8 != 0) {
      return Status::Corruption("URPZ: engine block out of bounds");
    }
    if (block_bytes < kEngineHeaderBytes) {
      return Status::Corruption("URPZ: engine block smaller than header");
    }

    const unsigned char* block = data + block_offset;
    RepresentativeView rv;
    rv.name_ = name;
    rv.kind_flags_ = ReadU32(block);
    rv.num_fields_ = ReadU32(block + 4);
    rv.num_docs_ = ReadU64(block + 8);
    rv.num_terms_ = ReadU64(block + 16);
    rv.restart_interval_ = ReadU32(block + 24);
    rv.num_restarts_ = ReadU32(block + 28);
    const std::uint64_t restarts_offset = ReadU64(block + 32);
    const std::uint64_t dfbits_offset = ReadU64(block + 40);
    const std::uint64_t terms_offset = ReadU64(block + 48);
    rv.terms_bytes_ = ReadU64(block + 56);
    const std::uint64_t codes_offset = ReadU64(block + 64);
    rv.block_bytes_ = ReadU64(block + 72);

    if (rv.block_bytes_ != block_bytes) {
      return Status::Corruption("URPZ: engine block size mismatch");
    }
    const std::uint32_t expected_fields =
        (rv.kind_flags_ & RepresentativeView::kQuadrupletFlag) ? 4 : 3;
    if (rv.num_fields_ != expected_fields) {
      return Status::Corruption("URPZ: field count does not match kind");
    }
    if (rv.restart_interval_ == 0 || rv.num_terms_ == 0) {
      return Status::Corruption("URPZ: empty engine block");
    }
    const std::uint64_t expected_restarts =
        (rv.num_terms_ + rv.restart_interval_ - 1) / rv.restart_interval_;
    if (rv.num_restarts_ != expected_restarts) {
      return Status::Corruption("URPZ: restart count mismatch");
    }
    const std::uint64_t codebook_bytes =
        rv.num_fields_ * 256ull * sizeof(double);
    const std::uint64_t dfbits_bytes = (rv.num_terms_ + 7) / 8;
    const std::uint64_t codes_bytes = rv.num_fields_ * rv.num_terms_;
    // Section bounds: each section must lie inside the block and follow
    // the canonical order so sizes can be cross-checked.
    if (restarts_offset != kEngineHeaderBytes + codebook_bytes ||
        dfbits_offset !=
            restarts_offset + rv.num_restarts_ * sizeof(std::uint32_t) ||
        terms_offset != dfbits_offset + dfbits_bytes ||
        codes_offset != terms_offset + rv.terms_bytes_ ||
        codes_offset + codes_bytes != rv.block_bytes_) {
      return Status::Corruption("URPZ: engine section layout inconsistent");
    }
    rv.codebooks_ = block + kEngineHeaderBytes;
    rv.restarts_ = block + restarts_offset;
    rv.dfbits_ = block + dfbits_offset;
    rv.terms_ = block + terms_offset;
    rv.codes_ = block + codes_offset;
    view->engines_.push_back(rv);
    return Status::OK();
  };
  view->engines_.reserve(num_engines);
  Status index_status;
  for (std::uint32_t e = 0; e < num_engines && index_status.ok(); ++e) {
    index_status = read_entry(e);
  }

  // Pass 2: the term walks of the engines before the first bad entry, one
  // engine per pool index; walk e writes only walks[e]. A serial walk
  // checks engine e's entry after the walks of engines 0..e-1, so the
  // report keeps its order: the first failing walk, then the bad entry,
  // then the bytes after the index.
  std::vector<Status> walks(view->engines_.size());
  util::ThreadPool pool(util::ThreadPool::ThreadsFor(walks.size(), threads));
  pool.ParallelFor(walks.size(), [&](std::size_t e) {
    walks[e] = view->engines_[e].ValidateTerms();
  });
  for (const Status& walk : walks) {
    if (!walk.ok()) return walk;
  }
  if (!index_status.ok()) return index_status;
  if (cursor != file_end) {
    return Status::Corruption("URPZ: trailing bytes after engine index");
  }
  return std::shared_ptr<const StoreView>(std::move(view));
}

Result<std::shared_ptr<const StoreView>> StoreView::Open(
    const std::string& path) {
  Result<InputFile> file = InputFile::Open(path);
  if (!file.ok()) {
    return Status::IOError("open " + path + ": " + file.status().message());
  }
  return Open(file.value());
}

Result<std::shared_ptr<const StoreView>> StoreView::Open(
    const InputFile& file, std::size_t threads) {
  const std::string& path = file.path();
  struct stat st;
  if (::fstat(file.fd(), &st) != 0) {
    const int err = errno;
    return Status::IOError("fstat " + path + ": " + std::strerror(err));
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  if (size == 0) return Status::Corruption("URPZ: empty file " + path);
  // The mapping keeps the file alive after the descriptor closes.
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, file.fd(), 0);
  if (map == MAP_FAILED) {
    const int err = errno;
    return Status::IOError("mmap " + path + ": " + std::strerror(err));
  }
  // Where the page cache holds the file in large folios, a mapping of 2
  // MiB or more may map one whole folio at once (a PMD entry): DONTNEED on
  // a few of its pages then drops the whole folio's mapping, and the next
  // read maps all of it back. Asked before the first read, the hint keeps
  // every page mapped on its own, so ReleaseEngine frees exactly its
  // engine's pages. Only a hint: the result is ignored.
  ::madvise(map, size, MADV_NOHUGEPAGE);
  auto view = std::shared_ptr<StoreView>(new StoreView());
  view->map_ = map;
  view->map_len_ = size;
  view->data_ = static_cast<const unsigned char*>(map);
  view->size_ = size;
  return Validate(std::move(view), threads);
}

Result<std::shared_ptr<const StoreView>> StoreView::FromBuffer(
    std::string bytes, std::size_t threads) {
  auto view = std::shared_ptr<StoreView>(new StoreView());
  view->owned_ = std::move(bytes);
  view->data_ = reinterpret_cast<const unsigned char*>(view->owned_.data());
  view->size_ = view->owned_.size();
  return Validate(std::move(view), threads);
}

}  // namespace useful::represent
