#include "represent/serialize.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "represent/input_file.h"
#include "represent/term_table.h"
#include "urp1_parity.h"
#include "util/random.h"

namespace useful::represent {
namespace {

Representative MakeRep() {
  Representative rep("engine-7", 1234, RepresentativeKind::kQuadruplet);
  rep.Put("alpha", TermStats{0.5, 0.12, 0.03, 0.4, 617});
  rep.Put("beta", TermStats{0.001, 0.9, 0.0, 0.9, 1});
  rep.Put("", TermStats{0.25, 0.5, 0.1, 0.6, 308});  // empty term survives
  return rep;
}

TEST(SerializeTest, StreamRoundTrip) {
  Representative orig = MakeRep();
  std::stringstream ss;
  ASSERT_TRUE(WriteRepresentative(orig, ss).ok());
  auto loaded = ReadBoth(ss);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Representative& rep = loaded.value();
  EXPECT_EQ(rep.engine_name(), "engine-7");
  EXPECT_EQ(rep.num_docs(), 1234u);
  EXPECT_EQ(rep.kind(), RepresentativeKind::kQuadruplet);
  ASSERT_EQ(rep.num_terms(), 3u);
  auto alpha = rep.Find("alpha");
  ASSERT_TRUE(alpha.has_value());
  EXPECT_DOUBLE_EQ(alpha->p, 0.5);
  EXPECT_DOUBLE_EQ(alpha->avg_weight, 0.12);
  EXPECT_DOUBLE_EQ(alpha->stddev, 0.03);
  EXPECT_DOUBLE_EQ(alpha->max_weight, 0.4);
  EXPECT_EQ(alpha->doc_freq, 617u);
  EXPECT_TRUE(rep.Find("").has_value());
}

TEST(SerializeTest, TripletKindRoundTrips) {
  Representative orig("t", 5, RepresentativeKind::kTriplet);
  orig.Put("x", TermStats{0.2, 0.3, 0.1, 0.0, 1});
  std::stringstream ss;
  ASSERT_TRUE(WriteRepresentative(orig, ss).ok());
  auto loaded = ReadBoth(ss);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().kind(), RepresentativeKind::kTriplet);
}

TEST(SerializeTest, EmptyRepresentativeRoundTrips) {
  Representative orig("empty", 0, RepresentativeKind::kQuadruplet);
  std::stringstream ss;
  ASSERT_TRUE(WriteRepresentative(orig, ss).ok());
  auto loaded = ReadBoth(ss);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_terms(), 0u);
}

TEST(SerializeTest, RejectsBadMagic) {
  std::stringstream ss;
  ss << "NOPE garbage";
  auto r = ReadBoth(ss);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kCorruption);
}

TEST(SerializeTest, RejectsTruncatedHeader) {
  std::stringstream ss;
  ss << "URP1";
  auto r = ReadBoth(ss);
  EXPECT_FALSE(r.ok());
}

TEST(SerializeTest, RejectsTruncatedBody) {
  Representative orig = MakeRep();
  std::stringstream ss;
  ASSERT_TRUE(WriteRepresentative(orig, ss).ok());
  std::string bytes = ss.str();
  for (std::size_t cut : {bytes.size() - 1, bytes.size() / 2, 6ul}) {
    std::stringstream truncated(bytes.substr(0, cut));
    auto r = ReadBoth(truncated);
    EXPECT_FALSE(r.ok()) << "cut=" << cut;
    EXPECT_EQ(r.status().code(), Status::Code::kCorruption);
  }
}

TEST(SerializeTest, StaleMaxFlagRoundTrips) {
  Representative flagged = MakeRep();
  flagged.set_stale_max(true);
  std::stringstream ss;
  ASSERT_TRUE(WriteRepresentative(flagged, ss).ok());
  auto loaded = ReadBoth(ss);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value().stale_max());
  // The flag rides the kind byte's high bit; the kind itself survives.
  EXPECT_EQ(loaded.value().kind(), RepresentativeKind::kQuadruplet);

  std::stringstream clean;
  ASSERT_TRUE(WriteRepresentative(MakeRep(), clean).ok());
  auto fresh = ReadBoth(clean);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh.value().stale_max());
}

TEST(SerializeTest, RejectsUnknownKind) {
  Representative orig = MakeRep();
  std::stringstream ss;
  ASSERT_TRUE(WriteRepresentative(orig, ss).ok());
  std::string bytes = ss.str();
  bytes[4] = 9;  // kind byte
  std::stringstream bad(bytes);
  auto r = ReadBoth(bad);
  EXPECT_FALSE(r.ok());
}

TEST(SerializeTest, RejectsAbsurdStringLength) {
  // Header: magic, kind, num_docs, then a name length of ~4 GB.
  std::string bytes = "URP1";
  bytes.push_back(1);
  std::uint64_t docs = 1;
  bytes.append(reinterpret_cast<const char*>(&docs), 8);
  std::uint32_t len = 0xfffffff0;
  bytes.append(reinterpret_cast<const char*>(&len), 4);
  std::stringstream bad(bytes);
  auto r = ReadBoth(bad);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kCorruption);
}

// Builds a valid header (magic, kind, num_docs, name) claiming
// `num_terms` term records; callers append the (possibly short) records.
std::string HeaderClaiming(std::uint64_t num_terms) {
  std::string bytes = "URP1";
  bytes.push_back(1);  // kQuadruplet
  std::uint64_t docs = 10;
  bytes.append(reinterpret_cast<const char*>(&docs), 8);
  std::uint32_t name_len = 3;
  bytes.append(reinterpret_cast<const char*>(&name_len), 4);
  bytes.append("eng");
  bytes.append(reinterpret_cast<const char*>(&num_terms), 8);
  return bytes;
}

TEST(SerializeTest, RejectsTruncatedTermTable) {
  // Header promises two terms but the body carries only one full record.
  std::string bytes = HeaderClaiming(2);
  std::uint32_t term_len = 5;
  bytes.append(reinterpret_cast<const char*>(&term_len), 4);
  bytes.append("alpha");
  std::uint32_t doc_freq = 4;
  bytes.append(reinterpret_cast<const char*>(&doc_freq), 4);
  double numbers[4] = {0.4, 0.5, 0.1, 0.9};
  bytes.append(reinterpret_cast<const char*>(numbers), sizeof(numbers));
  std::stringstream in(bytes);
  auto r = ReadBoth(in);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kCorruption);
}

TEST(SerializeTest, RejectsTruncatedTermStringBody) {
  // A term announces 100 bytes but the stream ends after 3.
  std::string bytes = HeaderClaiming(1);
  std::uint32_t term_len = 100;
  bytes.append(reinterpret_cast<const char*>(&term_len), 4);
  bytes.append("abc");
  // Enough trailing bytes to pass the up-front terms-vs-stream-size bound
  // (one minimum-width record), but short of the 100 announced above.
  bytes.append(36, '\0');
  std::stringstream in(bytes);
  auto r = ReadBoth(in);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kCorruption);
  EXPECT_NE(r.status().message().find("truncated string body"),
            std::string::npos);
}

TEST(SerializeTest, RejectsTermLengthOverCap) {
  // Term length just past kMaxStringLen (1 MiB) must fail cleanly before
  // any allocation, not attempt a giant read.
  std::string bytes = HeaderClaiming(1);
  std::uint32_t term_len = (1u << 20) + 1;
  bytes.append(reinterpret_cast<const char*>(&term_len), 4);
  // Pad past the up-front terms-vs-stream-size bound so the length-cap
  // check is the one that fires.
  bytes.append(36, '\0');
  std::stringstream in(bytes);
  auto r = ReadBoth(in);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kCorruption);
  EXPECT_NE(r.status().message().find("string too long"), std::string::npos);
}

TEST(SerializeTest, WriteRejectsTermOverCap) {
  // A term longer than the reader's kMaxStringLen cap must fail at WRITE
  // time: the old code silently truncated the length to u32 semantics and
  // reported OK for a file every reader rejects as corrupt.
  Representative rep("engine", 10, RepresentativeKind::kQuadruplet);
  rep.Put(std::string((1u << 20) + 1, 'x'), TermStats{0.1, 0.2, 0.1, 0.3, 1});
  std::stringstream ss;
  Status s = WriteRepresentative(rep, ss);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(s.message().find("serialization cap"), std::string::npos);
}

TEST(SerializeTest, WriteRejectsEngineNameOverCap) {
  Representative rep(std::string((1u << 20) + 1, 'n'), 10,
                     RepresentativeKind::kQuadruplet);
  rep.Put("ok", TermStats{0.1, 0.2, 0.1, 0.3, 1});
  std::stringstream ss;
  Status s = WriteRepresentative(rep, ss);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
}

TEST(SerializeTest, SaveReportsOversizedStringInsteadOfOk) {
  auto path = std::filesystem::temp_directory_path() / "useful_rep_cap.bin";
  Representative rep("engine", 10, RepresentativeKind::kQuadruplet);
  rep.Put(std::string((1u << 20) + 1, 'x'), TermStats{0.1, 0.2, 0.1, 0.3, 1});
  EXPECT_FALSE(SaveRepresentative(rep, path.string()).ok());
  std::filesystem::remove(path);
}

TEST(SerializeTest, MaxLengthStringStillWrites) {
  Representative rep("engine", 10, RepresentativeKind::kQuadruplet);
  rep.Put(std::string(1u << 20, 'x'), TermStats{0.1, 0.2, 0.1, 0.3, 1});
  std::stringstream ss;
  ASSERT_TRUE(WriteRepresentative(rep, ss).ok());
  auto loaded = ReadBoth(ss);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_terms(), 1u);
}

TEST(SerializeTest, RejectsTermCountExceedingStreamSize) {
  // A 50-ish byte file claiming a billion terms must be rejected from the
  // header alone (the old reader ground through an incremental-allocation
  // loop until it happened to hit EOF).
  std::string bytes = HeaderClaiming(1'000'000'000ull);
  std::stringstream in(bytes);
  auto r = ReadBoth(in);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kCorruption);
  EXPECT_NE(r.status().message().find("term count exceeds stream size"),
            std::string::npos);
}

TEST(SerializeTest, TermCountBoundUsesMinimumRecordWidth) {
  // Exactly enough bytes for one minimum-width record but a count of two:
  // still rejected up front.
  std::string bytes = HeaderClaiming(2);
  bytes.append(40, '\0');  // one minimum-width record's worth of bytes
  std::stringstream in(bytes);
  auto r = ReadBoth(in);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kCorruption);
}

TEST(SerializeTest, FileRoundTrip) {
  auto path = std::filesystem::temp_directory_path() / "useful_rep_test.bin";
  Representative orig = MakeRep();
  ASSERT_TRUE(SaveRepresentative(orig, path.string()).ok());
  auto loaded = LoadRepresentative(path.string());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_terms(), orig.num_terms());
  auto table = TermTable::Load(path.string());
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ExpectSameTerms(loaded.value(), table.value());
  std::filesystem::remove(path);
}

TEST(SerializeTest, LoadMissingFileFails) {
  auto r = LoadRepresentative("/nonexistent/rep.bin");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kIOError);
  auto table = TermTable::Load("/nonexistent/rep.bin");
  EXPECT_EQ(table.status().code(), Status::Code::kIOError);
  EXPECT_EQ(table.status().message(), r.status().message());
  // A directory opens but has no byte size to read.
  const std::string dir = std::filesystem::temp_directory_path().string();
  EXPECT_EQ(LoadRepresentative(dir).status().code(), Status::Code::kIOError);
  EXPECT_EQ(TermTable::Load(dir).status().code(), Status::Code::kIOError);
}

// A table holds the bytes it read, not a mapping of the file: truncating
// and rewriting the file in place, as SaveRepresentative does, leaves a
// loaded table's answers as they were.
TEST(SerializeTest, LoadedTableOutlivesRewriteInPlace) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "useful_rep_rewrite.bin")
          .string();
  Representative orig = MakeRep();
  ASSERT_TRUE(SaveRepresentative(orig, path).ok());
  auto table = TermTable::Load(path);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  Representative other("other", 9, RepresentativeKind::kTriplet);
  other.Put("alpha", TermStats{0.9, 0.8, 0.7, 0.0, 8});
  ASSERT_TRUE(SaveRepresentative(other, path).ok());
  auto reread = LoadRepresentative(path);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(reread.value().engine_name(), "other");
  ExpectSameTerms(orig, table.value());
  std::filesystem::remove(path);
}

/// Writes `bytes` to a file and checks that every file loader gives the
/// same outcome: LoadRepresentative and TermTable::Load, by path and
/// through an open InputFile, fail with the same code and message, or
/// all load the same terms.
void ExpectFileLoadersAgree(const std::string& bytes) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "useful_rep_loaders.bin")
          .string();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  Result<Representative> rep = LoadRepresentative(path);
  Result<InputFile> file = InputFile::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  FileImage buffer;
  for (const Result<TermTable>& table :
       {TermTable::Load(path), TermTable::Load(file.value(), &buffer)}) {
    EXPECT_EQ(rep.ok(), table.ok());
    EXPECT_EQ(rep.status().code(), table.status().code());
    EXPECT_EQ(rep.status().message(), table.status().message());
    if (rep.ok() && table.ok()) ExpectSameTerms(rep.value(), table.value());
  }
  std::filesystem::remove(path);
}

/// Writes `bytes` to `path`, replacing the file.
void WriteFile(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// TermTable::Load of `path` through `buffer`.
Result<TermTable> LoadThrough(const std::string& path, FileImage* buffer) {
  Result<InputFile> file = InputFile::Open(path);
  if (!file.ok()) return file.status();
  return TermTable::Load(file.value(), buffer);
}

// A loader reads file after file into one buffer, and a file it reads
// after a larger one is parsed from its own bytes alone. Cut short, so
// that the larger file's bytes left in the buffer would complete it, it
// fails as a fresh read does; whole, its table matches a fresh read's.
TEST(SerializeTest, ReusedReadBufferParsesOnlyTheFileJustRead) {
  Representative large("large", 5000, RepresentativeKind::kQuadruplet);
  Pcg32 rng(11);
  for (int i = 0; i < 400; ++i) {
    large.Put("term" + std::to_string(i),
              TermStats{rng.NextDouble(), rng.NextDouble(), rng.NextDouble(),
                        rng.NextDouble(), 1 + rng.NextBounded(5000)});
  }
  std::stringstream large_image;
  ASSERT_TRUE(WriteRepresentative(large, large_image).ok());
  const auto dir = std::filesystem::temp_directory_path();
  const std::string large_path = (dir / "useful_rep_reuse_large.bin").string();
  const std::string cut_path = (dir / "useful_rep_reuse_cut.bin").string();
  const std::string small_path = (dir / "useful_rep_reuse_small.bin").string();
  WriteFile(large_path, large_image.str());
  WriteFile(cut_path, std::string_view(large_image.str()).substr(
                          0, large_image.str().size() - 7));
  ASSERT_TRUE(SaveRepresentative(MakeRep(), small_path).ok());

  FileImage buffer;
  Result<TermTable> first = LoadThrough(large_path, &buffer);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const std::size_t capacity = buffer.capacity;
  EXPECT_EQ(capacity, large_image.str().size());

  Result<TermTable> cut = LoadThrough(cut_path, &buffer);
  Result<TermTable> fresh_cut = TermTable::Load(cut_path);
  ASSERT_FALSE(fresh_cut.ok());
  EXPECT_EQ(fresh_cut.status().code(), Status::Code::kCorruption);
  ASSERT_FALSE(cut.ok());
  EXPECT_EQ(cut.status().code(), fresh_cut.status().code());
  EXPECT_EQ(cut.status().message(), fresh_cut.status().message());

  Result<TermTable> small = LoadThrough(small_path, &buffer);
  Result<TermTable> fresh_small = TermTable::Load(small_path);
  EXPECT_EQ(buffer.capacity, capacity);  // read into the same storage
  ASSERT_TRUE(small.ok()) << small.status().ToString();
  ASSERT_TRUE(fresh_small.ok()) << fresh_small.status().ToString();
  EXPECT_EQ(small.value().engine_name(), fresh_small.value().engine_name());
  EXPECT_EQ(small.value().num_docs(), fresh_small.value().num_docs());
  EXPECT_EQ(small.value().kind(), fresh_small.value().kind());
  EXPECT_EQ(small.value().stale_max(), fresh_small.value().stale_max());
  EXPECT_EQ(small.value().num_terms(), fresh_small.value().num_terms());
  EXPECT_EQ(small.value().bytes(), fresh_small.value().bytes());
  const Representative small_rep = MakeRep();
  for (const auto& [term, stats] : small_rep.stats()) {
    std::optional<TermStats> reused = small.value().Find(term);
    std::optional<TermStats> fresh = fresh_small.value().Find(term);
    ASSERT_TRUE(reused.has_value() && fresh.has_value()) << term;
    EXPECT_TRUE(BitIdentical(*reused, *fresh)) << term;
  }
  for (const std::string& path : {large_path, cut_path, small_path}) {
    std::filesystem::remove(path);
  }
}

/// MakeRep's image with its engine name padded to make it `size` bytes.
std::string ImageOfSize(std::size_t size) {
  const Representative rep = MakeRep();
  Representative unnamed("", 1234, RepresentativeKind::kQuadruplet);
  for (const auto& [term, ts] : rep.stats()) unnamed.Put(term, ts);
  std::stringstream base;
  EXPECT_TRUE(WriteRepresentative(unnamed, base).ok());
  Representative named(std::string(size - base.str().size(), 'n'), 1234,
                       RepresentativeKind::kQuadruplet);
  for (const auto& [term, ts] : rep.stats()) named.Put(term, ts);
  std::stringstream out;
  EXPECT_TRUE(WriteRepresentative(named, out).ok());
  EXPECT_EQ(out.str().size(), size);
  return out.str();
}

// The read path fills storage that was never zero-filled, page by page:
// sizes around a page, and files too short to hold what they promise,
// must load (or fail) alike in every loader.
TEST(SerializeTest, FileLoadersAgreeAroundPageSizes) {
  ExpectFileLoadersAgree("");
  ExpectFileLoadersAgree("URP");
  for (std::size_t size : {4095u, 4096u, 4097u}) {
    SCOPED_TRACE(size);
    ExpectFileLoadersAgree(ImageOfSize(size));
  }
  // The last record cut inside its statistics.
  const std::string whole = ImageOfSize(4097);
  const std::string cut = whole.substr(0, whole.size() - 5);
  ExpectFileLoadersAgree(cut);
  std::istringstream in(cut);
  EXPECT_EQ(ReadRepresentative(in).status().message(),
            "truncated term record");
}

/// One on-disk term record, as WriteRepresentative lays it out.
void AppendRecord(std::string* bytes, const std::string& term,
                  const TermStats& ts) {
  std::uint32_t len = static_cast<std::uint32_t>(term.size());
  bytes->append(reinterpret_cast<const char*>(&len), 4);
  bytes->append(term);
  bytes->append(reinterpret_cast<const char*>(&ts.doc_freq), 4);
  for (double v : {ts.p, ts.avg_weight, ts.stddev, ts.max_weight}) {
    bytes->append(reinterpret_cast<const char*>(&v), 8);
  }
}

TEST(SerializeTest, RepeatedTermKeepsLastRecord) {
  const TermStats first{0.1, 0.2, 0.03, 0.4, 1};
  const TermStats last{0.5, 0.6, 0.07, 0.8, 5};
  std::string bytes = HeaderClaiming(3);
  AppendRecord(&bytes, "dup", first);
  AppendRecord(&bytes, "other", TermStats{0.3, 0.3, 0.0, 0.3, 3});
  AppendRecord(&bytes, "dup", last);
  auto r = ReadBoth(bytes);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().num_terms(), 2u);
  EXPECT_TRUE(BitIdentical(*r.value().Find("dup"), last));
  auto table = TermTable::Parse(bytes);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.value().num_terms(), 2u);
  EXPECT_TRUE(BitIdentical(*table.value().Find("dup"), last));
}

TEST(SerializeTest, EmptyTermIsAnOrdinaryKey) {
  std::stringstream with_empty;
  ASSERT_TRUE(WriteRepresentative(MakeRep(), with_empty).ok());
  auto table = TermTable::Parse(with_empty.str());
  ASSERT_TRUE(table.ok());
  auto empty = table.value().Find("");
  ASSERT_TRUE(empty.has_value());
  EXPECT_EQ(empty->doc_freq, 308u);

  Representative plain("plain", 4, RepresentativeKind::kQuadruplet);
  plain.Put("a", TermStats{0.25, 0.5, 0.1, 0.6, 1});
  auto frozen = TermTable::Freeze(plain);
  ASSERT_TRUE(frozen.ok());
  EXPECT_FALSE(frozen.value().Find("").has_value());
  EXPECT_TRUE(frozen.value().Find("a").has_value());
}

TEST(SerializeTest, FreezeHoldsEveryTerm) {
  Representative stale = MakeRep();
  stale.set_stale_max(true);
  auto table = TermTable::Freeze(stale);
  ASSERT_TRUE(table.ok());
  ExpectSameTerms(stale, table.value());
  auto empty = TermTable::Freeze(
      Representative("empty", 0, RepresentativeKind::kTriplet));
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value().num_terms(), 0u);
  EXPECT_FALSE(empty.value().Find("x").has_value());
}

TEST(SerializeTest, FreezeRefusesWhatSaveRefuses) {
  // A table is indexed over the writer's bytes, so a term no URP1 file can
  // hold cannot be frozen either.
  Representative rep("engine", 10, RepresentativeKind::kQuadruplet);
  rep.Put(std::string((1u << 20) + 1, 'x'), TermStats{0.1, 0.2, 0.1, 0.3, 1});
  std::stringstream ss;
  const Status written = WriteRepresentative(rep, ss);
  auto frozen = TermTable::Freeze(rep);
  ASSERT_FALSE(frozen.ok());
  EXPECT_EQ(frozen.status().code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(frozen.status().message(), written.message());
}

TEST(SerializeTest, LargeRepresentativeRoundTrip) {
  Pcg32 rng(9);
  Representative orig("big", 100000, RepresentativeKind::kQuadruplet);
  for (int i = 0; i < 20000; ++i) {
    TermStats ts;
    ts.p = rng.NextDouble();
    ts.avg_weight = rng.NextDouble();
    ts.stddev = rng.NextDouble() * 0.1;
    ts.max_weight = ts.avg_weight + ts.stddev;
    ts.doc_freq = rng.NextBounded(100000);
    orig.Put("term" + std::to_string(i), ts);
  }
  std::stringstream ss;
  ASSERT_TRUE(WriteRepresentative(orig, ss).ok());
  auto loaded = ReadBoth(ss);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_terms(), 20000u);
  auto t = loaded.value().Find("term12345");
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(t->p, orig.Find("term12345")->p);
  // 20,000 terms in a 65,536-slot index: ReadBoth has probed every one
  // through the collision chains; absent neighbours must miss.
  auto table = TermTable::Freeze(orig);
  ASSERT_TRUE(table.ok());
  ExpectSameTerms(orig, table.value());
  for (int i = 20000; i < 21000; ++i) {
    EXPECT_FALSE(table.value().Find("term" + std::to_string(i)).has_value());
  }
}

}  // namespace
}  // namespace useful::represent
