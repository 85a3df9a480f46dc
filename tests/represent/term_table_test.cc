// Bit identity of TermTable's compact records. The images are built by
// hand, so each record can carry what a writer never produces: a -0.0
// sigma, a p one ulp off df / n, NaNs with payloads, an engine of zero
// documents, terms whose lengths sit at the LEB128 byte boundaries.
// Whichever fields a compact record leaves out, Find must return every
// field with the bits DecodeUrp1Term gives for the file's own record.
#include "represent/term_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "corpus/newsgroup_sim.h"
#include "corpus/query_log.h"
#include "ir/search_engine.h"
#include "represent/builder.h"
#include "represent/serialize.h"
#include "text/analyzer.h"
#include "urp1_parity.h"

namespace useful::represent {
namespace {

/// One term record exactly as it goes on disk.
struct Record {
  std::string term;
  std::uint32_t df = 0;
  double p = 0.0;
  double w = 0.0;
  double sigma = 0.0;
  double mw = 0.0;
};

template <typename T>
void Append(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

/// A URP1 image of a quadruplet engine "hand" over `num_docs` documents
/// holding `records` in order.
std::string Urp1Image(std::uint64_t num_docs,
                      const std::vector<Record>& records) {
  std::string out = "URP1";
  out.push_back(static_cast<char>(RepresentativeKind::kQuadruplet));
  Append(&out, num_docs);
  Append(&out, std::uint32_t{4});
  out += "hand";
  Append(&out, static_cast<std::uint64_t>(records.size()));
  for (const Record& r : records) {
    Append(&out, static_cast<std::uint32_t>(r.term.size()));
    out += r.term;
    Append(&out, r.df);
    Append(&out, r.p);
    Append(&out, r.w);
    Append(&out, r.sigma);
    Append(&out, r.mw);
  }
  return out;
}

double FromBits(std::uint64_t bits) { return std::bit_cast<double>(bits); }

/// Each term of `image` with the stats DecodeUrp1Term gives for its last
/// record.
std::map<std::string, TermStats> DecodeAll(std::string_view image) {
  Result<Urp1Header> header = ParseUrp1Header(&image);
  EXPECT_TRUE(header.ok()) << header.status().ToString();
  std::map<std::string, TermStats> decoded;
  for (std::uint64_t i = 0; header.ok() && i < header.value().num_terms;
       ++i) {
    const char* record = image.data();
    std::string_view term;
    EXPECT_TRUE(ParseUrp1Term(&image, &term, nullptr).ok());
    DecodeUrp1Term(record, &decoded[std::string(term)]);
  }
  return decoded;
}

/// Checks Find on `table`, parsed from `image`, against DecodeUrp1Term
/// term by term.
void ExpectBitIdentical(std::string_view image, const TermTable& table) {
  const std::map<std::string, TermStats> want = DecodeAll(image);
  EXPECT_EQ(table.num_terms(), want.size());
  for (const auto& [term, stats] : want) {
    std::optional<TermStats> found = table.Find(term);
    ASSERT_TRUE(found.has_value()) << "term of " << term.size() << " bytes";
    EXPECT_TRUE(BitIdentical(*found, stats))
        << "term of " << term.size() << " bytes";
  }
}

/// The bytes of a compact record for a term of `len` bytes with a df
/// under 128, holding `optional_doubles` of p, w and sigma, and a weight
/// field of `weight_bytes`: 1 for an index into a dictionary of at most
/// 256 weights, 2 into one of up to 65,536, 8 for the f64 inline.
std::size_t CompactBytes(std::size_t len, int optional_doubles,
                         std::size_t weight_bytes = 1) {
  const std::size_t length_bytes = len < 128 ? 1 : len < 16384 ? 2 : 3;
  return 1 + length_bytes + len + 1 + weight_bytes + 8 * optional_doubles;
}

TEST(TermTableCompactTest, SigmaAndMaxWeightAreLeftOutOnlyWhenBitExact) {
  const double w = 0.3;
  const double nan_w = FromBits(0x7ff8'0000'0000'0123ull);
  const std::string image = Urp1Image(
      10, {{"plain", 1, 0.1, w, 0.0, w},           // both left out
           {"negzero", 1, 0.1, w, -0.0, w},        // -0.0 sigma is kept
           {"wider", 1, 0.1, w, 0.0, 0.5},         // mw != w is kept
           {"nanw", 1, 0.1, nan_w, 0.0, nan_w}});  // mw has w's NaN bits
  Result<TermTable> parsed = TermTable::Parse(image);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const TermTable& table = parsed.value();
  ExpectBitIdentical(image, table);
  EXPECT_TRUE(std::signbit(table.Find("negzero")->stddev));
  EXPECT_FALSE(std::signbit(table.Find("plain")->stddev));
  // Weights 0.3, 0.5 and nan_w; buckets: bit_ceil(4 / 2) = 2, so three
  // bounds.
  EXPECT_EQ(table.bytes(), CompactBytes(5, 0) + CompactBytes(7, 2) +
                               CompactBytes(5, 2) + CompactBytes(4, 0) +
                               3 * 8 + 3 * 4);
}

TEST(TermTableCompactTest, PIsLeftOutOnlyWhenItHasTheBitsOfDfOverN) {
  const double exact = 3.0 / 7.0;
  const std::string image = Urp1Image(
      7, {{"exact", 3, exact, 0.2, 0.0, 0.2},
          {"up", 3, std::nextafter(exact, 1.0), 0.2, 0.0, 0.2},
          {"down", 3, std::nextafter(exact, 0.0), 0.2, 0.0, 0.2},
          {"payload", 3, FromBits(0x7ff8'0000'0000'beefull), 0.2, 0.0, 0.2},
          {"negnan", 3, FromBits(0xfff8'0000'0000'0001ull), 0.2, 0.0, 0.2},
          {"zero", 0, 0.0, 0.0, 0.0, 0.0},
          {"negzero", 0, -0.0, 0.0, 0.0, 0.0}});  // == 0 / 7, other bits
  Result<TermTable> parsed = TermTable::Parse(image);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const TermTable& table = parsed.value();
  ExpectBitIdentical(image, table);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(table.Find("payload")->p),
            0x7ff8'0000'0000'beefull);
  EXPECT_TRUE(std::signbit(table.Find("negzero")->p));
  // Weights 0.2 and 0.0; buckets: bit_ceil(7 / 2) = 4, so five bounds.
  EXPECT_EQ(table.bytes(), CompactBytes(5, 0) + CompactBytes(2, 1) +
                               CompactBytes(4, 1) + CompactBytes(7, 1) +
                               CompactBytes(6, 1) + CompactBytes(4, 0) +
                               CompactBytes(7, 1) + 2 * 8 + 5 * 4);
}

TEST(TermTableCompactTest, ZeroDocumentsDeriveNanAndInfinityExactly) {
  // df / 0 is NaN for df = 0 and +inf otherwise; a record carrying those
  // very bits drops p, any other p is kept.
  volatile double zero = 0.0;
  const double nan = zero / zero;
  const double inf = 1.0 / zero;
  const std::string image = Urp1Image(
      0, {{"nan", 0, nan, 0.0, 0.0, 0.0},
          {"inf", 2, inf, 0.5, 0.0, 0.5},
          {"zero", 0, 0.0, 0.0, 0.0, 0.0},
          {"quiet", 0, std::numeric_limits<double>::quiet_NaN(), 0.0, 0.0,
           0.0},
          {"neginf", 2, -inf, 0.5, 0.0, 0.5}});
  Result<TermTable> parsed = TermTable::Parse(image);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const TermTable& table = parsed.value();
  ExpectBitIdentical(image, table);
  EXPECT_EQ(table.num_docs(), 0u);
  EXPECT_TRUE(std::isnan(table.Find("nan")->p));
  EXPECT_EQ(table.Find("inf")->p, inf);
}

TEST(TermTableCompactTest, TermLengthsAtEveryLengthByteBoundary) {
  std::vector<Record> records;
  std::size_t expected = 0;
  const std::size_t lengths[] = {0, 1, 127, 128, 16'383, 16'384, 1u << 20};
  for (const std::size_t len : lengths) {
    std::string term(len, 'a');
    if (len > 0) term.back() = 'z';
    const std::uint32_t df = 1 + static_cast<std::uint32_t>(len % 5);
    records.push_back({term, df, df / 40.0, 0.25, 0.0, 0.25});
    expected += CompactBytes(len, 0);
  }
  const std::string image = Urp1Image(40, records);
  Result<TermTable> parsed = TermTable::Parse(image);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const TermTable& table = parsed.value();
  ExpectBitIdentical(image, table);
  // One weight, 0.25; buckets: bit_ceil(7 / 2) = 4, so five bounds.
  EXPECT_EQ(table.bytes(), expected + 8 + 5 * 4);
  EXPECT_FALSE(table.Find(std::string(127, 'a')).has_value());
  EXPECT_FALSE(table.Find(std::string(1u << 20, 'a')).has_value());
}

TEST(TermTableCompactTest, RepeatedTermKeepsItsLastRecord) {
  // The first "dup" leaves out every optional field and the last keeps
  // them all; "twice" does the opposite.
  const std::string image =
      Urp1Image(4, {{"dup", 1, 0.25, 0.5, 0.0, 0.5},
                    {"twice", 2, 0.3, 0.5, 0.1, 0.9},
                    {"other", 1, 0.25, 0.1, 0.0, 0.1},
                    {"dup", 2, 0.125, 0.5, 0.2, 0.7},
                    {"twice", 2, 0.5, 0.5, 0.0, 0.5}});
  Result<TermTable> parsed = TermTable::Parse(image);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const TermTable& table = parsed.value();
  ExpectBitIdentical(image, table);
  EXPECT_EQ(table.num_terms(), 3u);
  EXPECT_EQ(table.Find("dup")->p, 0.125);
  EXPECT_EQ(table.Find("twice")->stddev, 0.0);
}

TEST(TermTableCompactTest, TableWithoutTerms) {
  const std::string image = Urp1Image(5, {});
  Result<TermTable> table = TermTable::Parse(image);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table.value().num_terms(), 0u);
  EXPECT_EQ(table.value().engine_name(), "hand");
  EXPECT_FALSE(table.value().Find("").has_value());
  EXPECT_FALSE(table.value().Find("hand").has_value());
  EXPECT_EQ(table.value().bytes(), 2u * 4);  // one bucket: two bounds
}

TEST(TermTableCompactTest, TruncatedLastRecordFailsAsBefore) {
  // The records before the cut have been rewritten by the time the last
  // one is found short; the error is still the reader's.
  // Long enough earlier terms that the header's count check (40 bytes a
  // record) passes at every cut.
  const std::string image = Urp1Image(
      9, {{std::string(20, 'k'), 1, 1.0 / 9.0, 0.5, 0.0, 0.5},
          {std::string(20, 'a'), 3, 0.4, 0.5, 0.1, 0.6},
          {"last", 2, 2.0 / 9.0, 0.5, 0.0, 0.5}});
  const std::size_t last = image.size() - (4 + 4 + 36);
  const struct {
    std::size_t cut;
    const char* message;
  } cuts[] = {{last + 2, "truncated string length"},
              {last + 6, "truncated string body"},
              {last + 8, "truncated term record"},
              {image.size() - 1, "truncated term record"}};
  for (const auto& c : cuts) {
    Result<TermTable> table = TermTable::Parse(image.substr(0, c.cut));
    ASSERT_FALSE(table.ok()) << "cut=" << c.cut;
    EXPECT_EQ(table.status().code(), Status::Code::kCorruption);
    EXPECT_EQ(table.status().message(), c.message) << "cut=" << c.cut;
    // The same code and message as ReadRepresentative.
    ReadBoth(image.substr(0, c.cut));
  }
}

TEST(TermTableCompactTest, EveryTestbedTermReadsBackAsLoadRepresentative) {
  // The serving testbed: the 53 newsgroups' representatives, each saved
  // and loaded both ways.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "term_table_testbed";
  std::filesystem::create_directories(dir);
  text::Analyzer analyzer;
  const corpus::NewsgroupSimulator sim;
  std::size_t terms = 0;
  std::size_t file_bytes = 0;
  std::size_t table_bytes = 0;
  for (const corpus::Collection& group : sim.groups()) {
    ir::SearchEngine engine(group.name(), &analyzer);
    ASSERT_TRUE(engine.AddCollection(group).ok());
    ASSERT_TRUE(engine.Finalize().ok());
    Result<Representative> built = BuildRepresentative(engine);
    ASSERT_TRUE(built.ok());
    const std::string path = (dir / (group.name() + ".rep")).string();
    ASSERT_TRUE(SaveRepresentative(built.value(), path).ok());

    Result<Representative> rep = LoadRepresentative(path);
    Result<TermTable> table = TermTable::Load(path);
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    ExpectSameTerms(rep.value(), table.value());
    terms += table.value().num_terms();
    file_bytes += std::filesystem::file_size(path);
    table_bytes += table.value().bytes();
  }
  std::filesystem::remove_all(dir);
  EXPECT_EQ(sim.groups().size(), 53u);
  EXPECT_GT(terms, 0u);
  // Most records drop p, df = 1 terms drop w and sigma too, and most
  // weights are a one-byte index, so the tables, bounds and dictionaries
  // included, hold less than half the files.
  EXPECT_EQ(terms, 176'800u);
  EXPECT_EQ(table_bytes, 4'154'412u);
  EXPECT_LT(2 * table_bytes, file_bytes);
}

/// Records "w<i>" of weight weights[i], w = mw and sigma 0, each p
/// df / 16.
std::vector<Record> WeightRecords(const std::vector<double>& weights) {
  std::vector<Record> records;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    records.push_back({"w" + std::to_string(i), 2, 2 / 16.0, weights[i], 0.0,
                       weights[i]});
  }
  return records;
}

/// The 4 bytes a bound of a table of `records` records.
std::size_t BoundBytes(std::size_t records) {
  return 4 * (std::bit_ceil(std::max<std::size_t>(records / 2, 1)) + 1);
}

/// The bytes of `records` holding neither p, w nor sigma, under a weight
/// field of `weight_bytes`.
std::size_t PlainRecordBytes(const std::vector<Record>& records,
                             std::size_t weight_bytes) {
  std::size_t bytes = 0;
  for (const Record& r : records) {
    bytes += CompactBytes(r.term.size(), 0, weight_bytes);
  }
  return bytes;
}

TEST(TermTableDictionaryTest, SignedZerosAndNanPayloadsAreDistinctEntries) {
  const double nan_a = FromBits(0x7ff8'0000'0000'0001ull);
  const double nan_b = FromBits(0x7ff8'0000'0000'0002ull);
  std::vector<Record> records =
      WeightRecords({0.0, -0.0, nan_a, nan_b, 0.0, -0.0, nan_a, nan_b});
  // w is +0.0 beside an mw of -0.0, so the record keeps w.
  records.push_back({"spread", 2, 2 / 16.0, 0.0, 0.0, -0.0});
  const std::string image = Urp1Image(16, records);
  Result<TermTable> parsed = TermTable::Parse(image);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const TermTable& table = parsed.value();
  ExpectBitIdentical(image, table);
  EXPECT_FALSE(std::signbit(table.Find("w4")->max_weight));
  EXPECT_TRUE(std::signbit(table.Find("w5")->max_weight));
  EXPECT_TRUE(std::signbit(table.Find("w5")->avg_weight));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(table.Find("w6")->avg_weight),
            0x7ff8'0000'0000'0001ull);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(table.Find("w7")->max_weight),
            0x7ff8'0000'0000'0002ull);
  EXPECT_FALSE(std::signbit(table.Find("spread")->avg_weight));
  EXPECT_TRUE(std::signbit(table.Find("spread")->max_weight));
  // Four entries: +0.0, -0.0 and the two NaNs.
  records.pop_back();
  EXPECT_EQ(table.bytes(), PlainRecordBytes(records, 1) +
                               CompactBytes(6, 2) + 4 * 8 + BoundBytes(9));
}

TEST(TermTableDictionaryTest, IndexWidensToTwoBytesPast256Weights) {
  for (const std::size_t distinct : {256, 257}) {
    // Each weight three times, in three runs.
    std::vector<double> weights;
    for (int run = 0; run < 3; ++run) {
      for (std::size_t k = 0; k < distinct; ++k) {
        weights.push_back(static_cast<double>(k + 1) / 1024.0);
      }
    }
    const std::vector<Record> records = WeightRecords(weights);
    const std::string image = Urp1Image(16, records);
    Result<TermTable> parsed = TermTable::Parse(image);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ExpectBitIdentical(image, parsed.value());
    const std::size_t index_bytes = distinct <= 256 ? 1 : 2;
    EXPECT_EQ(parsed.value().bytes(),
              PlainRecordBytes(records, index_bytes) + distinct * 8 +
                  BoundBytes(records.size()))
        << distinct << " weights";
  }
}

TEST(TermTableDictionaryTest, NoTableHoldsMoreThanWithItsWeightsInline) {
  // n records with n weights, each once: a dictionary would cost 8 bytes
  // a weight and an index besides.
  std::vector<double> unique;
  for (int k = 0; k < 100; ++k) unique.push_back(k / 128.0);
  // 10 records of 9 weights: a dictionary would take 72 + 10 bytes
  // against 80 inline. Of 8 weights: 64 + 10, 6 bytes fewer.
  std::vector<double> nine = {1, 2, 3, 4, 5, 6, 7, 8, 9, 9};
  std::vector<double> eight = {1, 2, 3, 4, 5, 6, 7, 8, 8, 8};
  for (const auto& [weights, kept] :
       {std::pair{unique, false}, std::pair{nine, false},
        std::pair{eight, true}}) {
    const std::vector<Record> records = WeightRecords(weights);
    const std::string image = Urp1Image(16, records);
    Result<TermTable> parsed = TermTable::Parse(image);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ExpectBitIdentical(image, parsed.value());
    const std::size_t inline_bytes =
        PlainRecordBytes(records, 8) + BoundBytes(records.size());
    EXPECT_EQ(parsed.value().bytes(),
              kept ? inline_bytes - 6 : inline_bytes)
        << records.size() << " records";
  }
}

TEST(TermTableDictionaryTest, PastTwoByteIndicesWeightsStayInline) {
  // Each weight twice: 65,536 weights take a 2-byte index, 65,537 are
  // more than one reaches, so they stay inline.
  for (const std::size_t distinct : {65'536, 65'537}) {
    std::vector<double> weights;
    for (int run = 0; run < 2; ++run) {
      for (std::size_t k = 0; k < distinct; ++k) {
        weights.push_back(static_cast<double>(k + 1) / 1048576.0);
      }
    }
    const std::vector<Record> records = WeightRecords(weights);
    const std::string image = Urp1Image(16, records);
    Result<TermTable> parsed = TermTable::Parse(image);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ExpectBitIdentical(image, parsed.value());
    const std::size_t bytes =
        distinct <= 65'536
            ? PlainRecordBytes(records, 2) + distinct * 8
            : PlainRecordBytes(records, 8);
    EXPECT_EQ(parsed.value().bytes(), bytes + BoundBytes(records.size()))
        << distinct << " weights";
  }
}

TEST(TermTableDictionaryTest, RepeatedTermKeepsItsLastRecordsWeight) {
  // The first "dup" holds the only 0.125, the last one 0.5; the retired
  // record's weight keeps its entry.
  const std::string image = Urp1Image(
      16, {{"dup", 2, 2 / 16.0, 0.125, 0.0, 0.125},
           {"x", 2, 2 / 16.0, 0.5, 0.0, 0.5},
           {"y", 2, 2 / 16.0, 0.5, 0.0, 0.5},
           {"z", 2, 2 / 16.0, 0.5, 0.0, 0.5},
           {"dup", 2, 2 / 16.0, 0.5, 0.0, 0.5}});
  Result<TermTable> parsed = TermTable::Parse(image);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const TermTable& table = parsed.value();
  ExpectBitIdentical(image, table);
  EXPECT_EQ(table.num_terms(), 4u);
  EXPECT_EQ(table.Find("dup")->max_weight, 0.5);
  EXPECT_EQ(table.Find("dup")->avg_weight, 0.5);
  EXPECT_EQ(table.bytes(), 2 * CompactBytes(3, 0) + 3 * CompactBytes(1, 0) +
                               2 * 8 + BoundBytes(5));
}

TEST(TermTableLayoutTest, TermRepeatedThriceKeepsItsLastRecordAndCountsOnce) {
  // Each "tri" record keeps other optional fields: none, then all, then p
  // alone. The earlier two are retired in the bucket.
  const std::string image =
      Urp1Image(8, {{"tri", 1, 0.125, 0.5, 0.0, 0.5},
                    {"one", 2, 0.25, 0.4, 0.0, 0.4},
                    {"tri", 2, 0.3, 0.5, 0.1, 0.9},
                    {"two", 3, 0.375, 0.3, 0.2, 0.6},
                    {"tri", 3, 0.5, 0.6, 0.0, 0.6}});
  Result<TermTable> parsed = TermTable::Parse(image);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const TermTable& table = parsed.value();
  ExpectBitIdentical(image, table);
  EXPECT_EQ(table.num_terms(), 3u);
  const std::optional<TermStats> tri = table.Find("tri");
  ASSERT_TRUE(tri.has_value());
  EXPECT_EQ(tri->doc_freq, 3u);
  EXPECT_EQ(tri->p, 0.5);
  EXPECT_EQ(tri->stddev, 0.0);
  EXPECT_EQ(tri->max_weight, 0.6);
  // Retired records keep their bytes, and their weights their entries:
  // 0.5, 0.4, 0.9 and 0.6. Buckets: bit_ceil(5 / 2) = 2, so three bounds.
  EXPECT_EQ(table.bytes(), CompactBytes(3, 0) + CompactBytes(3, 0) +
                               CompactBytes(3, 3) + CompactBytes(3, 2) +
                               CompactBytes(3, 1) + 4 * 8 + 3 * 4);

  // The same among thousands of terms and many buckets, where other terms
  // share a repeated term's bucket and tag: every term once, in a
  // shuffled order, then every third term again with other statistics.
  std::vector<Record> records;
  for (std::uint32_t i = 0; i < 3000; ++i) {
    const std::uint32_t df = 1 + i % 7;
    records.push_back(
        {"t" + std::to_string(i * 7919 % 3000), df, df / 16.0, 0.5, 0.0, 0.5});
  }
  for (std::uint32_t i = 0; i < 3000; i += 3) {
    records.push_back({"t" + std::to_string(i), 9, 0.75, 0.25, 0.5, 1.0});
  }
  const std::string many = Urp1Image(16, records);
  Result<TermTable> many_table = TermTable::Parse(many);
  ASSERT_TRUE(many_table.ok()) << many_table.status().ToString();
  ExpectBitIdentical(many, many_table.value());
  EXPECT_EQ(many_table.value().num_terms(), 3000u);
}

TEST(TermTableLayoutTest, DocFrequenciesAtEveryVarintBoundaryReadBack) {
  const std::uint32_t dfs[] = {0,       127,     128,     16'383,
                               16'384,  1u << 21, 1u << 28,
                               std::numeric_limits<std::uint32_t>::max()};
  const std::uint64_t num_docs = std::uint64_t{1} << 32;
  std::vector<Record> records;
  std::size_t expected = 0;
  for (const std::uint32_t df : dfs) {
    const double p = static_cast<double>(df) / static_cast<double>(num_docs);
    records.push_back({"df" + std::to_string(df), df, p, 0.5, 0.0, 0.5});
    const std::size_t df_bytes = df < (1u << 7)    ? 1
                                 : df < (1u << 14) ? 2
                                 : df < (1u << 21) ? 3
                                 : df < (1u << 28) ? 4
                                                   : 5;
    expected += 1 + 1 + records.back().term.size() + df_bytes + 1;
  }
  const std::string image = Urp1Image(num_docs, records);
  Result<TermTable> parsed = TermTable::Parse(image);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const TermTable& table = parsed.value();
  ExpectBitIdentical(image, table);
  for (const std::uint32_t df : dfs) {
    const std::optional<TermStats> found =
        table.Find("df" + std::to_string(df));
    ASSERT_TRUE(found.has_value()) << df;
    EXPECT_EQ(found->doc_freq, df);
  }
  // Every p is df / n, so no record keeps one. One weight, 0.5; buckets:
  // bit_ceil(8 / 2) = 4, so five bounds.
  EXPECT_EQ(table.bytes(), expected + 8 + 5 * 4);
}

TEST(TermTableLayoutTest, NoAbsentTermIsFoundInTheTestbedTables) {
  text::Analyzer analyzer;
  const corpus::NewsgroupSimulator sim;
  std::set<std::string> tokens;
  for (const corpus::Query& query : corpus::QueryLogGenerator().Generate(sim)) {
    for (std::string& token : analyzer.Analyze(query.text)) {
      tokens.insert(std::move(token));
    }
  }
  // Random byte strings of every length up to 40, drawn once for all
  // tables.
  std::mt19937_64 rng(12345);
  std::vector<std::string> random_terms(100'000);
  for (std::string& term : random_terms) {
    term.resize(rng() % 41);
    for (char& c : term) c = static_cast<char>(rng());
  }
  std::size_t absent_tokens = 0;
  std::size_t present_tokens = 0;
  for (const corpus::Collection& group : sim.groups()) {
    ir::SearchEngine engine(group.name(), &analyzer);
    ASSERT_TRUE(engine.AddCollection(group).ok());
    ASSERT_TRUE(engine.Finalize().ok());
    Result<Representative> rep = BuildRepresentative(engine);
    ASSERT_TRUE(rep.ok());
    Result<TermTable> table = TermTable::Freeze(rep.value());
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    for (const std::string& token : tokens) {
      const std::optional<TermStats> want = rep.value().Find(token);
      const std::optional<TermStats> found = table.value().Find(token);
      ASSERT_EQ(found.has_value(), want.has_value()) << token;
      if (want.has_value()) {
        EXPECT_TRUE(BitIdentical(*found, *want)) << token;
        ++present_tokens;
      } else {
        ++absent_tokens;
      }
    }
    for (const std::string& term : random_terms) {
      if (!rep.value().Find(term).has_value()) {
        ASSERT_FALSE(table.value().Find(term).has_value())
            << "a random term of " << term.size() << " bytes";
      }
    }
  }
  EXPECT_EQ(sim.groups().size(), 53u);
  EXPECT_GT(present_tokens, 0u);
  EXPECT_GT(absent_tokens, 0u);
}

TEST(TermTableLayoutTest, CorruptRecordAfterThousandsOfGoodOnesFailsAsBefore) {
  std::vector<Record> records;
  for (std::uint32_t i = 0; i < 4000; ++i) {
    records.push_back({"good" + std::to_string(i), 1, 0.5, 0.5, 0.0, 0.5});
  }
  records.push_back({"last", 1, 0.5, 0.5, 0.0, 0.5});
  const std::string image = Urp1Image(2, records);
  const std::size_t last = image.size() - (4 + 4 + 36);
  std::string too_long = image;
  const std::uint32_t over_cap = kMaxUrp1StringBytes + 1;
  std::memcpy(too_long.data() + last, &over_cap, 4);
  const struct {
    std::string image;
    const char* message;
  } cases[] = {{image.substr(0, last + 3), "truncated string length"},
               {too_long, "string too long"},
               {image.substr(0, last + 7), "truncated string body"},
               {image.substr(0, image.size() - 1), "truncated term record"}};
  for (const auto& c : cases) {
    Result<TermTable> table = TermTable::Parse(c.image);
    ASSERT_FALSE(table.ok()) << c.message;
    EXPECT_EQ(table.status().code(), Status::Code::kCorruption);
    EXPECT_EQ(table.status().message(), c.message);
    ReadBoth(c.image);
  }
}

}  // namespace
}  // namespace useful::represent
