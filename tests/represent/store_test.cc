#include "represent/store.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "estimate/registry.h"
#include "estimate/resolved_query.h"
#include "ir/query.h"
#include "represent/quantized.h"
#include "represent/serialize.h"
#include "util/random.h"

namespace useful::represent {
namespace {

Representative MakeRep(const std::string& name, std::size_t terms,
                       std::uint64_t seed, RepresentativeKind kind,
                       std::size_t num_docs = 1000) {
  Pcg32 rng(seed);
  Representative rep(name, num_docs, kind);
  // Shared-prefix heavy vocabulary to exercise front coding.
  const char* stems[] = {"inter", "trans", "micro", "anti", "re", "z"};
  for (std::size_t i = 0; i < terms; ++i) {
    std::string term = stems[rng.NextBounded(6)];
    term += "term" + std::to_string(rng.NextBounded(10000));
    TermStats ts;
    ts.doc_freq = static_cast<std::uint32_t>(rng.NextBounded(
        static_cast<std::uint32_t>(num_docs) + 1));
    ts.p = num_docs == 0 ? 0.0
                         : ts.doc_freq / static_cast<double>(num_docs);
    ts.avg_weight = ts.doc_freq == 0 ? 0.0 : rng.NextDouble() * 0.5 + 0.01;
    ts.stddev = ts.doc_freq == 0 ? 0.0 : rng.NextDouble() * 0.2;
    ts.max_weight = kind == RepresentativeKind::kQuadruplet && ts.doc_freq > 0
                        ? std::min(1.0, ts.avg_weight + 3.0 * ts.stddev)
                        : 0.0;
    rep.Put(std::move(term), ts);
  }
  return rep;
}

std::shared_ptr<const StoreView> MustOpen(std::string bytes) {
  auto r = StoreView::FromBuffer(std::move(bytes));
  EXPECT_TRUE(r.ok()) << r.status().message();
  return r.ok() ? r.value() : nullptr;
}

void ExpectSameStats(const TermStats& a, const TermStats& b,
                     const std::string& term) {
  EXPECT_EQ(a.p, b.p) << term;
  EXPECT_EQ(a.avg_weight, b.avg_weight) << term;
  EXPECT_EQ(a.stddev, b.stddev) << term;
  EXPECT_EQ(a.max_weight, b.max_weight) << term;
  EXPECT_EQ(a.doc_freq, b.doc_freq) << term;
}

TEST(StoreTest, PackedStatsBitIdenticalToQuantizer) {
  // The contract the serving path relies on: decoding a packed engine
  // yields exactly QuantizeRepresentative(rep)'s output, bit for bit.
  for (auto kind :
       {RepresentativeKind::kQuadruplet, RepresentativeKind::kTriplet}) {
    Representative rep = MakeRep("db", 700, 42, kind);
    auto quantized = QuantizeRepresentative(rep);
    ASSERT_TRUE(quantized.ok());
    auto image = EncodeStore({&rep});
    ASSERT_TRUE(image.ok()) << image.status().message();
    auto store = MustOpen(std::move(image).value());
    ASSERT_NE(store, nullptr);
    auto view = store->Find("db");
    ASSERT_TRUE(view.has_value());
    EXPECT_EQ(view->num_terms(), rep.num_terms());
    EXPECT_EQ(view->num_docs(), rep.num_docs());
    EXPECT_EQ(view->kind(), kind);
    for (const auto& [term, qs] : quantized.value().representative.stats()) {
      auto packed = view->Find(term);
      ASSERT_TRUE(packed.has_value()) << term;
      ExpectSameStats(*packed, qs, term);
    }
  }
}

TEST(StoreTest, FindMissesCleanly) {
  Representative rep("db", 100, RepresentativeKind::kQuadruplet);
  for (const char* t : {"banana", "band", "bandit", "candle", "candy"}) {
    rep.Put(t, TermStats{0.5, 0.3, 0.1, 0.6, 50});
  }
  auto store = MustOpen(EncodeStore({&rep}).value());
  ASSERT_NE(store, nullptr);
  auto view = store->Find("db");
  ASSERT_TRUE(view.has_value());
  for (const char* t : {"banana", "band", "bandit", "candle", "candy"}) {
    EXPECT_TRUE(view->Find(t).has_value()) << t;
  }
  // Before the first, between entries, after the last, proper prefixes,
  // and extensions of stored terms.
  for (const char* t : {"aaa", "ban", "bandi", "banditz", "bananaz", "bane",
                        "cand", "candz", "zzz", ""}) {
    EXPECT_FALSE(view->Find(t).has_value()) << t;
  }
  EXPECT_FALSE(store->Find("nope").has_value());
}

TEST(StoreTest, MultiEngineStoreFindsEachByName) {
  Representative a = MakeRep("alpha", 60, 1, RepresentativeKind::kQuadruplet);
  Representative b = MakeRep("beta", 40, 2, RepresentativeKind::kTriplet);
  Representative c = MakeRep("gamma", 90, 3, RepresentativeKind::kQuadruplet);
  c.set_stale_max(true);
  auto store = MustOpen(EncodeStore({&c, &a, &b}).value());
  ASSERT_NE(store, nullptr);
  ASSERT_EQ(store->num_engines(), 3u);
  // Index is name-sorted regardless of input order.
  EXPECT_EQ(store->engine(0).engine_name(), "alpha");
  EXPECT_EQ(store->engine(1).engine_name(), "beta");
  EXPECT_EQ(store->engine(2).engine_name(), "gamma");
  EXPECT_EQ(store->engine(1).kind(), RepresentativeKind::kTriplet);
  EXPECT_FALSE(store->Find("alpha")->stale_max());
  EXPECT_TRUE(store->Find("gamma")->stale_max());
  EXPECT_EQ(store->Find("beta")->num_terms(), b.num_terms());
}

TEST(StoreTest, MaterializeMatchesUrp1RoundTripOfQuantized) {
  // Cross-format equivalence: URPZ decode == URP1 write/read of the
  // quantized representative, field for field.
  Representative rep = MakeRep("db", 450, 7, RepresentativeKind::kQuadruplet);
  rep.set_stale_max(true);
  auto quantized = QuantizeRepresentative(rep);
  ASSERT_TRUE(quantized.ok());
  std::stringstream urp1;
  ASSERT_TRUE(
      WriteRepresentative(quantized.value().representative, urp1).ok());
  auto via_urp1 = ReadRepresentative(urp1);
  ASSERT_TRUE(via_urp1.ok());

  auto store = MustOpen(EncodeStore({&rep}).value());
  ASSERT_NE(store, nullptr);
  Representative via_urpz = store->Find("db")->Materialize();

  EXPECT_EQ(via_urpz.engine_name(), via_urp1.value().engine_name());
  EXPECT_EQ(via_urpz.num_docs(), via_urp1.value().num_docs());
  EXPECT_EQ(via_urpz.kind(), via_urp1.value().kind());
  EXPECT_EQ(via_urpz.stale_max(), via_urp1.value().stale_max());
  ASSERT_EQ(via_urpz.num_terms(), via_urp1.value().num_terms());
  for (const auto& [term, ts] : via_urp1.value().stats()) {
    auto packed = via_urpz.Find(term);
    ASSERT_TRUE(packed.has_value()) << term;
    ExpectSameStats(*packed, ts, term);
  }
}

TEST(StoreTest, RandomizedRoundTripProperty) {
  // Property sweep: random representatives of both kinds, stale flag set
  // and clear, tiny through moderate sizes, zero-doc-freq terms included.
  for (std::uint64_t seed = 100; seed < 112; ++seed) {
    const auto kind = seed % 2 == 0 ? RepresentativeKind::kQuadruplet
                                    : RepresentativeKind::kTriplet;
    Representative rep =
        MakeRep("eng" + std::to_string(seed), 1 + seed * 17 % 400, seed, kind);
    rep.set_stale_max(seed % 3 == 0);
    auto quantized = QuantizeRepresentative(rep);
    ASSERT_TRUE(quantized.ok());
    auto store = MustOpen(EncodeStore({&rep}).value());
    ASSERT_NE(store, nullptr);
    auto view = store->Find(rep.engine_name());
    ASSERT_TRUE(view.has_value()) << seed;
    EXPECT_EQ(view->stale_max(), rep.stale_max()) << seed;
    std::size_t seen = 0;
    view->ForEachTerm([&](std::string_view term, const TermStats& ts) {
      auto expected = quantized.value().representative.Find(term);
      ASSERT_TRUE(expected.has_value()) << term;
      ExpectSameStats(ts, *expected, std::string(term));
      ++seen;
    });
    EXPECT_EQ(seen, rep.num_terms()) << seed;
  }
}

TEST(StoreTest, AnnotatedQueriesEstimateBitIdenticallyAcrossFormats) {
  // Weighted / negated / min-should-match queries over the packed
  // StoreView must estimate bit-identically to the quantized in-memory
  // representative (the URP1 write/read path) — the serving tier may use
  // either backing for the same engine.
  Representative rep = MakeRep("db", 300, 11, RepresentativeKind::kQuadruplet);
  auto quantized = QuantizeRepresentative(rep);
  ASSERT_TRUE(quantized.ok());
  std::stringstream urp1;
  ASSERT_TRUE(
      WriteRepresentative(quantized.value().representative, urp1).ok());
  auto via_urp1 = ReadRepresentative(urp1);
  ASSERT_TRUE(via_urp1.ok());
  auto store = MustOpen(EncodeStore({&rep}).value());
  ASSERT_NE(store, nullptr);
  auto view = store->Find("db");
  ASSERT_TRUE(view.has_value());

  // Deterministic term pool: the store's own ascending term order.
  std::vector<std::string> terms;
  view->ForEachTerm([&](std::string_view term, const TermStats&) {
    if (terms.size() < 6) terms.emplace_back(term);
  });
  ASSERT_GE(terms.size(), 4u);

  // Hand-built annotated queries (no analyzer: stored terms are already
  // index terms). Weights are the cosine-normalized form the parser emits.
  std::vector<ir::Query> queries;
  {
    ir::Query weighted;
    const double norm = std::sqrt(2.5 * 2.5 + 1.0 + 1.0);
    weighted.terms = {ir::QueryTerm{terms[0], 2.5 / norm, 2.5, false},
                      ir::QueryTerm{terms[1], 1.0 / norm, 1.0, false},
                      ir::QueryTerm{terms[2], 1.0 / norm, 1.0, false}};
    queries.push_back(weighted);

    ir::Query negated = weighted;
    negated.terms[1].negated = true;
    queries.push_back(negated);

    ir::Query msm = weighted;
    msm.min_should_match = 2;
    queries.push_back(msm);

    ir::Query all = weighted;
    all.terms[0].negated = true;
    all.min_should_match = 1;
    all.terms.push_back(
        ir::QueryTerm{terms[3], 0.5 / norm, 0.5, false});
    queries.push_back(all);
  }

  const std::vector<double> thresholds = {0.0, 0.01, 0.05, 0.15, 0.4};
  std::vector<std::string> names = estimate::KnownEstimators();
  names.push_back("subrange-k3");
  estimate::ExpansionWorkspace ws;
  for (const std::string& name : names) {
    auto est = estimate::MakeEstimator(name);
    ASSERT_TRUE(est.ok()) << name;
    for (const ir::Query& q : queries) {
      estimate::ResolvedQuery rq_view(*view, q);
      estimate::ResolvedQuery rq_rep(via_urp1.value(), q);
      std::vector<estimate::UsefulnessEstimate> from_view(thresholds.size());
      std::vector<estimate::UsefulnessEstimate> from_rep(thresholds.size());
      est.value()->EstimateBatch(
          rq_view, thresholds, ws,
          std::span<estimate::UsefulnessEstimate>(from_view));
      est.value()->EstimateBatch(
          rq_rep, thresholds, ws,
          std::span<estimate::UsefulnessEstimate>(from_rep));
      for (std::size_t t = 0; t < thresholds.size(); ++t) {
        EXPECT_EQ(from_view[t].no_doc, from_rep[t].no_doc)
            << name << " T=" << thresholds[t];
        EXPECT_EQ(from_view[t].avg_sim, from_rep[t].avg_sim)
            << name << " T=" << thresholds[t];
      }
    }
  }
}

TEST(StoreTest, EncodingIsByteStableAcrossInsertionOrder) {
  Representative fwd("db", 500, RepresentativeKind::kQuadruplet);
  Representative rev("db", 500, RepresentativeKind::kQuadruplet);
  Representative probe = MakeRep("db", 300, 5, RepresentativeKind::kQuadruplet);
  std::vector<std::pair<std::string, TermStats>> entries(
      probe.stats().begin(), probe.stats().end());
  for (const auto& [t, ts] : entries) fwd.Put(t, ts);
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    rev.Put(it->first, it->second);
  }
  auto a = EncodeStore({&fwd});
  auto b = EncodeStore({&rev});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), b.value());
}

TEST(StoreTest, GoldenImageIsByteStable) {
  // The on-disk format is a published contract: the same logical input
  // must keep producing the identical image across refactors. If this
  // test fails because of an INTENTIONAL format change, bump kVersion in
  // store.cc and re-pin these constants; any other failure means the
  // packer drifted and deployed stores would stop matching their golden
  // checksums.
  Representative a = MakeRep("golden-a", 200, 123,
                             RepresentativeKind::kQuadruplet);
  Representative b = MakeRep("golden-b", 80, 321,
                             RepresentativeKind::kTriplet);
  b.set_stale_max(true);
  auto image = EncodeStore({&a, &b});
  ASSERT_TRUE(image.ok());
  std::uint64_t hash = 14695981039346656037ull;  // FNV-1a 64
  for (unsigned char c : image.value()) {
    hash = (hash ^ c) * 1099511628211ull;
  }
  EXPECT_EQ(image.value().size(), 17368u);
  EXPECT_EQ(hash, 13515083161455886426ull);
}

TEST(StoreTest, OpenFromFileMatchesBuffer) {
  Representative rep = MakeRep("db", 250, 9, RepresentativeKind::kQuadruplet);
  const std::string path = ::testing::TempDir() + "/store_test.urpz";
  ASSERT_TRUE(PackStoreToFile({&rep}, path).ok());

  auto mapped = StoreView::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().message();
  auto image = EncodeStore({&rep});
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(mapped.value()->file_bytes(), image.value().size());
  auto buffered = MustOpen(std::move(image).value());
  ASSERT_NE(buffered, nullptr);
  auto vm = mapped.value()->Find("db");
  auto vb = buffered->Find("db");
  ASSERT_TRUE(vm.has_value());
  ASSERT_TRUE(vb.has_value());
  for (const auto& [term, ts] : rep.stats()) {
    auto sm = vm->Find(term);
    auto sb = vb->Find(term);
    ASSERT_TRUE(sm.has_value()) << term;
    ASSERT_TRUE(sb.has_value()) << term;
    ExpectSameStats(*sm, *sb, term);
  }
  std::remove(path.c_str());
}

/// Rss in kB of the mapping of this process that holds `address`, from
/// /proc/self/smaps; -1 when no mapping holds it.
long MappingRssKb(const void* address) {
  const auto where = reinterpret_cast<std::uintptr_t>(address);
  std::ifstream smaps("/proc/self/smaps");
  bool inside = false;
  for (std::string line; std::getline(smaps, line);) {
    unsigned long begin = 0, end = 0;
    if (std::sscanf(line.c_str(), "%lx-%lx", &begin, &end) == 2) {
      inside = begin <= where && where < end;
    } else if (inside && line.rfind("Rss:", 0) == 0) {
      return std::stol(line.substr(4));
    }
  }
  return -1;
}

/// `count` terms of 30 random letters: front coding shares little of
/// them, so the engine's block spans many pages.
Representative MakeWideRep(const std::string& name, std::size_t count,
                           std::uint64_t seed) {
  Pcg32 rng(seed);
  Representative rep(name, 5000, RepresentativeKind::kQuadruplet);
  while (rep.num_terms() < count) {
    std::string term(30, 'a');
    for (char& c : term) c = static_cast<char>('a' + rng.NextBounded(26));
    TermStats ts;
    ts.doc_freq = 1 + rng.NextBounded(5000);
    ts.p = ts.doc_freq / 5000.0;
    ts.avg_weight = rng.NextDouble() * 0.5 + 0.01;
    ts.stddev = rng.NextDouble() * 0.2;
    ts.max_weight = std::min(1.0, ts.avg_weight + 3.0 * ts.stddev);
    rep.Put(std::move(term), ts);
  }
  return rep;
}

// Releasing an engine drops its pages from this process and nothing else:
// the mapping's Rss falls by at least the engine's whole pages and stays
// down while every term of the other engines is read, and the released
// engine then reads back the same stats. The store is over 2 MiB, so
// where the page cache holds it in a huge folio, a mapping without the
// map-time MADV_NOHUGEPAGE maps that folio whole, and the first read
// after the release maps the released pages back with it.
TEST(StoreReleaseTest, ReleasedEngineLeavesTheMappingAndReadsBackTheSame) {
  constexpr std::size_t kTerms = 25'000;
  const Representative reps[] = {MakeWideRep("engine0", kTerms, 1),
                                 MakeWideRep("engine1", kTerms, 2),
                                 MakeWideRep("engine2", kTerms, 3)};
  const std::string path = ::testing::TempDir() + "/store_release_" +
                           std::to_string(::getpid()) + ".urpz";
  ASSERT_TRUE(PackStoreToFile({&reps[0], &reps[1], &reps[2]}, path).ok());
  auto opened = StoreView::Open(path);
  std::remove(path.c_str());  // the mapping keeps the file's bytes
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  const StoreView& store = *opened.value();
  ASSERT_EQ(store.num_engines(), 3u);
  ASSERT_GT(store.file_bytes(), 2u << 20);

  // Reading every term maps every page of every block.
  std::vector<std::pair<std::string, TermStats>> read[3];
  for (std::size_t e = 0; e < 3; ++e) {
    store.engine(e).ForEachTerm(
        [&](std::string_view term, const TermStats& ts) {
          read[e].emplace_back(std::string(term), ts);
        });
    ASSERT_EQ(read[e].size(), kTerms);
  }
  auto expect_found = [&](std::size_t e) {
    std::size_t differ = 0;
    for (const auto& [term, ts] : read[e]) {
      std::optional<TermStats> found = store.engine(e).Find(term);
      if (!found.has_value() || found->p != ts.p ||
          found->avg_weight != ts.avg_weight || found->stddev != ts.stddev ||
          found->max_weight != ts.max_weight ||
          found->doc_freq != ts.doc_freq) {
        ++differ;
      }
    }
    EXPECT_EQ(differ, 0u) << "engine " << e;
  };

  // The engine names live in the index, inside the same mapping.
  const void* mapping = store.engine(0).engine_name().data();
  const long before_kb = MappingRssKb(mapping);
  ASSERT_GT(before_kb, 0);
  store.ReleaseEngine(1);
  const long released_kb = MappingRssKb(mapping);
  const long page = ::sysconf(_SC_PAGESIZE);
  const long whole_pages =
      static_cast<long>(store.engine(1).block_bytes()) / page - 1;
  EXPECT_GE(before_kb - released_kb, whole_pages * (page / 1024))
      << "Rss " << before_kb << " -> " << released_kb << " kB";

  expect_found(0);
  expect_found(2);
  EXPECT_LE(MappingRssKb(mapping), released_kb)
      << "reading engines 0 and 2 mapped engine 1's pages back";
  for (std::size_t e = 0; e < 3; ++e) expect_found(e);
}

// A buffer-backed view owns its bytes on the heap: releasing an engine
// leaves them as they were.
TEST(StoreReleaseTest, BufferBackedViewKeepsItsBytes) {
  Representative rep = MakeWideRep("db", 2'000, 4);
  auto store = MustOpen(EncodeStore({&rep}).value());
  ASSERT_NE(store, nullptr);
  store->ReleaseEngine(0);
  for (const auto& [term, ts] : rep.stats()) {
    ASSERT_TRUE(store->engine(0).Find(term).has_value()) << term;
  }
}

TEST(StoreTest, RejectsEmptyRepresentative) {
  Representative rep("db", 10, RepresentativeKind::kQuadruplet);
  auto r = EncodeStore({&rep});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kFailedPrecondition);
}

TEST(StoreTest, RejectsDuplicateEngineNames) {
  Representative a = MakeRep("db", 10, 1, RepresentativeKind::kQuadruplet);
  Representative b = MakeRep("db", 10, 2, RepresentativeKind::kQuadruplet);
  auto r = EncodeStore({&a, &b});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument);
}

TEST(StoreTest, EmptyStoreRoundTrips) {
  auto image = EncodeStore({});
  ASSERT_TRUE(image.ok());
  auto store = MustOpen(std::move(image).value());
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->num_engines(), 0u);
  EXPECT_FALSE(store->Find("anything").has_value());
}

// --- Corruption battery: every header/section invariant the validator
// enforces, exercised by flipping bytes of a valid image. ----------------

class StoreCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Representative rep =
        MakeRep("db", 120, 33, RepresentativeKind::kQuadruplet);
    auto image = EncodeStore({&rep});
    ASSERT_TRUE(image.ok());
    image_ = std::move(image).value();
  }

  void ExpectCorrupt(std::string bytes, const char* what) {
    auto r = StoreView::FromBuffer(std::move(bytes));
    ASSERT_FALSE(r.ok()) << what;
    EXPECT_EQ(r.status().code(), Status::Code::kCorruption) << what;
  }

  void Patch32(std::string* bytes, std::size_t off, std::uint32_t v) {
    std::memcpy(bytes->data() + off, &v, 4);
  }
  void Patch64(std::string* bytes, std::size_t off, std::uint64_t v) {
    std::memcpy(bytes->data() + off, &v, 8);
  }

  std::string image_;
};

TEST_F(StoreCorruptionTest, RejectsShortFile) {
  ExpectCorrupt(image_.substr(0, 16), "short");
  ExpectCorrupt("", "empty");
}

TEST_F(StoreCorruptionTest, RejectsBadMagic) {
  std::string bad = image_;
  bad[0] = 'X';
  ExpectCorrupt(std::move(bad), "magic");
}

TEST_F(StoreCorruptionTest, RejectsUnknownVersion) {
  std::string bad = image_;
  Patch32(&bad, 4, 99);
  ExpectCorrupt(std::move(bad), "version");
}

TEST_F(StoreCorruptionTest, RejectsSizeMismatch) {
  std::string bad = image_ + "extra";
  ExpectCorrupt(std::move(bad), "appended bytes");
  std::string truncated = image_.substr(0, image_.size() - 3);
  ExpectCorrupt(std::move(truncated), "truncated");
}

TEST_F(StoreCorruptionTest, RejectsIndexOffsetOutOfBounds) {
  std::string bad = image_;
  Patch64(&bad, 16, bad.size() + 100);
  ExpectCorrupt(std::move(bad), "index offset");
}

TEST_F(StoreCorruptionTest, RejectsBlockOutOfBounds) {
  std::string bad = image_;
  std::uint64_t index_off;
  std::memcpy(&index_off, bad.data() + 16, 8);
  Patch64(&bad, index_off, bad.size());  // engine block_offset
  ExpectCorrupt(std::move(bad), "block offset");
}

TEST_F(StoreCorruptionTest, RejectsRestartCountMismatch) {
  std::string bad = image_;
  Patch32(&bad, 32 + 28, 1);  // num_restarts of first engine block
  ExpectCorrupt(std::move(bad), "restart count");
}

TEST_F(StoreCorruptionTest, RejectsTermCountMismatch) {
  std::string bad = image_;
  Patch64(&bad, 32 + 16, 7);  // num_terms
  ExpectCorrupt(std::move(bad), "term count");
}

TEST_F(StoreCorruptionTest, RejectsFieldCountKindMismatch) {
  std::string bad = image_;
  Patch32(&bad, 32 + 4, 3);  // num_fields, but kind says quadruplet
  ExpectCorrupt(std::move(bad), "field count");
}

TEST_F(StoreCorruptionTest, RejectsGarbledTermBlob) {
  // Zero the whole term section: varints become nonsense relative to the
  // declared sizes and the ascending-order walk must fail.
  std::string bad = image_;
  std::uint64_t terms_off, terms_bytes;
  std::memcpy(&terms_off, bad.data() + 32 + 48, 8);
  std::memcpy(&terms_bytes, bad.data() + 32 + 56, 8);
  std::memset(bad.data() + 32 + terms_off, 0,
              static_cast<std::size_t>(terms_bytes));
  ExpectCorrupt(std::move(bad), "garbled terms");
}

TEST_F(StoreCorruptionTest, RejectsUnsortedIndex) {
  Representative a = MakeRep("aaa", 30, 1, RepresentativeKind::kQuadruplet);
  Representative b = MakeRep("bbb", 30, 2, RepresentativeKind::kQuadruplet);
  auto image = EncodeStore({&a, &b});
  ASSERT_TRUE(image.ok());
  std::string bad = std::move(image).value();
  std::uint64_t index_off;
  std::memcpy(&index_off, bad.data() + 16, 8);
  // Swap the two names ("aaa" <-> "bbb") inside the index records.
  char* first = bad.data() + index_off + 20;
  char* second = bad.data() + index_off + 20 + 3 + 20;
  for (int i = 0; i < 3; ++i) std::swap(first[i], second[i]);
  ExpectCorrupt(std::move(bad), "unsorted index");
}

TEST_F(StoreCorruptionTest, RejectsEngineCountBeyondIndex) {
  // The count is checked against the index bytes before it sizes the
  // engine table: 0xffffffff used to throw std::bad_alloc out of open.
  for (std::uint32_t count : {2u, 0xffffffffu}) {
    std::string bad = image_;
    Patch32(&bad, 8, count);
    auto r = StoreView::FromBuffer(std::move(bad));
    ASSERT_FALSE(r.ok()) << count;
    EXPECT_EQ(r.status().code(), Status::Code::kCorruption) << count;
    EXPECT_EQ(r.status().message(), "URPZ: engine count exceeds index size")
        << count;
  }
}

// --- Term entries in place: the validator compares each front-coded
// entry's suffix with the previous term's tail instead of building the
// term. These pin what it accepts and rejects, message for message. -----

/// One front-coded term entry: bytes shared with the previous term, then
/// the rest of the term.
struct TermEntry {
  std::uint32_t shared;
  std::string suffix;
};

void AppendVarint(std::string* out, std::uint32_t v) {
  for (; v >= 0x80; v >>= 7) out->push_back(static_cast<char>(v | 0x80));
  out->push_back(static_cast<char>(v));
}

std::uint64_t ReadU64At(const std::string& bytes, std::size_t off) {
  std::uint64_t v;
  std::memcpy(&v, bytes.data() + off, 8);
  return v;
}

void WriteU64At(std::string* bytes, std::size_t off, std::uint64_t v) {
  std::memcpy(bytes->data() + off, &v, 8);
}

/// Changes the term blob and the restart table (u32 offsets) of
/// ImageWithTerms before they are laid out.
using TermSectionEdit =
    std::function<void(std::string* terms, std::string* restarts)>;

/// A one-engine store of `entries.size()` terms whose term section is
/// exactly `entries` (after `edit`, when given), with every offset that
/// depends on the section's size fixed: the restart table, the engine
/// header's terms_bytes, codes_offset and block_bytes, the index entry's
/// block_bytes, and the file header's index_offset and file_bytes.
std::string ImageWithTerms(const std::vector<TermEntry>& entries,
                           std::uint32_t restart_interval = 16,
                           const TermSectionEdit& edit = nullptr) {
  Representative rep("db", 100, RepresentativeKind::kQuadruplet);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    rep.Put("t" + std::to_string(i), TermStats{0.5, 0.3, 0.1, 0.6, 50});
  }
  auto encoded = EncodeStore({&rep}, PackOptions{restart_interval});
  EXPECT_TRUE(encoded.ok());
  const std::string image = std::move(encoded).value();
  constexpr std::size_t kBlock = 32;  // the only engine block's offset
  const std::uint64_t restarts_offset = ReadU64At(image, kBlock + 32);
  const std::uint64_t dfbits_offset = ReadU64At(image, kBlock + 40);
  const std::uint64_t terms_offset = ReadU64At(image, kBlock + 48);
  const std::uint64_t codes_offset = ReadU64At(image, kBlock + 64);
  const std::uint64_t block_bytes = ReadU64At(image, kBlock + 72);
  const std::uint64_t index_offset = ReadU64At(image, 16);

  std::string terms, restarts;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i % restart_interval == 0) {
      const auto off = static_cast<std::uint32_t>(terms.size());
      restarts.append(reinterpret_cast<const char*>(&off), 4);
    }
    AppendVarint(&terms, entries[i].shared);
    AppendVarint(&terms, static_cast<std::uint32_t>(entries[i].suffix.size()));
    terms += entries[i].suffix;
  }
  if (edit) edit(&terms, &restarts);
  std::string block = image.substr(kBlock, restarts_offset) + restarts +
                      image.substr(kBlock + dfbits_offset,
                                   terms_offset - dfbits_offset) +
                      terms +
                      image.substr(kBlock + codes_offset,
                                   block_bytes - codes_offset);
  WriteU64At(&block, 56, terms.size());
  WriteU64At(&block, 64, terms_offset + terms.size());
  WriteU64At(&block, 72, block.size());
  std::string file = image.substr(0, kBlock) + block;
  const std::uint64_t new_index_offset = file.size();
  file += image.substr(index_offset);
  WriteU64At(&file, new_index_offset + 8, block.size());
  WriteU64At(&file, 16, new_index_offset);
  WriteU64At(&file, 24, file.size());
  return file;
}

/// The status of opening a store whose only engine holds `entries`.
Status OpenWithTerms(const std::vector<TermEntry>& entries,
                     std::uint32_t restart_interval = 16,
                     const TermSectionEdit& edit = nullptr) {
  return StoreView::FromBuffer(
             ImageWithTerms(entries, restart_interval, edit))
      .status();
}

/// Opens a store whose only engine holds `entries` and expects it to list
/// exactly `terms`, each found by Find.
void ExpectTermsFound(const std::vector<TermEntry>& entries,
                      const std::vector<std::string>& terms) {
  auto store = MustOpen(ImageWithTerms(entries));
  ASSERT_NE(store, nullptr);
  const RepresentativeView& view = store->engine(0);
  std::vector<std::string> listed;
  view.ForEachTerm([&](std::string_view term, const TermStats&) {
    listed.emplace_back(term);
  });
  EXPECT_EQ(listed, terms);
  for (const std::string& term : terms) {
    EXPECT_TRUE(view.Find(term).has_value()) << term;
  }
}

TEST(StoreTermEntryTest, ShorterSharedPrefixThatAscendsIsAccepted) {
  // "apricot" shares 2 bytes with "apple" and "band" 3 with "banana";
  // storing fewer still describes the same ascending terms.
  ExpectTermsFound({{0, "apple"},
                    {1, "pricot"},
                    {0, "banana"},
                    {2, "nd"},
                    {0, "bandit"},
                    {4, "s"}},
                   {"apple", "apricot", "banana", "band", "bandit", "bands"});
}

TEST(StoreTermEntryTest, RejectsEqualAndDescendingEntries) {
  const Status equal = OpenWithTerms({{0, "abc"}, {3, ""}});
  EXPECT_EQ(equal.code(), Status::Code::kCorruption);
  EXPECT_EQ(equal.message(), "URPZ: terms not strictly ascending");
  const Status descending = OpenWithTerms({{0, "abd"}, {2, "c"}});
  EXPECT_EQ(descending.code(), Status::Code::kCorruption);
  EXPECT_EQ(descending.message(), "URPZ: terms not strictly ascending");
  const Status proper_prefix = OpenWithTerms({{0, "abc"}, {0, "ab"}});
  EXPECT_EQ(proper_prefix.message(), "URPZ: terms not strictly ascending");
}

TEST(StoreTermEntryTest, RejectsSharedPrefixLongerThanPreviousTerm) {
  const Status s = OpenWithTerms({{0, "ab"}, {3, "c"}});
  EXPECT_EQ(s.code(), Status::Code::kCorruption);
  EXPECT_EQ(s.message(), "URPZ: term entry out of bounds");
}

TEST(StoreTermEntryTest, RejectsSharedPrefixAtRestart) {
  const Status first = OpenWithTerms({{1, "a"}, {0, "b"}});
  EXPECT_EQ(first.code(), Status::Code::kCorruption);
  EXPECT_EQ(first.message(), "URPZ: nonzero shared prefix at restart");
  const Status later =
      OpenWithTerms({{0, "a"}, {0, "b"}, {1, "c"}}, /*restart_interval=*/2);
  EXPECT_EQ(later.code(), Status::Code::kCorruption);
  EXPECT_EQ(later.message(), "URPZ: nonzero shared prefix at restart");
}

TEST(StoreTermEntryTest, HighBytesSortAboveAscii) {
  // Bytes >= 0x80 order as unsigned, as Find compares them: "ab\xe9" is
  // above "abc" and "\x80" above "zebra".
  ExpectTermsFound({{0, "abc"}, {2, "\xe9"}, {0, "zebra"}, {0, "\x80"},
                    {1, "\xff"}},
                   {"abc", "ab\xe9", "zebra", "\x80", "\x80\xff"});
}

TEST(StoreTermEntryTest, TwoByteVarintsForLongSuffixAndSharedPrefix) {
  // A suffix of 200 bytes and a shared prefix of 150: both lengths take
  // two varint bytes.
  const std::string long_a(200, 'a');
  ExpectTermsFound({{0, long_a}, {150, "b"}, {151, "c"}},
                   {long_a, std::string(150, 'a') + "b",
                    std::string(150, 'a') + "bc"});
}

TEST(StoreTermEntryTest, RejectsVarintCutAtEndOfBlob) {
  // The second entry's suffix length (200: bytes C8 01) loses its second
  // byte and its suffix: the blob ends inside the varint.
  const Status s = OpenWithTerms(
      {{0, "a"}, {0, std::string(200, 'b')}}, 16,
      [](std::string* terms, std::string*) { terms->resize(5); });
  EXPECT_EQ(s.code(), Status::Code::kCorruption);
  EXPECT_EQ(s.message(), "URPZ: truncated term entry");
}

TEST(StoreTermEntryTest, RejectsRestartOffsetMismatch) {
  // With a restart at every term, the second restart must point at the
  // second entry (byte 3); it points one byte further.
  const Status s = OpenWithTerms(
      {{0, "a"}, {0, "b"}}, /*restart_interval=*/1,
      [](std::string*, std::string* restarts) { (*restarts)[4] += 1; });
  EXPECT_EQ(s.code(), Status::Code::kCorruption);
  EXPECT_EQ(s.message(), "URPZ: restart offset mismatch");
}

TEST(StoreTermEntryTest, RejectsBytesAfterLastTerm) {
  const Status s = OpenWithTerms(
      {{0, "a"}, {0, "b"}}, 16,
      [](std::string* terms, std::string*) { terms->push_back('c'); });
  EXPECT_EQ(s.code(), Status::Code::kCorruption);
  EXPECT_EQ(s.message(), "URPZ: trailing bytes in term blob");
}

// --- Error order: engines' term walks run on several threads, yet a
// corrupt image reports the error a serial walk in index order meets
// first. Each image carries two faults. ----------------------------------

/// Offset of engine `e`'s index entry in `image`.
std::size_t IndexEntryAt(const std::string& image, int e) {
  std::size_t entry = ReadU64At(image, 16);
  for (int i = 0; i < e; ++i) {
    std::uint32_t name_len;
    std::memcpy(&name_len, image.data() + entry + 16, 4);
    entry += 20 + name_len;
  }
  return entry;
}

/// Offset of engine `e`'s block in `image`.
std::size_t BlockAt(const std::string& image, int e) {
  return ReadU64At(image, IndexEntryAt(image, e));
}

std::uint32_t ReadU32At(const std::string& bytes, std::size_t off) {
  std::uint32_t v;
  std::memcpy(&v, bytes.data() + off, 4);
  return v;
}

/// Walk fault at engine `e`'s last restart, the end of its walk: that
/// entry claims a shared prefix.
void BreakLastRestart(std::string* image, int e) {
  const std::size_t block = BlockAt(*image, e);
  const std::uint32_t num_restarts = ReadU32At(*image, block + 28);
  const std::uint64_t restarts = ReadU64At(*image, block + 32);
  const std::uint64_t terms = ReadU64At(*image, block + 48);
  const std::uint32_t last =
      ReadU32At(*image, block + restarts + 4 * (num_restarts - 1));
  (*image)[block + terms + last] = 1;
}

/// Walk fault at engine `e`'s second restart, early in its walk: the
/// restart table points one byte past the entry.
void BreakSecondRestartOffset(std::string* image, int e) {
  const std::size_t block = BlockAt(*image, e);
  const std::uint64_t restarts = ReadU64At(*image, block + 32);
  (*image)[block + restarts + 4] += 1;
}

/// Bad index entry for engine `e`: its header's field count fits no kind.
void BreakFieldCount(std::string* image, int e) {
  const std::size_t block = BlockAt(*image, e);
  const std::uint32_t fields = 5;
  std::memcpy(image->data() + block + 4, &fields, 4);
}

/// Bytes after the engine index, with the header's file size to match.
void AppendAfterIndex(std::string* image) {
  *image += "xx";
  WriteU64At(image, 24, image->size());
}

class StoreErrorOrderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // alpha's walk is long and beta's and gamma's short, so a fault late
    // in alpha is met after an early one in gamma by threads that run
    // side by side.
    Representative a =
        MakeRep("alpha", 6000, 51, RepresentativeKind::kQuadruplet);
    Representative b = MakeRep("beta", 200, 52, RepresentativeKind::kTriplet);
    Representative c =
        MakeRep("gamma", 200, 53, RepresentativeKind::kQuadruplet);
    auto image = EncodeStore({&a, &b, &c});
    ASSERT_TRUE(image.ok());
    image_ = std::move(image).value();
  }

  /// Opens `bytes` 20 times on four threads and once on one; every open
  /// must fail with exactly `expected`.
  void ExpectReported(const std::string& bytes, const std::string& expected) {
    EXPECT_EQ(StoreView::FromBuffer(bytes).status().ToString(), expected)
        << "one thread";
    for (int run = 0; run < 20; ++run) {
      EXPECT_EQ(StoreView::FromBuffer(bytes, 4).status().ToString(), expected)
          << "run " << run;
    }
  }

  std::string image_;
};

TEST_F(StoreErrorOrderTest, WalkBeforeBadEntryWins) {
  std::string bad = image_;
  BreakLastRestart(&bad, 1);
  BreakFieldCount(&bad, 2);
  ExpectReported(bad, "Corruption: URPZ: nonzero shared prefix at restart");
}

TEST_F(StoreErrorOrderTest, BadEntryBeforeWalkWins) {
  std::string bad = image_;
  BreakFieldCount(&bad, 1);
  BreakSecondRestartOffset(&bad, 2);
  ExpectReported(bad, "Corruption: URPZ: field count does not match kind");
}

TEST_F(StoreErrorOrderTest, FirstEngineWalkWinsOverAnEarlierFinish) {
  std::string bad = image_;
  BreakLastRestart(&bad, 0);
  BreakSecondRestartOffset(&bad, 2);
  ExpectReported(bad, "Corruption: URPZ: nonzero shared prefix at restart");
}

TEST_F(StoreErrorOrderTest, WalkWinsOverBytesAfterIndex) {
  std::string bad = image_;
  BreakSecondRestartOffset(&bad, 2);
  AppendAfterIndex(&bad);
  ExpectReported(bad, "Corruption: URPZ: restart offset mismatch");
}

TEST_F(StoreErrorOrderTest, EmptyAndOneEngineStoresOpenOnManyThreads) {
  // The walk pool is sized by the engines, never from zero.
  auto empty = StoreView::FromBuffer(EncodeStore({}).value(), 8);
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_EQ(empty.value()->num_engines(), 0u);
  Representative rep = MakeRep("db", 50, 4, RepresentativeKind::kTriplet);
  auto one = StoreView::FromBuffer(EncodeStore({&rep}).value(), 8);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  EXPECT_EQ(one.value()->num_engines(), 1u);
  auto all = StoreView::FromBuffer(image_, 8);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(all.value()->num_engines(), 3u);
}

// --- Sweep: no image makes open throw, and every image that opens is
// searchable for every term it lists. ---------------------------------

/// Opens `bytes` and checks the outcome: OK or Corruption, never a throw;
/// when it opens, every engine is found by name and every term it lists
/// is found with the stats it lists.
void ExpectOpensCleanly(std::string bytes, const std::string& what) {
  std::optional<Result<std::shared_ptr<const StoreView>>> r;
  try {
    r.emplace(StoreView::FromBuffer(std::move(bytes)));
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": open threw " << e.what();
    return;
  }
  if (!r->ok()) {
    EXPECT_EQ(r->status().code(), Status::Code::kCorruption) << what;
    return;
  }
  const StoreView& store = *r->value();
  for (std::size_t e = 0; e < store.num_engines(); ++e) {
    const RepresentativeView& view = store.engine(e);
    EXPECT_TRUE(store.Find(view.engine_name()).has_value()) << what;
    view.ForEachTerm([&](std::string_view term, const TermStats& ts) {
      auto found = view.Find(term);
      ASSERT_TRUE(found.has_value()) << what << " term " << term;
      ExpectSameStats(*found, ts, what);
    });
  }
}

TEST(StoreSweepTest, NoImageThrowsAndEveryOpenedTermIsFound) {
  Representative a = MakeRep("alpha", 40, 1, RepresentativeKind::kQuadruplet);
  Representative b = MakeRep("beta", 30, 2, RepresentativeKind::kTriplet);
  Representative c = MakeRep("gamma", 50, 3, RepresentativeKind::kQuadruplet);
  auto encoded = EncodeStore({&a, &b, &c});
  ASSERT_TRUE(encoded.ok());
  const std::string image = std::move(encoded).value();
  ExpectOpensCleanly(image, "unmodified");

  // Every u32/u64 field of the file header, the index entries and the
  // engine headers, set to 0, 1 and all-ones.
  std::vector<std::pair<std::size_t, int>> fields = {
      {4, 4}, {8, 4}, {12, 4}, {16, 8}, {24, 8}};
  std::size_t entry = ReadU64At(image, 16);
  for (int e = 0; e < 3; ++e) {
    const std::uint64_t block = ReadU64At(image, entry);
    for (std::size_t off : {0, 4, 24, 28}) fields.emplace_back(block + off, 4);
    for (std::size_t off : {8, 16, 32, 40, 48, 56, 64, 72}) {
      fields.emplace_back(block + off, 8);
    }
    fields.emplace_back(entry, 8);
    fields.emplace_back(entry + 8, 8);
    fields.emplace_back(entry + 16, 4);
    std::uint32_t name_len;
    std::memcpy(&name_len, image.data() + entry + 16, 4);
    entry += 20 + name_len;
  }
  ASSERT_EQ(entry, image.size());
  for (const auto& [off, width] : fields) {
    for (std::uint64_t v : {0ull, 1ull, ~0ull}) {
      std::string bad = image;
      std::memcpy(bad.data() + off, &v, static_cast<std::size_t>(width));
      ExpectOpensCleanly(std::move(bad), "field at " + std::to_string(off) +
                                             " = " + std::to_string(v));
    }
  }

  Pcg32 rng(2024);
  const auto size = static_cast<std::uint32_t>(image.size());
  for (int trial = 0; trial < 3000; ++trial) {
    std::string bad = image;
    const std::size_t pos = rng.NextBounded(size);
    bad[pos] = static_cast<char>(bad[pos] ^ (1 + rng.NextBounded(255)));
    ExpectOpensCleanly(std::move(bad), "flip at " + std::to_string(pos));
  }
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t cut = rng.NextBounded(size);
    ExpectOpensCleanly(image.substr(0, cut), "cut at " + std::to_string(cut));
  }
}

}  // namespace
}  // namespace useful::represent
