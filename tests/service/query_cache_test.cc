#include "service/query_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <string>
#include <vector>

#include "text/analyzer.h"
#include "util/thread_pool.h"

namespace useful::service {
namespace {

CachedEstimate MakeEstimate(double no_doc) { return {no_doc, 0.5}; }

ir::Query MakeQuery(std::vector<std::pair<std::string, double>> terms) {
  ir::Query q;
  for (auto& [term, weight] : terms) {
    q.terms.push_back(ir::QueryTerm{term, weight});
  }
  return q;
}

TEST(QueryCacheKeyTest, TermOrderDoesNotSplitTheCache) {
  ir::Query a = MakeQuery({{"fox", 0.6}, {"dog", 0.8}});
  ir::Query b = MakeQuery({{"dog", 0.8}, {"fox", 0.6}});
  EXPECT_EQ(QueryCache::MakeKey("subrange", 0.2, a),
            QueryCache::MakeKey("subrange", 0.2, b));
}

TEST(QueryCacheKeyTest, DistinguishesEstimatorThresholdAndWeights) {
  ir::Query q = MakeQuery({{"fox", 0.6}});
  std::string base = QueryCache::MakeKey("subrange", 0.2, q);
  EXPECT_NE(base, QueryCache::MakeKey("basic", 0.2, q));
  EXPECT_NE(base, QueryCache::MakeKey("subrange", 0.3, q));
  ir::Query other_weight = MakeQuery({{"fox", 0.7}});
  EXPECT_NE(base, QueryCache::MakeKey("subrange", 0.2, other_weight));
}

TEST(QueryCacheKeyTest, NegativeZeroCanonicalizesToPositiveZero) {
  // -0.0 == 0.0 numerically, but the two have different bit patterns; a
  // bit-level key must not split the cache (or worse, let two clients see
  // different rankings for the same query).
  ir::Query q = MakeQuery({{"fox", 0.6}});
  EXPECT_EQ(QueryCache::MakeKey("subrange", 0.0, q),
            QueryCache::MakeKey("subrange", -0.0, q));
  ir::Query pos = MakeQuery({{"fox", 0.0}});
  ir::Query neg = MakeQuery({{"fox", -0.0}});
  EXPECT_EQ(QueryCache::MakeKey("subrange", 0.2, pos),
            QueryCache::MakeKey("subrange", 0.2, neg));
  // Genuinely different thresholds still get distinct keys.
  EXPECT_NE(QueryCache::MakeKey("subrange", 0.0, q),
            QueryCache::MakeKey("subrange", 0.2, q));
}

TEST(QueryCacheKeyTest, WeightSpellingDoesNotSplitTheCache) {
  // The key is built from the parsed query's normalized weight bits, not
  // the request text, so equivalent spellings of one weight share an
  // entry: `a^2 b` == `a^2.0 b`, and a lone `a^5` normalizes to the same
  // unit vector as plain `a`.
  text::Analyzer analyzer;
  auto parse = [&](const char* text) {
    auto q = ir::ParseAnnotatedQuery(analyzer, text);
    EXPECT_TRUE(q.ok()) << text;
    return std::move(q).value();
  };
  EXPECT_EQ(QueryCache::MakeKey("subrange", 0.2, parse("data^2 grid")),
            QueryCache::MakeKey("subrange", 0.2, parse("data^2.0 grid")));
  EXPECT_EQ(QueryCache::MakeKey("subrange", 0.2, parse("data^5")),
            QueryCache::MakeKey("subrange", 0.2, parse("data")));
  // Genuinely different weights still split.
  EXPECT_NE(QueryCache::MakeKey("subrange", 0.2, parse("data^2 grid")),
            QueryCache::MakeKey("subrange", 0.2, parse("data^3 grid")));
}

TEST(QueryCacheKeyTest, NegationAndMinShouldMatchArePartOfTheKey) {
  // A negated term scores differently from its positive twin, and an MSM
  // constraint from an unconstrained query — colliding either pair would
  // serve one semantics' ranking for the other.
  text::Analyzer analyzer;
  auto parse = [&](const char* text) {
    auto q = ir::ParseAnnotatedQuery(analyzer, text);
    EXPECT_TRUE(q.ok()) << text;
    return std::move(q).value();
  };
  EXPECT_NE(QueryCache::MakeKey("subrange", 0.2, parse("data -grid")),
            QueryCache::MakeKey("subrange", 0.2, parse("data grid")));
  EXPECT_NE(QueryCache::MakeKey("subrange", 0.2, parse("data grid MSM 1")),
            QueryCache::MakeKey("subrange", 0.2, parse("data grid")));
  EXPECT_NE(QueryCache::MakeKey("subrange", 0.2, parse("data grid MSM 1")),
            QueryCache::MakeKey("subrange", 0.2, parse("data grid MSM 2")));
  // MSM 0 is the unconstrained query; the key must not split on it.
  EXPECT_EQ(QueryCache::MakeKey("subrange", 0.2, parse("data grid MSM 0")),
            QueryCache::MakeKey("subrange", 0.2, parse("data grid")));
}

TEST(QueryCacheTest, MissThenHit) {
  QueryCache cache({.max_entries = 8, .max_bytes = 1u << 20});
  EXPECT_FALSE(cache.Get("k1").has_value());
  cache.Put("k1", MakeEstimate(2.0), 0);
  auto hit = cache.Get("k1");
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->no_doc, 2.0);
  EXPECT_DOUBLE_EQ(hit->avg_sim, 0.5);
  auto c = cache.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.entries, 1u);
  EXPECT_GT(c.bytes, 0u);
}

TEST(QueryCacheTest, EvictsLeastRecentlyUsedInOrder) {
  QueryCache cache({.max_entries = 3, .max_bytes = 1u << 20});
  cache.Put("a", MakeEstimate(1), 0);
  cache.Put("b", MakeEstimate(1), 0);
  cache.Put("c", MakeEstimate(1), 0);
  // Touch "a" so "b" becomes the LRU victim.
  EXPECT_TRUE(cache.Get("a").has_value());
  cache.Put("d", MakeEstimate(1), 0);
  EXPECT_EQ(cache.counters().evictions, 1u);
  EXPECT_FALSE(cache.Get("b").has_value());
  EXPECT_TRUE(cache.Get("a").has_value());
  EXPECT_TRUE(cache.Get("c").has_value());
  EXPECT_TRUE(cache.Get("d").has_value());
  // Still at the entry budget.
  EXPECT_EQ(cache.counters().entries, 3u);
}

TEST(QueryCacheTest, RefreshingAKeyUpdatesValueWithoutGrowth) {
  QueryCache cache({.max_entries = 4, .max_bytes = 1u << 20});
  cache.Put("k", MakeEstimate(1.0), 0);
  cache.Put("k", MakeEstimate(9.0), 0);
  EXPECT_EQ(cache.counters().entries, 1u);
  auto hit = cache.Get("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->no_doc, 9.0);
}

TEST(QueryCacheTest, ByteBudgetEvicts) {
  // Each entry costs ~kEntryOverhead + key + its one slot; a budget
  // of ~2 entries must hold the cache near two entries regardless of the
  // (larger) entry budget.
  QueryCache cache({.max_entries = 100, .max_bytes = 300});
  for (int i = 0; i < 10; ++i) {
    cache.Put("key" + std::to_string(i), MakeEstimate(1.0), 0);
  }
  auto c = cache.counters();
  EXPECT_GT(c.evictions, 0u);
  EXPECT_LE(c.bytes, 300u);
  EXPECT_LT(c.entries, 10u);
}

TEST(QueryCacheTest, OversizeEntryIsNotCached) {
  // The value is a fixed-size estimate now, so only the key can blow the
  // budget — a key alone larger than the byte budget must not be
  // admitted (it could never coexist with anything).
  QueryCache cache({.max_entries = 8, .max_bytes = 200});
  std::string huge_key(300, 'k');
  cache.Put(huge_key, MakeEstimate(1.0), 0);
  EXPECT_EQ(cache.counters().entries, 0u);
  EXPECT_FALSE(cache.Get(huge_key).has_value());
}

TEST(QueryCacheTest, ClearDropsEntriesButKeepsCounterTotals) {
  QueryCache cache({.max_entries = 8, .max_bytes = 1u << 20});
  cache.Put("a", MakeEstimate(1), 0);
  cache.Put("b", MakeEstimate(1), 0);
  EXPECT_TRUE(cache.Get("a").has_value());
  cache.Clear();
  auto c = cache.counters();
  EXPECT_EQ(c.entries, 0u);
  EXPECT_EQ(c.bytes, 0u);
  EXPECT_EQ(c.hits, 1u);  // history survives
  EXPECT_FALSE(cache.Get("a").has_value());
}

// One slot per generation, each estimate's no_doc the generation itself.
std::vector<QueryCache::Slot> Slots(const std::vector<std::uint64_t>& gens) {
  std::vector<QueryCache::Slot> slots;
  for (std::uint64_t gen : gens) {
    slots.push_back({gen, MakeEstimate(static_cast<double>(gen))});
  }
  return slots;
}

TEST(QueryCacheTest, LookupFillsOnlyTheGenerationsPresent) {
  QueryCache cache({.max_entries = 64, .max_bytes = 1u << 20});
  cache.Insert("q", Slots({3, 1, 7}), 0);
  // Out of order, with two generations the entry lacks.
  const std::vector<std::uint64_t> gens = {7, 2, 1, 9, 3};
  std::vector<std::optional<CachedEstimate>> got = cache.Lookup("q", gens);
  ASSERT_EQ(got.size(), gens.size());
  ASSERT_TRUE(got[0].has_value());
  EXPECT_DOUBLE_EQ(got[0]->no_doc, 7.0);
  EXPECT_FALSE(got[1].has_value());
  ASSERT_TRUE(got[2].has_value());
  EXPECT_DOUBLE_EQ(got[2]->no_doc, 1.0);
  EXPECT_FALSE(got[3].has_value());
  ASSERT_TRUE(got[4].has_value());
  EXPECT_DOUBLE_EQ(got[4]->no_doc, 3.0);
  auto c = cache.counters();
  EXPECT_EQ(c.hits, 3u);
  EXPECT_EQ(c.misses, 2u);
  EXPECT_EQ(c.entries, 3u);  // slots, not queries
  // An absent key misses once per generation.
  EXPECT_FALSE(cache.Lookup("other", gens)[0].has_value());
  EXPECT_EQ(cache.counters().misses, 7u);
  // The misses, once inserted, join the same entry.
  cache.Insert("q", Slots({9, 2}), 0);
  got = cache.Lookup("q", gens);
  for (std::size_t i = 0; i < gens.size(); ++i) {
    ASSERT_TRUE(got[i].has_value()) << i;
    EXPECT_DOUBLE_EQ(got[i]->no_doc, static_cast<double>(gens[i]));
  }
  EXPECT_EQ(cache.counters().entries, 5u);
  EXPECT_EQ(cache.counters().hits, 8u);
}

TEST(QueryCacheTest, EraseGenerationsRemovesOnlyThoseSlots) {
  QueryCache cache({.max_entries = 64, .max_bytes = 1u << 20});
  cache.Insert("q1", Slots({1, 2, 3}), 0);
  cache.Insert("q2", Slots({2}), 0);
  cache.Insert("q3", Slots({3}), 0);
  EXPECT_EQ(cache.EraseGenerations({2}), 2u);
  auto c = cache.counters();
  EXPECT_EQ(c.expired, 2u);
  EXPECT_EQ(c.evictions, 0u);  // a sweep is not LRU pressure
  EXPECT_EQ(c.entries, 3u);    // q1's gens 1 and 3, q3's gen 3
  // q2 held only gen 2, so the sweep dropped it: the budget left is a
  // cache's that never held generation 2.
  QueryCache survivors({.max_entries = 64, .max_bytes = 1u << 20});
  survivors.Insert("q1", Slots({1, 3}), 0);
  survivors.Insert("q3", Slots({3}), 0);
  EXPECT_EQ(c.bytes, survivors.counters().bytes);

  const std::vector<std::uint64_t> gens = {1, 2, 3};
  auto q1 = cache.Lookup("q1", gens);
  EXPECT_TRUE(q1[0].has_value());
  EXPECT_FALSE(q1[1].has_value());
  EXPECT_TRUE(q1[2].has_value());
  EXPECT_FALSE(cache.Lookup("q2", gens)[1].has_value());
  EXPECT_TRUE(cache.Lookup("q3", gens)[2].has_value());
}

TEST(QueryCacheTest, EraseGenerationsReclaimsBudgetImmediately) {
  // Entries under a dead generation that stay resident until LRU pressure
  // finds them squat on the budget and evict LIVE entries. A sweep must
  // hand the budget back at once: after erasing the dead engine's slots,
  // inserting its next generation must not evict the survivors.
  QueryCache cache({.max_entries = 4, .max_bytes = 1u << 20});
  cache.Insert("q1", Slots({1, 2}), 0);  // engine "dead" is gen 1, then 3
  cache.Insert("q2", Slots({1, 2}), 0);
  // The cache is exactly full. Sweep the dead generation, then refill
  // with the next one.
  const std::size_t full_bytes = cache.counters().bytes;
  EXPECT_EQ(cache.EraseGenerations({1}), 2u);
  EXPECT_LT(cache.counters().bytes, full_bytes);  // budget handed back now
  cache.Insert("q1", Slots({3}), 0);
  cache.Insert("q2", Slots({3}), 0);
  // The survivors were never evicted: the swept budget absorbed the new
  // generation entirely.
  EXPECT_EQ(cache.counters().evictions, 0u);
  const std::vector<std::uint64_t> gens = {2, 3};
  for (const char* key : {"q1", "q2"}) {
    auto got = cache.Lookup(key, gens);
    EXPECT_TRUE(got[0].has_value()) << key;
    EXPECT_TRUE(got[1].has_value()) << key;
  }
  EXPECT_EQ(cache.counters().entries, 4u);
}

TEST(QueryCacheTest, StaleInsertStoresNothingAndCountsEverySlot) {
  QueryCache cache({.max_entries = 64, .max_bytes = 1u << 20});
  cache.Insert("q", Slots({1}), /*epoch=*/0);
  cache.SetMinEpoch(1);
  // Computed under the retired epoch: neither a new entry nor a merge
  // into the existing one.
  cache.Insert("q", Slots({2, 3}), /*epoch=*/0);
  cache.Insert("fresh", Slots({1, 2, 3}), /*epoch=*/0);
  auto c = cache.counters();
  EXPECT_EQ(c.expired, 5u);
  EXPECT_EQ(c.entries, 1u);
  const std::vector<std::uint64_t> gens = {1, 2, 3};
  auto got = cache.Lookup("q", gens);
  EXPECT_TRUE(got[0].has_value());
  EXPECT_FALSE(got[1].has_value());
  EXPECT_FALSE(got[2].has_value());
  EXPECT_FALSE(cache.Lookup("fresh", gens)[0].has_value());
}

TEST(QueryCacheTest, SlotBudgetEvictsWholeLeastRecentlyUsedQueries) {
  QueryCache cache({.max_entries = 8, .max_bytes = 1u << 20});
  cache.Insert("a", Slots({1, 2, 3}), 0);
  cache.Insert("b", Slots({1, 2, 3}), 0);
  const std::vector<std::uint64_t> gens = {1};
  EXPECT_TRUE(cache.Lookup("a", gens)[0].has_value());  // "b" is now LRU
  // 6 + 3 slots > 8: all of "b" goes, counted slot by slot.
  cache.Insert("c", Slots({1, 2, 3}), 0);
  auto c = cache.counters();
  EXPECT_EQ(c.evictions, 3u);
  EXPECT_EQ(c.entries, 6u);
  EXPECT_FALSE(cache.Lookup("b", gens)[0].has_value());
  EXPECT_TRUE(cache.Lookup("a", gens)[0].has_value());
  EXPECT_TRUE(cache.Lookup("c", gens)[0].has_value());
  // Growing an entry evicts as well: "a" gains three slots, "c" is LRU.
  cache.Insert("a", Slots({4, 5, 6}), 0);
  EXPECT_EQ(cache.counters().evictions, 6u);
  EXPECT_EQ(cache.counters().entries, 6u);
}

TEST(QueryCacheTest, EntryOverTheSlotBudgetIsNotCached) {
  QueryCache cache({.max_entries = 4, .max_bytes = 1u << 20});
  cache.Insert("small", Slots({1, 2}), 0);
  cache.Insert("big", Slots({1, 2, 3, 4, 5}), 0);
  auto c = cache.counters();
  EXPECT_EQ(c.entries, 2u);
  EXPECT_EQ(c.evictions, 0u);  // nothing made room for what cannot fit
  const std::vector<std::uint64_t> gens = {1};
  EXPECT_FALSE(cache.Lookup("big", gens)[0].has_value());
  EXPECT_TRUE(cache.Lookup("small", gens)[0].has_value());
  // Nor may an entry grow past the budget; it keeps the slots it had.
  cache.Insert("small", Slots({3, 4, 5}), 0);
  EXPECT_EQ(cache.counters().entries, 2u);
  EXPECT_TRUE(cache.Lookup("small", gens)[0].has_value());
}

TEST(QueryCacheTest, DefaultsHoldAHotSetOf64QueriesOver53Engines) {
  // hot-route's working set: 64 queries, each with a slot per engine. The
  // whole-cache slot budget keeps all 3,392; a per-shard split of it
  // would evict them.
  QueryCache cache;
  constexpr std::uint64_t kEngines = 53;
  std::vector<std::uint64_t> gens;
  for (std::uint64_t g = 0; g < kEngines; ++g) gens.push_back(g);
  for (int q = 0; q < 64; ++q) {
    cache.Insert("query" + std::to_string(q), Slots(gens), 0);
  }
  for (int q = 0; q < 64; ++q) {
    auto got = cache.Lookup("query" + std::to_string(q), gens);
    for (const auto& slot : got) ASSERT_TRUE(slot.has_value()) << q;
  }
  auto c = cache.counters();
  EXPECT_EQ(c.entries, 64u * kEngines);
  EXPECT_EQ(c.evictions, 0u);
  EXPECT_EQ(c.hits, 64u * kEngines);
  EXPECT_EQ(c.misses, 0u);
}

TEST(QueryCacheTest, StalePutIsRefusedAfterEpochAdvance) {
  // A request computed under snapshot epoch E races an invalidation that
  // published epoch E+1 and swept: its late Put must be refused, or the
  // dead generation re-enters the cache right behind the sweep.
  QueryCache cache({.max_entries = 8, .max_bytes = 1u << 20});
  cache.Put("a", MakeEstimate(1), /*epoch=*/0);
  cache.SetMinEpoch(1);
  cache.Put("b", MakeEstimate(1), /*epoch=*/0);  // stale: refused
  EXPECT_FALSE(cache.Get("b").has_value());
  cache.Put("c", MakeEstimate(1), /*epoch=*/1);  // current: accepted
  EXPECT_TRUE(cache.Get("c").has_value());
  auto c = cache.counters();
  EXPECT_EQ(c.expired, 1u);
  EXPECT_EQ(c.entries, 2u);
}

TEST(QueryCacheTest, MinEpochIsMonotone) {
  QueryCache cache({.max_entries = 8, .max_bytes = 1u << 20});
  cache.SetMinEpoch(5);
  cache.SetMinEpoch(3);  // out-of-order call must not lower the bar
  cache.Put("k", MakeEstimate(1), /*epoch=*/4);
  EXPECT_FALSE(cache.Get("k").has_value());
  EXPECT_EQ(cache.counters().expired, 1u);
  cache.Put("k", MakeEstimate(1), /*epoch=*/5);
  EXPECT_TRUE(cache.Get("k").has_value());
}

TEST(QueryCacheTest, ConcurrentHammeringKeepsCountersConsistent) {
  QueryCache cache({.max_entries = 64, .max_bytes = 1u << 20});
  constexpr std::size_t kOps = 4000;
  constexpr std::size_t kKeys = 97;
  std::atomic<std::uint64_t> observed_hits{0};
  util::ThreadPool pool(8);
  pool.ParallelFor(kOps, [&](std::size_t i) {
    std::string key = "key" + std::to_string(i % kKeys);
    auto hit = cache.Get(key);
    if (hit.has_value()) {
      observed_hits.fetch_add(1, std::memory_order_relaxed);
      // A cached estimate is always intact, never half-written.
      EXPECT_DOUBLE_EQ(hit->no_doc, static_cast<double>(i % kKeys));
    } else {
      cache.Put(key, {static_cast<double>(i % kKeys), 0.5}, 0);
    }
  });
  auto c = cache.counters();
  // Every Get counted exactly once, as either a hit or a miss.
  EXPECT_EQ(c.hits + c.misses, kOps);
  EXPECT_EQ(c.hits, observed_hits.load());
  EXPECT_LE(c.entries, 64u);
}

// Lookups, Inserts and sweeps of one entry race from many threads: every
// generation probed is counted once, and no slot is ever half-written.
TEST(QueryCacheTest, ConcurrentLookupInsertAndSweepKeepCountersConsistent) {
  QueryCache cache({.max_entries = 256, .max_bytes = 1u << 20});
  constexpr std::size_t kOps = 3000;
  constexpr std::uint64_t kGens = 16;
  std::vector<std::uint64_t> gens;
  for (std::uint64_t g = 0; g < kGens; ++g) gens.push_back(g);
  util::ThreadPool pool(8);
  pool.ParallelFor(kOps, [&](std::size_t i) {
    std::string key = "q" + std::to_string(i % 5);
    if (i % 97 == 0) {
      cache.EraseGenerations({i % kGens});
      return;
    }
    auto got = cache.Lookup(key, gens);
    std::vector<QueryCache::Slot> misses;
    for (std::size_t g = 0; g < got.size(); ++g) {
      if (got[g].has_value()) {
        EXPECT_DOUBLE_EQ(got[g]->no_doc, static_cast<double>(gens[g]));
      } else {
        misses.push_back({gens[g], MakeEstimate(static_cast<double>(gens[g]))});
      }
    }
    cache.Insert(key, misses, 0);
  });
  auto c = cache.counters();
  const std::size_t probes = kOps - (kOps + 96) / 97;
  EXPECT_EQ(c.hits + c.misses, probes * kGens);
  EXPECT_LE(c.entries, 5u * kGens);
}

}  // namespace
}  // namespace useful::service
