// LRU cache of per-engine usefulness estimates for the serving layer.
//
// One entry per canonical query key (estimator, threshold, normalized
// query terms; see MakeKey) holds one slot per engine: the engine's
// generation and its estimate, sorted by generation. The broker needs
// every engine's estimate for every query, so a request builds and
// hashes its key once and fills every hit with one Lookup, then stores
// its misses with one Insert. The key deliberately leaves out the
// selection policy: ROUTE requests that differ only in topk, and
// ESTIMATE requests for the same query, share one entry.
//
// A generation names one version of one engine: the service gives every
// engine a fresh generation when it is registered or updated, and never
// reuses one. That makes invalidation scoped and race-free: updating one
// engine changes only its generation, so its old slots stop matching
// while every other engine keeps hitting. Dead slots don't just age out
// of the LRU (they'd squat on the budget and evict live ones): mutators
// advance the accepted epoch, then call EraseGenerations for the touched
// engines' old generations, so an Insert that loses the race with an
// invalidation is refused outright (counted as `expired`).
//
// The budgets count slots and bytes over the whole cache, and eviction
// drops whole least-recently-used queries: one entry of a 53-engine
// registry is 53 slots.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "estimate/estimator.h"
#include "ir/query.h"

namespace useful::service {

struct QueryCacheOptions {
  /// Slot budget for the whole cache. A slot is one engine's estimate for
  /// one query, so a request over E engines uses up to E slots; a query
  /// with more slots than the budget is not cached.
  std::size_t max_entries = 4096;
  /// Byte budget for the whole cache (0: none), accounting keys, slots,
  /// and a fixed per-query overhead.
  std::size_t max_bytes = 8u << 20;
};

/// The cached value: one engine's usefulness estimate.
using CachedEstimate = estimate::UsefulnessEstimate;

/// Thread-safe LRU of per-query entries with slot and byte budgets plus
/// hit/miss/eviction/expiry counters. All methods may be called
/// concurrently.
class QueryCache {
 public:
  /// One engine's estimate for one query, under the engine's generation.
  struct Slot {
    std::uint64_t gen = 0;
    CachedEstimate value;
  };

  explicit QueryCache(QueryCacheOptions options = {});

  /// Canonical query key for (estimator, threshold, query): the query's
  /// (term, weight-bits, sign) triples sorted by term, so raw-text term
  /// order and spacing never split the cache. Threshold and weights are
  /// keyed by their exact bit patterns.
  static std::string MakeKey(std::string_view estimator, double threshold,
                             const ir::Query& query);

  /// Element i is the estimate cached under `key` for generation gens[i],
  /// or nullopt. Counts one hit or one miss per generation and refreshes
  /// the entry's LRU position.
  std::vector<std::optional<CachedEstimate>> Lookup(
      std::string_view key, std::span<const std::uint64_t> gens);

  /// Adds `slots` (one per generation) to the entry of `key`, replacing a
  /// slot of the same generation, provided `epoch` (the snapshot epoch the
  /// values were computed under) is still current: an Insert racing an
  /// invalidation that already advanced the epoch stores nothing and
  /// counts every refused slot as expired, so dead generations can't
  /// re-enter the cache behind a sweep. An entry over either budget on its
  /// own is not stored. Evicts least-recently-used entries while the cache
  /// is over a budget.
  void Insert(std::string_view key, std::span<const Slot> slots,
              std::uint64_t epoch);

  /// One-slot forms of Lookup and Insert: `key` names an entry of one
  /// slot, at generation 0.
  std::optional<CachedEstimate> Get(std::string_view key);
  void Put(std::string_view key, const CachedEstimate& value,
           std::uint64_t epoch);

  /// Raises the minimum epoch Insert accepts. Mutators call this (with the
  /// new snapshot's epoch) before sweeping, so in-flight requests still
  /// holding the old snapshot can't repopulate what the sweep removes.
  void SetMinEpoch(std::uint64_t epoch);

  /// Erases every slot of the generations `gens` (a dropped or updated
  /// engine's old ones), and every entry left empty, reclaiming their
  /// budget at once. Erased slots are counted as expired, not evicted.
  /// Returns the number of slots erased.
  std::size_t EraseGenerations(std::vector<std::uint64_t> gens);

  /// Drops every entry (reload invalidation). Counters keep their totals.
  void Clear();

  /// Every count is of slots: one per engine probed or stored.
  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /// Slots swept by EraseGenerations plus slots refused for a stale
    /// epoch.
    std::uint64_t expired = 0;
    std::size_t entries = 0;
    std::size_t bytes = 0;
  };
  Counters counters() const;

 private:
  struct Entry {
    std::string key;
    std::vector<Slot> slots;  // sorted by gen, one per gen
    std::size_t bytes = 0;
  };

  static std::size_t EntryBytes(std::string_view key, std::size_t slots);
  bool Fits(std::size_t slots, std::size_t bytes) const;

  const std::size_t max_slots_;
  const std::size_t max_bytes_;

  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recently used
  // Views into the list nodes' keys; list nodes never move.
  std::unordered_map<std::string_view, std::list<Entry>::iterator> index_;
  std::size_t slots_ = 0;
  std::size_t bytes_ = 0;
  std::uint64_t min_epoch_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t expired_ = 0;
};

}  // namespace useful::service
