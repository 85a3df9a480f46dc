// The metasearch engine of the paper's introduction: keeps one
// representative per local search engine, estimates per-query usefulness,
// forwards the query to the engines predicted useful, and merges their
// results under the global similarity function.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "estimate/estimator.h"
#include "ir/query.h"
#include "ir/search_engine.h"
#include "obs/trace.h"
#include "represent/representative.h"
#include "represent/store.h"
#include "represent/term_table.h"
#include "text/analyzer.h"
#include "util/status.h"

namespace useful::broker {

/// One engine's predicted usefulness for a query.
struct EngineSelection {
  std::string engine;
  estimate::UsefulnessEstimate estimate;
};

/// One merged result document.
struct MetasearchResult {
  std::string engine;
  std::string doc_id;
  double score = 0.0;
};

/// The broker's canonical ranking order: descending estimated NoDoc,
/// ties broken by descending AvgSim, then ascending name. Shared between
/// RankEngines and callers that re-sort per-engine estimates assembled
/// from a cache, so cached and freshly computed rankings interleave
/// identically.
bool RankedBefore(const EngineSelection& a, const EngineSelection& b);

/// Counts the packed-store engines whose pages a broker released (see
/// RegisterStore). Held by shared pointer, so a snapshot that outlives
/// the broker's owner can still count into it.
using ReleaseCounter = std::atomic<std::uint64_t>;

/// The broker. Engines are registered with (optionally) a live
/// ir::SearchEngine for dispatch; selection needs only representatives.
/// Each engine is held as an immutable represent::TermTable or a packed
/// store view, and scored by resolving the query against it and calling
/// the estimator's EstimateBatch, as for any representative.
class Metasearcher {
 public:
  /// `analyzer` parses user queries; it must match the engines' analyzers
  /// and outlive the broker. `releases`, shared with every clone, counts
  /// the store engines released (a fresh counter when null).
  explicit Metasearcher(const text::Analyzer* analyzer,
                        std::shared_ptr<ReleaseCounter> releases = nullptr);

  /// Registers a live engine: its representative is built and frozen into
  /// a TermTable on the spot, and queries can be dispatched to it. The
  /// engine must be finalized and outlive the broker. Duplicate names are
  /// rejected.
  Status RegisterEngine(
      const ir::SearchEngine* engine,
      represent::RepresentativeKind kind =
          represent::RepresentativeKind::kQuadruplet);

  /// Registers a representative without a live engine (selection-only
  /// mode, e.g. when the engine is remote), frozen into a TermTable.
  /// Duplicate names are rejected.
  Status RegisterRepresentative(const represent::Representative& rep);

  /// Registers an already-frozen table, selection-only. Snapshots and
  /// clones share it by pointer. Duplicate names are rejected; a stale-max
  /// table is counted and logged as a warning.
  Status RegisterTable(std::shared_ptr<const represent::TermTable> table);

  /// Registers every engine of a packed URPZ store as a selection-only
  /// entry served zero-copy from the store's mapping (no Representative
  /// is materialized). Each such entry holds a handle on its engine that
  /// the broker's clones share and that keeps `store` mapped: once no
  /// snapshot, current or in flight, serves the engine (after RELOAD, or
  /// an UPDATE or DROP of it), the handle releases the engine's pages
  /// (StoreView::ReleaseEngine) and counts it, and the mapping goes with
  /// the store's last handle. Duplicate names are rejected.
  Status RegisterStore(std::shared_ptr<const represent::StoreView> store);

  /// Predicate over engine names; see the filtering RegisterStore
  /// overload. Null means "accept everything".
  using EngineFilter = std::function<bool(std::string_view)>;

  /// Like RegisterStore, but only registers the store's engines whose
  /// name passes `filter` (the ADD verb under shard ownership, UPDATE's
  /// replaced engines). Engines filtered out are skipped silently and
  /// released (and counted) at once, since nothing will serve them; the
  /// store is kept only when at least one engine was registered.
  /// Registering zero engines is OK (returns OK, broker unchanged).
  Status RegisterStore(std::shared_ptr<const represent::StoreView> store,
                       const EngineFilter& filter);

  /// Removes the named engine from the registry (NotFound when absent).
  /// Stale/store-engine counters follow the entry out, and so does its
  /// handle on a packed store engine: store_bytes() stops counting its
  /// block, and the engine's pages are released when no other snapshot
  /// serves it either.
  Status RemoveEngine(std::string_view engine_name);

  /// Copy for copy-on-write churn (ADD/DROP/UPDATE build a mutated clone
  /// aside, then swap it in). Term tables and packed-store engine handles
  /// are immutable and shared (refcounted), so a clone costs O(engines),
  /// not O(terms).
  std::unique_ptr<Metasearcher> Clone() const;

  std::size_t num_engines() const { return entries_.size(); }

  /// Name of engine `i` (0..num_engines()-1), in registration order.
  std::string_view engine_name(std::size_t i) const {
    return entries_[i].name();
  }

  /// Estimated usefulness of engine `i` alone — the per-engine unit of
  /// RankEngines, exposed so the serving layer can compute exactly the
  /// engines its cache missed. Bit-identical to the corresponding entry
  /// of RankEngines(q, threshold, estimator).
  estimate::UsefulnessEstimate EstimateEngine(
      std::size_t i, const ir::Query& q, double threshold,
      const estimate::UsefulnessEstimator& estimator) const;

  /// Engines served from packed stores (subset of num_engines()).
  std::size_t num_store_engines() const { return num_store_engines_; }

  /// Total bytes of the packed-store engine blocks this broker's entries
  /// serve (RepresentativeView::block_bytes). A store's header and index,
  /// and the blocks of its engines no entry serves, are not counted.
  std::size_t store_bytes() const;

  /// Total bytes of the term tables of this broker's entries
  /// (TermTable::bytes); store-backed engines hold none.
  std::size_t table_bytes() const;

  /// Number of registered representatives whose stale_max flag is set
  /// (their stored max weights are upper bounds, not exact).
  std::size_t num_stale_representatives() const {
    return num_stale_representatives_;
  }

  /// Estimated usefulness of every registered engine for `q` at
  /// `threshold`, ranked by descending estimated NoDoc (ties: AvgSim, then
  /// name). Engines are estimated one after another on the calling
  /// thread. When `trace` is a sampled trace, the per-engine estimation
  /// loop and the final sort are recorded as separate estimate/rank spans.
  std::vector<EngineSelection> RankEngines(
      const ir::Query& q, double threshold,
      const estimate::UsefulnessEstimator& estimator,
      obs::Trace* trace = nullptr) const;

  /// The engines the paper would invoke: those whose rounded estimated
  /// NoDoc is at least 1, in rank order.
  std::vector<EngineSelection> SelectEngines(
      const ir::Query& q, double threshold,
      const estimate::UsefulnessEstimator& estimator) const;

  /// End-to-end metasearch: parse, select (capped at `max_engines`),
  /// dispatch to the selected live engines, merge results by descending
  /// global similarity. Representative-only engines are skipped at
  /// dispatch. Fails when the parsed query is empty.
  Result<std::vector<MetasearchResult>> Search(
      std::string_view raw_query, double threshold,
      const estimate::UsefulnessEstimator& estimator,
      std::size_t max_engines = static_cast<std::size_t>(-1)) const;

  /// The term table of `engine_name` (for inspection; clones share it, so
  /// the pointer identifies the table). Fails with FailedPrecondition for
  /// store-backed engines, which have no table.
  Result<const represent::TermTable*> FindRepresentative(
      std::string_view engine_name) const;

 private:
  /// Engine `index` of a packed store, held by every clone's entry that
  /// serves it. Keeps the store mapped; the last holder to let go
  /// releases the engine's pages and counts the release.
  class StoreEngine {
   public:
    StoreEngine(std::shared_ptr<const represent::StoreView> store,
                std::size_t index, std::shared_ptr<ReleaseCounter> releases)
        : store_(std::move(store)),
          index_(index),
          releases_(std::move(releases)) {}
    ~StoreEngine() { Release(*store_, index_, releases_.get()); }
    StoreEngine(const StoreEngine&) = delete;
    StoreEngine& operator=(const StoreEngine&) = delete;

    const represent::RepresentativeView& view() const {
      return store_->engine(index_);
    }

    /// Releases engine `index` of `store` and counts it.
    static void Release(const represent::StoreView& store, std::size_t index,
                        ReleaseCounter* releases) {
      store.ReleaseEngine(index);
      releases->fetch_add(1, std::memory_order_relaxed);
    }

   private:
    std::shared_ptr<const represent::StoreView> store_;
    std::size_t index_;
    std::shared_ptr<ReleaseCounter> releases_;
  };

  /// One engine: exactly one of `table` and `engine` is set.
  struct Entry {
    std::shared_ptr<const represent::TermTable> table;
    // Set for store-backed engines: a zero-copy accessor into its store's
    // mapping.
    std::shared_ptr<const StoreEngine> engine;
    const ir::SearchEngine* live = nullptr;  // null: selection-only

    std::string_view name() const {
      return table != nullptr ? std::string_view(table->engine_name())
                              : engine->view().engine_name();
    }
    bool stale_max() const {
      return table != nullptr ? table->stale_max()
                              : engine->view().stale_max();
    }
  };

  /// Index of `name` in entries_, or entries_.size() when unknown.
  std::size_t IndexOf(std::string_view name) const;

  /// Appends `entry` (its name already checked unique), counting and
  /// logging a stale-max representative.
  void Append(Entry entry);

  const text::Analyzer* analyzer_;
  std::shared_ptr<ReleaseCounter> releases_;
  std::vector<Entry> entries_;
  std::size_t num_stale_representatives_ = 0;
  std::size_t num_store_engines_ = 0;
  // name -> index into entries_; makes duplicate checks, FindRepresentative
  // and per-selection dispatch O(1) instead of a linear (or quadratic, in
  // Search's case) scan over engines.
  std::unordered_map<std::string, std::size_t, represent::Representative::Hash,
                     represent::Representative::Eq>
      index_by_name_;
};

}  // namespace useful::broker
