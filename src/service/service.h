// The broker service's command engine, socket-free.
//
// Service owns the serving state — a broker::Metasearcher snapshot built
// from representative files, the query cache, the estimator registry
// instances, and the stats — and executes one protocol line at a time.
// The TCP layer (service::Server) only moves bytes; every behavior here
// is unit-testable in-process.
//
// Concurrency model: Execute may be called from any number of threads.
// The serving snapshot (broker + per-engine generations + epoch) is
// immutable and shared via one shared_ptr, so every mutation — RELOAD's
// whole-registry rebuild and the incremental churn verbs ADD/DROP/UPDATE
// — builds a complete replacement off to the side and swaps the pointer:
// in-flight requests keep ranking against the snapshot they grabbed, and
// the swap can never be observed half-done (the torn-snapshot invariant
// of DESIGN.md §14). Mutators serialize on churn_mu_ and do their file
// IO before ever touching the publish lock. The snapshot's ranking runs
// serially because the service parallelizes *across* requests, not
// within one; only Create and RELOAD start threads, to load their files.
//
// Cache invalidation is scoped: every engine carries a generation that
// only its own updates bump, and cache keys embed it, so UPDATE/DROP of
// one engine leaves every other engine's entries live (ADD invalidates
// nothing). See query_cache.h for the epoch machinery that keeps racing
// Puts from resurrecting swept entries.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "broker/metasearcher.h"
#include "estimate/estimator.h"
#include "obs/trace.h"
#include "service/handler.h"
#include "service/protocol.h"
#include "service/query_cache.h"
#include "service/stats.h"
#include "text/analyzer.h"
#include "util/status.h"

namespace useful::service {

struct ServiceOptions {
  /// Representative files to serve; RELOAD re-reads exactly these paths.
  std::vector<std::string> representative_paths;
  QueryCacheOptions cache;
  /// Trace one request in this many (0 disables tracing, 1 traces all).
  std::uint32_t trace_sample_rate = 256;
  /// Slots in the slow-query ring dumped by SLOWLOG.
  std::size_t slowlog_size = 64;
  /// Shard-ownership filter for the ADD verb: with num_shards > 0, ADD
  /// only registers engines whose util::ShardForEngine(name, num_shards)
  /// == shard_index, so a cluster-wide ADD fan-out lands each engine on
  /// exactly one shard. 0 (standalone) accepts everything. Startup,
  /// RELOAD, and UPDATE are never filtered — their paths are explicit
  /// operator-chosen manifests.
  std::size_t num_shards = 0;
  std::size_t shard_index = 0;
};

class Service : public RequestHandler {
 public:
  /// Loads every representative and builds the first snapshot. Fails
  /// without constructing a half-loaded service.
  static Result<std::unique_ptr<Service>> Create(
      const text::Analyzer* analyzer, ServiceOptions options);

  /// Executes one protocol line. Thread-safe. Makes its own sampling
  /// decision and folds the finished trace into stats().
  Reply Execute(std::string_view line);

  /// Executes one protocol line recording spans into `trace` (never
  /// null). The caller owns the trace's lifecycle: it can append
  /// transport stages (the socket write) afterwards and must hand the
  /// finished trace to stats()->FinishTrace. Thread-safe.
  Reply Execute(std::string_view line, obs::Trace* trace) override;

  /// Re-reads the representative files, swaps the snapshot with fresh
  /// generations for every engine, and drops the whole cache. On failure
  /// the old snapshot keeps serving. Thread-safe (mutators serialize).
  Status Reload();

  /// ADD: registers the engines of `path` (URP1 or URPZ) into a clone of
  /// the current snapshot. Under shard ownership (num_shards > 0) only
  /// owned engines are taken; a duplicate engine name fails the whole
  /// verb. `added_out`, when non-null, receives the number registered
  /// (0 is legal: everything was filtered out). No cache invalidation —
  /// existing engines' generations are untouched.
  Status AddEngines(const std::string& path, std::size_t* added_out);

  /// DROP: removes one engine by name (NotFound when absent), bumps the
  /// epoch, and sweeps exactly that engine's cache entries.
  Status DropEngine(const std::string& engine);

  /// UPDATE: replaces the representatives of `path`'s engines that are
  /// already registered here (engines in the file but not registered are
  /// ignored — UPDATE never changes the engine set). Touched engines get
  /// fresh generations and their cache entries swept; untouched engines
  /// keep serving from cache. `updated_out`, when non-null, receives the
  /// number replaced.
  Status UpdateEngines(const std::string& path, std::size_t* updated_out);

  /// Current snapshot (for tests and tools).
  std::shared_ptr<const broker::Metasearcher> snapshot() const;

  /// Monotone snapshot version: bumped by every successful RELOAD/ADD/
  /// DROP/UPDATE. For tests and the snapshot_epoch gauge.
  std::uint64_t snapshot_epoch() const;

  std::size_t num_engines() const { return snapshot()->num_engines(); }
  const Stats& stats() const { return stats_; }
  /// Mutable stats handle for the transport layer (Stats is internally
  /// thread-safe): the TCP server records connection lifecycle events —
  /// timeouts, sheds, accept errors — into the same registry STATS renders.
  Stats* mutable_stats() override { return &stats_; }
  const QueryCache& cache() const { return cache_; }

 private:
  Service(const text::Analyzer* analyzer, ServiceOptions options);

  /// One immutable serving state: the broker, each engine's cache-key
  /// generation (indexed like the broker's engines), and the epoch the
  /// snapshot was published under.
  struct Snapshot {
    std::shared_ptr<const broker::Metasearcher> broker;
    std::vector<std::uint64_t> gens;
    std::uint64_t epoch = 0;
  };

  /// Loads options_.representative_paths into a fresh Metasearcher: the
  /// files on one thread per CPU the process may run on (none for one
  /// path), their engines registered serially in path order.
  Result<std::shared_ptr<const broker::Metasearcher>> LoadSnapshot() const;

  std::shared_ptr<const Snapshot> GetSnapshot() const;

  /// Publishes `broker` as the new snapshot under snapshot_mu_, deriving
  /// the gens vector from engine_gens_. Caller holds churn_mu_ and has
  /// already assigned generations for every engine in `broker`.
  void PublishLocked(std::shared_ptr<const broker::Metasearcher> broker);

  /// True when this service owns `engine` under the configured shard
  /// split (always true standalone).
  bool OwnsEngine(std::string_view engine) const;

  /// Estimator instance for `name`, shared across requests (estimators are
  /// immutable once built). NotFound errors list the known names.
  Result<const estimate::UsefulnessEstimator*> GetEstimator(
      const std::string& name);

  Reply DoRank(const Request& request, bool apply_policy, obs::Trace* trace);
  Reply DoStats();
  Reply DoMetrics();
  Reply DoSlowlog(const Request& request);
  Reply DoReload();
  Reply DoAdd(const Request& request);
  Reply DoDrop(const Request& request);
  Reply DoUpdate(const Request& request);

  const text::Analyzer* analyzer_;
  ServiceOptions options_;

  /// Serializes mutators (RELOAD/ADD/DROP/UPDATE): file IO and clone
  /// building happen under churn_mu_ alone; snapshot_mu_ is only taken
  /// for the pointer swap, so readers never wait on disk.
  std::mutex churn_mu_;
  /// Per-engine cache-key generations and their allocator. Guarded by
  /// churn_mu_ (readers see generations only through the snapshot).
  std::unordered_map<std::string, std::uint64_t> engine_gens_;
  std::uint64_t next_gen_ = 0;
  std::uint64_t epoch_ = 0;

  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const Snapshot> snapshot_;
  /// Store engines released by every broker this service built; STATS and
  /// METRICS copy it into representative_packed_releases.
  const std::shared_ptr<broker::ReleaseCounter> packed_releases_ =
      std::make_shared<broker::ReleaseCounter>(0);

  std::mutex estimators_mu_;
  std::unordered_map<std::string,
                     std::unique_ptr<estimate::UsefulnessEstimator>>
      estimators_;

  QueryCache cache_;
  Stats stats_;
};

}  // namespace useful::service
