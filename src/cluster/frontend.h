// The cluster's scatter-gather front-end tier.
//
// Frontend is a service::RequestHandler, so it plugs into the same epoll
// reactor + offload-pool server core as service::Service — the cluster
// is the SAME protocol stacked twice. Upstream it answers the ordinary
// line protocol; downstream it is a client of one replica per shard:
//
//   ROUTE/ESTIMATE  scatter to every shard concurrently (send to one
//                   replica per shard, then receive each reply — the
//                   fan-out costs the slowest shard, not the sum), merge
//                   the partial rankings with the exact RankEngines
//                   comparator (bit-identical to a single process
//                   holding every representative; the paper's per-engine
//                   independence is what makes this safe), apply the
//                   ROUTE top-k cap after the merge.
//   STATS           local stats + the cluster health rows + agg_<key>
//                   lines folding each downstream key by the aggregation
//                   the service metric table declares for it.
//   METRICS         local Prometheus families + the cluster health rows:
//                   gauges/counters, per-shard round-trip histograms, and
//                   per-shard downstream request/error totals sampled via
//                   STATS.
//   RELOAD          fan to EVERY replica (each holds its own snapshot);
//                   any shard with zero successes fails the reload.
//   ADD/UPDATE      fan to EVERY replica like RELOAD; shards apply their
//                   own ownership filter (ADD) or registered-engine
//                   filter (UPDATE), so the front-end just sums the
//                   per-shard "added"/"updated" counts. Partial replica
//                   failure degrades the reply; a whole shard missing the
//                   verb fails it (a failover there would time-travel).
//   DROP            fan to EVERY replica; NotFound from a shard means
//                   "not the owner" and is tolerated — only when no
//                   shard dropped anything does NotFound pass through.
//   SLOWLOG         local (the front-end's own slow fan-outs).
//   QUIT            shuts down the front-end only — never forwarded.
//
// Failover: each replica tracks consecutive transport failures; at
// eject_failures it is ejected and only re-probed after a doubling
// backoff. A request tries a shard's live replicas in preference order,
// then — only if none is live — its ejected ones (so a fully-restarted
// shard recovers on the next request, regardless of backoff). A failed
// send or receive moves the leg on to the next candidate at once, with
// no lock held; reads are idempotent, so a retried request can never
// double-count anything.
//
// Connections: each replica keeps a list of idle connections. A leg
// takes one (opening one through the BackendFactory when the list is
// empty), sends and receives on it with no lock held, and returns it
// after a successful receive; a connection that failed is destroyed.
// One request holds at most one connection per replica, so a replica
// never has more connections than the front-end has workers, and
// concurrent requests reach a replica at the same time.
//
// Degraded mode: when every replica of some shard fails, the reply is
// still served from the shards that answered, marked with the DEGRADED
// token on its OK header; the shard's sticky down flag feeds the
// stale_shards gauge until a later request reaches it again. Only when
// EVERY shard is unreachable does the front-end return ERR Unavailable.
// Downstream protocol errors ("ERR ..." from a shard) pass through
// verbatim — the front-end never converts them into its own errors.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/backend.h"
#include "cluster/shard_client.h"
#include "cluster/topology.h"
#include "obs/trace.h"
#include "service/handler.h"
#include "service/stats.h"
#include "util/histogram.h"
#include "util/status.h"

namespace useful::cluster {

struct FrontendOptions {
  /// Trace one request in this many (0 disables, 1 traces all).
  std::uint32_t trace_sample_rate = 256;
  /// Slots in the slow-query ring dumped by SLOWLOG.
  std::size_t slowlog_size = 64;
  /// Consecutive transport failures before a replica is ejected.
  int eject_failures = 2;
  /// First re-probe delay for an ejected replica; doubles per ejection
  /// up to 8 s.
  int probe_backoff_ms = 500;
  /// Options for the default TCP backends (ignored with a custom factory).
  TcpBackendOptions tcp;
};

/// Opens one connection to a replica; injectable so tests and the
/// fuzzer can wire in-process fakes with kill/revive switches. Called
/// from worker threads whenever a replica has no idle connection, so it
/// must be thread-safe.
using BackendFactory = std::function<std::unique_ptr<ShardBackend>(
    const Endpoint& endpoint, std::size_t shard, std::size_t replica)>;

class Frontend : public service::RequestHandler {
 public:
  /// A null `factory` wires TcpShardBackend over options.tcp.
  Frontend(ClusterSpec spec, FrontendOptions options,
           BackendFactory factory = nullptr);
  ~Frontend() override;

  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  service::Reply Execute(std::string_view line, obs::Trace* trace) override;
  service::Stats* mutable_stats() override { return &stats_; }

  std::size_t num_shards() const { return shards_.size(); }
  /// Shards whose last fan-out found no live replica (sticky until a
  /// request reaches the shard again).
  std::size_t stale_shards() const;
  std::uint64_t degraded_replies() const {
    return degraded_replies_.load(std::memory_order_relaxed);
  }
  std::uint64_t rerouted() const {
    return rerouted_.load(std::memory_order_relaxed);
  }
  std::uint64_t shard_errors() const {
    return shard_errors_.load(std::memory_order_relaxed);
  }

  /// The front-end's health metric table (its STATS/METRICS rows after
  /// the service::Stats ones).
  static std::span<const service::MetricRow> MetricTable();

 private:
  struct Replica {
    Endpoint endpoint;
    /// Connections not in use by any request; guarded by idle_mu, which
    /// is held only to take or return one.
    std::mutex idle_mu;
    std::vector<std::unique_ptr<ShardBackend>> idle;
    std::atomic<int> consecutive_failures{0};
    /// Steady-clock milliseconds before which an ejected replica is not
    /// probed (0: live).
    std::atomic<std::int64_t> retry_at_ms{0};
    std::atomic<int> backoff_ms{0};
  };
  struct Shard {
    std::vector<std::unique_ptr<Replica>> replicas;
    /// Sticky: the last request to fan out here found the whole shard
    /// unreachable. Feeds stale_shards.
    std::atomic<bool> down{false};
    /// Round trip of this shard's leg of each fan-out, from the send to
    /// the replica that answered until its reply was read.
    util::LatencyHistogram roundtrip;
  };

  /// One shard's leg of a request: the replicas to try, in order, and
  /// the connection in flight to the current one.
  struct Leg {
    std::size_t shard = 0;
    std::vector<std::size_t> candidates;  // replica indices, in order
    std::size_t tried = 0;                // candidates[0, tried) were used
    std::unique_ptr<ShardBackend> conn;   // sent to candidates[tried - 1]
    std::chrono::steady_clock::time_point sent;  // of the send on conn
    bool reached = false;  // some replica produced a framed response
    std::uint64_t roundtrip_us = 0;  // sent until the reply was read
    service::Reply reply;  // valid when reached
  };

  bool ReplicaLive(const Replica& r) const;
  void OnReplicaFailure(Replica* r);

  /// Sends the leg's line on the first candidate that accepts it; the
  /// leg's conn stays null when none does.
  void SendLeg(const std::string& line, Leg* leg);
  /// Receives the reply of the leg's in-flight send. A failed replica
  /// fails over to the remaining candidates inline.
  void ReceiveLeg(const std::string& line, Leg* leg);

  /// Sends `line` to one live replica of every shard concurrently and
  /// receives the framed responses, failing over within each shard.
  /// Returns one leg per shard.
  std::vector<Leg> FanOut(const std::string& line);

  service::Reply DoRank(const service::Request& request, obs::Trace* trace);
  service::Reply DoStats();
  service::Reply DoMetrics();
  /// Fans STATS to one replica per shard and folds the replies.
  struct StatsFan;
  StatsFan FanStats();
  /// Reads the cluster health rows, with downstream totals from `fan`.
  service::MetricReader ClusterReader(const StatsFan& fan) const;
  service::Reply DoSlowlog(const service::Request& request);

  /// Shared fan-to-every-replica engine for the snapshot-mutating verbs
  /// (RELOAD/ADD/DROP/UPDATE). Sums each shard's `count_key` payload
  /// value (skipped when null) and its "engines <n>" line. A shard where
  /// no replica applied the verb fails the whole command — unless
  /// `tolerate_not_found` and every reached replica said NotFound, which
  /// marks the shard a non-owner (DROP); then the "engines" line is
  /// omitted (non-owner shards don't report their count) and an
  /// all-shards-NotFound outcome passes the NotFound through.
  service::Reply DoAdminFan(const std::string& line, const char* count_key,
                            bool tolerate_not_found);

  ClusterSpec spec_;
  FrontendOptions options_;
  BackendFactory factory_;
  std::vector<std::unique_ptr<Shard>> shards_;
  service::Stats stats_;

  std::atomic<std::uint64_t> degraded_replies_{0};
  std::atomic<std::uint64_t> rerouted_{0};
  std::atomic<std::uint64_t> shard_errors_{0};
};

}  // namespace useful::cluster
