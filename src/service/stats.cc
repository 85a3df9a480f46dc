#include "service/stats.h"

#include <map>

#include "obs/prometheus.h"
#include "util/string_util.h"

namespace useful::service {

namespace {

using enum MetricKind;
using enum Aggregation;

/// Row sources read at render time, after the recorded Stat slots.
enum Source : int {
  kEngines = Stats::kNumStats,
  kCacheHits,
  kCacheMisses,
  kCacheEvictions,
  kCacheExpired,
  kCacheEntries,
  kCacheBytes,
  kSampleRate,
  kSlowlogInserted,
  kSlowlogDropped,
  kConnLifetime,
  kOffloadWait,
  kCommandLatency,  // labeled by command
  kStageLatency,    // labeled by stage
};

/// The service tier's metrics: the one place to add one.
constexpr MetricRow kRows[] = {
    {"requests_total", "useful_requests_total", kCounter, kSum,
     Stats::kRequests, "Request lines executed, including parse errors."},
    {"errors_total", "useful_errors_total", kCounter, kSum, Stats::kErrors,
     "Requests answered with an ERR header."},
    // Summed: shards partition the engines, so the sum is the cluster's.
    {"engines", nullptr, kGauge, kSum, kEngines, nullptr},
    {"reloads", "useful_reloads_total", kCounter, kSum, Stats::kReloads,
     "Successful representative reloads."},
    {"engines_added", "useful_engines_added_total", kCounter, kSum,
     Stats::kEnginesAdded, "Engines registered by the ADD verb."},
    {"engines_dropped", "useful_engines_dropped_total", kCounter, kSum,
     Stats::kEnginesDropped, "Engines removed by the DROP verb."},
    {"engines_updated", "useful_engines_updated_total", kCounter, kSum,
     Stats::kEnginesUpdated,
     "Engine representatives replaced by the UPDATE verb."},
    {"snapshot_epoch", "useful_snapshot_epoch", kGauge, kMax,
     Stats::kSnapshotEpoch,
     "Monotone serving-snapshot version (bumped by every successful "
     "RELOAD/ADD/DROP/UPDATE)."},
    {nullptr, "useful_engines", kGauge, kNone, kEngines,
     "Engines in the serving snapshot."},
    // Summed like engines: each counts or sizes the shard's own engines.
    {"representative_stale", "useful_representative_stale", kGauge, kSum,
     Stats::kRepresentativeStale,
     "Loaded representatives whose max weights are stale upper bounds "
     "(producer removed documents without a rebuild)."},
    {"representative_packed_engines", "useful_representative_packed_engines",
     kGauge, kSum, Stats::kPackedEngines,
     "Engines served zero-copy from mmap'd URPZ packed stores."},
    {"representative_packed_bytes", "useful_representative_packed_bytes",
     kGauge, kSum, Stats::kPackedBytes,
     "Total bytes of the packed-store engine blocks the snapshot serves."},
    {"representative_table_bytes", "useful_representative_table_bytes",
     kGauge, kSum, Stats::kTableBytes,
     "Total bytes of the URP1 term tables behind the snapshot: compact "
     "records, 4 per bucket bound and 8 per weight dictionary entry."},
    {"representative_packed_releases",
     "useful_representative_packed_releases_total", kCounter, kSum,
     Stats::kPackedReleases,
     "Packed-store engines whose pages were given back: no snapshot "
     "serves them any more, or an ADD or UPDATE skipped them."},
    {"cache_hits", "useful_cache_hits_total", kCounter, kSum, kCacheHits,
     "Query cache hits."},
    {"cache_misses", "useful_cache_misses_total", kCounter, kSum,
     kCacheMisses, "Query cache misses."},
    {"cache_evictions", "useful_cache_evictions_total", kCounter, kSum,
     kCacheEvictions, "Query cache LRU evictions."},
    {"cache_expired_generation", "useful_cache_expired_generation_total",
     kCounter, kSum, kCacheExpired,
     "Cache entries swept by a scoped invalidation plus Puts refused for "
     "carrying a retired snapshot epoch."},
    {"cache_entries", "useful_cache_entries", kGauge, kMax, kCacheEntries,
     "Query cache resident entries."},
    {"cache_bytes", "useful_cache_bytes", kGauge, kMax, kCacheBytes,
     "Query cache resident bytes."},
    {"conns_opened", "useful_connections_opened_total", kCounter, kSum,
     Stats::kConnsOpened, "Connections accepted and handed to a worker."},
    {"conns_closed", "useful_connections_closed_total", kCounter, kSum,
     kConnLifetime, "Connections closed."},
    {"conns_shed", "useful_connections_shed_total", kCounter, kSum,
     Stats::kConnsShed, "Connections shed at accept time under overload."},
    {"conns_idle_timeout", "useful_connections_idle_timeout_total", kCounter,
     kSum, Stats::kIdleTimeouts,
     "Connections dropped for idling past the deadline."},
    {"conns_request_timeout", "useful_connections_request_timeout_total",
     kCounter, kSum, Stats::kRequestTimeouts,
     "Connections dropped with a partial request pending too long."},
    {"conns_write_timeout", "useful_connections_write_timeout_total",
     kCounter, kSum, Stats::kWriteTimeouts,
     "Connections dropped because the peer stopped draining writes."},
    {"accept_errors", "useful_accept_errors_total", kCounter, kSum,
     Stats::kAcceptErrors, "accept() failures worth backing off for."},
    {"epoll_wakeups", "useful_epoll_wakeups_total", kCounter, kSum,
     Stats::kEpollWakeups, "epoll_wait returns across all reactor threads."},
    {"dispatches", "useful_dispatches_total", kCounter, kSum,
     Stats::kDispatches,
     "Request batches handed to the estimation offload pool."},
    {"dispatched_lines", "useful_dispatched_lines_total", kCounter, kSum,
     Stats::kDispatchedLines,
     "Request lines contained in dispatched batches."},
    {"dispatch_queue_depth", "useful_dispatch_queue_depth", kGauge, kMax,
     Stats::kDispatchQueueDepth,
     "Batches queued at the estimation offload pool, not yet picked up by "
     "a worker."},
    {"deadline_pushes", "useful_deadline_pushes_total", kCounter, kSum,
     Stats::kDeadlinePushes,
     "Entries pushed onto the reactors' connection deadline heaps."},
    {"offload_wait", nullptr, kHistogram, kNone, kOffloadWait, nullptr},
    {"conn_lifetime", nullptr, kHistogram, kNone, kConnLifetime, nullptr},
    {nullptr, "useful_trace_sample_rate", kGauge, kNone, kSampleRate,
     "Trace sampling denominator (0 disables tracing)."},
    {nullptr, "useful_traces_sampled_total", kCounter, kNone,
     Stats::kTracesSampled, "Requests that carried a sampled trace."},
    {nullptr, "useful_slowlog_inserted_total", kCounter, kNone,
     kSlowlogInserted, "Sampled traces retained by the slow-query log."},
    {nullptr, "useful_slowlog_dropped_total", kCounter, kNone,
     kSlowlogDropped,
     "Sampled traces dropped on slow-query slot contention."},
    {nullptr, "useful_command_requests_total", kCounter, kNone,
     kCommandLatency, "Completed commands by protocol verb.", "command"},
    {"cmd_%s", "useful_command_latency_seconds", kHistogram, kSum,
     kCommandLatency, "Service-side wall latency by protocol verb.",
     "command"},
    {nullptr, "useful_stage_latency_seconds", kHistogram, kNone,
     kStageLatency, "Sampled per-stage latency of the request pipeline.",
     "stage"},
    {nullptr, "useful_connection_lifetime_seconds", kHistogram, kNone,
     kConnLifetime, "Lifetime of closed connections."},
    {nullptr, "useful_offload_wait_seconds", kHistogram, kNone, kOffloadWait,
     "Queue wait of dispatched batches at the estimation offload pool."},
};

using StatsLineFn =
    std::function<void(std::string key, std::uint64_t value, Aggregation)>;

/// Walks the STATS lines of `rows` in order.
void ForEachStatsLine(std::span<const MetricRow> rows,
                      const MetricReader& read, const StatsLineFn& emit) {
  for (const MetricRow& row : rows) {
    if (row.key == nullptr) continue;
    for (const MetricSeries& series : read(row.source)) {
      std::string key = row.key;
      if (row.label != nullptr) key.replace(key.find("%s"), 2, series.label);
      const util::LatencyHistogram* h = series.histogram;
      if (row.kind != kHistogram) {
        emit(key, h != nullptr ? h->count() : series.value, row.agg);
        continue;
      }
      if (row.label != nullptr) emit(key + "_count", h->count(), row.agg);
      emit(key + "_p50_us",
           static_cast<std::uint64_t>(h->ValueAtPercentile(50.0)), kNone);
      emit(key + "_p99_us",
           static_cast<std::uint64_t>(h->ValueAtPercentile(99.0)), kNone);
      emit(key + "_max_us", h->max(), kNone);
    }
  }
}

}  // namespace

std::vector<std::string> RenderStatsRows(std::span<const MetricRow> rows,
                                         const MetricReader& read) {
  std::vector<std::string> lines;
  ForEachStatsLine(rows, read,
                   [&](std::string key, std::uint64_t value, Aggregation) {
                     lines.push_back(key + ' ' + std::to_string(value));
                   });
  return lines;
}

std::vector<std::string> RenderMetricsRows(std::span<const MetricRow> rows,
                                           const MetricReader& read) {
  static constexpr const char* kTypes[] = {"counter", "gauge", "histogram"};
  obs::MetricsBuilder b;
  for (const MetricRow& row : rows) {
    if (row.family == nullptr) continue;
    b.Family(row.family, row.help, kTypes[static_cast<int>(row.kind)]);
    for (const MetricSeries& series : read(row.source)) {
      std::string labels;
      if (row.label != nullptr) {
        labels = std::string(row.label) + "=\"" + series.label + '"';
      }
      const util::LatencyHistogram* h = series.histogram;
      if (row.kind == kHistogram) {
        b.HistogramSeries(row.family, labels, *h,
                          obs::DefaultLatencyBoundsMicros());
      } else {
        b.Sample(row.family, labels, h != nullptr ? h->count() : series.value);
      }
    }
  }
  return b.TakeLines();
}

void Stats::RecordCommand(CommandKind kind, std::uint64_t micros, bool ok) {
  Add(kRequests);
  if (!ok) Add(kErrors);
  latency_[static_cast<std::size_t>(kind)].Record(micros);
}

void Stats::RecordParseError() {
  Add(kRequests);
  Add(kErrors);
}

void Stats::RecordConnectionClosed(std::uint64_t lifetime_micros) {
  conn_lifetime_.Record(lifetime_micros);
}

void Stats::RecordOffloadWait(std::uint64_t micros) {
  offload_wait_.Record(micros);
}

void Stats::FinishTrace(const obs::Trace& trace) {
  if (!trace.sampled()) return;
  Add(kTracesSampled);
  for (std::size_t i = 0; i < obs::kNumStages; ++i) {
    obs::Stage stage = static_cast<obs::Stage>(i);
    if (trace.stage_touched(stage)) {
      stage_latency_[i].Record(trace.stage_micros(stage));
    }
  }
  slowlog_.Insert(trace);
}

std::vector<MetricSeries> Stats::Read(int source,
                                      const QueryCache::Counters& cache,
                                      std::size_t num_engines) const {
  auto one = [](std::uint64_t value) {
    return std::vector<MetricSeries>{{"", value}};
  };
  auto histogram = [](const util::LatencyHistogram& h) {
    return std::vector<MetricSeries>{{"", 0, &h}};
  };
  if (source < kNumStats) return one(Get(static_cast<Stat>(source)));
  switch (source) {
    case kEngines: return one(num_engines);
    case kCacheHits: return one(cache.hits);
    case kCacheMisses: return one(cache.misses);
    case kCacheEvictions: return one(cache.evictions);
    case kCacheExpired: return one(cache.expired);
    case kCacheEntries: return one(cache.entries);
    case kCacheBytes: return one(cache.bytes);
    case kSampleRate: return one(sampler_.rate());
    case kSlowlogInserted: return one(slowlog_.inserted());
    case kSlowlogDropped: return one(slowlog_.dropped());
    case kConnLifetime: return histogram(conn_lifetime_);
    case kOffloadWait: return histogram(offload_wait_);
  }
  std::vector<MetricSeries> series;
  if (source == kCommandLatency) {
    for (std::size_t i = 0; i < kNumCommands; ++i) {
      series.push_back(
          {CommandName(static_cast<CommandKind>(i)), 0, &latency_[i]});
    }
  } else {
    for (std::size_t i = 0; i < obs::kNumStages; ++i) {
      series.push_back(
          {obs::StageName(static_cast<obs::Stage>(i)), 0, &stage_latency_[i]});
    }
  }
  return series;
}

std::vector<std::string> Stats::Render(const QueryCache::Counters& cache,
                                       std::size_t num_engines) const {
  return RenderStatsRows(kRows, [&](int source) {
    return Read(source, cache, num_engines);
  });
}

std::vector<std::string> Stats::RenderMetrics(
    const QueryCache::Counters& cache, std::size_t num_engines) const {
  return RenderMetricsRows(kRows, [&](int source) {
    return Read(source, cache, num_engines);
  });
}

std::span<const MetricRow> Stats::MetricTable() { return kRows; }

std::optional<Aggregation> Stats::AggregationOf(std::string_view key) {
  // Every key Render can print; the keys do not depend on the values.
  static const std::map<std::string, Aggregation, std::less<>> declared = [] {
    std::map<std::string, Aggregation, std::less<>> keys;
    const Stats empty;
    ForEachStatsLine(
        kRows, [&](int source) { return empty.Read(source, {}, 0); },
        [&](std::string key, std::uint64_t, Aggregation agg) {
          keys.emplace(std::move(key), agg);
        });
    return keys;
  }();
  auto it = declared.find(key);
  if (it == declared.end()) return std::nullopt;
  return it->second;
}

const char* Stats::KeyOf(Stat stat) {
  for (const MetricRow& row : kRows) {
    if (row.source == stat && row.key != nullptr) return row.key;
  }
  return nullptr;
}

std::vector<std::string> Stats::RenderSlowlog(std::size_t max_entries) const {
  std::vector<std::string> lines;
  for (const obs::SlowQueryRecord& r : slowlog_.Snapshot(max_entries)) {
    std::string stages;
    for (std::size_t i = 0; i < obs::kNumStages; ++i) {
      obs::Stage stage = static_cast<obs::Stage>(i);
      if (r.stage_micros[i] == 0) continue;
      if (!stages.empty()) stages.push_back(',');
      stages += StringPrintf(
          "%s:%llu", obs::StageName(stage),
          static_cast<unsigned long long>(r.stage_micros[i]));
    }
    if (stages.empty()) stages.push_back('-');
    // query= is last: the (already normalized) text may contain spaces,
    // and every other field is a single token.
    lines.push_back(StringPrintf(
        "total_us=%llu seq=%llu cache_hit=%d engines=%lu estimator=%s "
        "threshold=%s stages=%s query=%s",
        static_cast<unsigned long long>(r.total_micros),
        static_cast<unsigned long long>(r.sequence), r.cache_hit ? 1 : 0,
        static_cast<unsigned long>(r.engines_selected), r.estimator.c_str(),
        FormatScore(r.threshold).c_str(), stages.c_str(), r.query.c_str()));
  }
  return lines;
}

}  // namespace useful::service
