// Live counters and latency histograms for the broker service, rendered
// by the STATS and METRICS commands from one declarative metric table.
// Everything is atomic: recording is a relaxed fetch_add or store with no
// lookup and no lock, and rendering takes no lock a request could hold.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/slowlog.h"
#include "obs/trace.h"
#include "service/protocol.h"
#include "service/query_cache.h"
#include "util/histogram.h"

namespace useful::service {

/// A metric's Prometheus TYPE.
enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// How a cluster front-end folds one STATS key across the shards that
/// report it: counters sum; gauges every replica reports alike take the
/// max (a sum would inflate them by the replica count); latency
/// percentiles are not aggregated (a sum of p99s is meaningless).
enum class Aggregation : std::uint8_t { kNone, kSum, kMax };

/// One row of a tier's metric table: a value and the names it renders
/// under. STATS prints "<key> <value>"; METRICS prints the family under
/// its HELP and TYPE headers. Rows render in table order. A row without
/// a key is METRICS-only and one without a family is STATS-only: STATS
/// and METRICS are frozen line orders, and a quantity they list at
/// different places takes one row in each.
///
/// A labeled row has one series per label value: its key takes the value
/// at "%s" and its samples carry `<label>="<value>"`. In STATS a
/// histogram row prints <key>_p50_us, <key>_p99_us and <key>_max_us, led
/// by <key>_count when labeled; a counter or gauge row over a histogram
/// source shows the histogram's sample count.
struct MetricRow {
  const char* key;     // STATS key, or nullptr
  const char* family;  // Prometheus family, or nullptr
  MetricKind kind;
  Aggregation agg;  // of the key; a histogram's percentiles never aggregate
  int source;       // what the tier's reader returns for this row
  const char* help;  // METRICS HELP text (nullptr on STATS-only rows)
  const char* label = nullptr;  // label name of a labeled row
};

/// One series of a row, as a tier's reader returns it: a value, or a
/// histogram for histogram sources.
struct MetricSeries {
  std::string label;  // label value; empty for an unlabeled row
  std::uint64_t value = 0;
  const util::LatencyHistogram* histogram = nullptr;
};

/// Returns the series of a row's source (one for an unlabeled row).
using MetricReader = std::function<std::vector<MetricSeries>(int source)>;

/// "key value" lines of the rows that have a STATS key.
std::vector<std::string> RenderStatsRows(std::span<const MetricRow> rows,
                                         const MetricReader& read);

/// Prometheus text-exposition 0.0.4 lines of the rows that have a family;
/// histograms render as _bucket/_sum/_count series.
std::vector<std::string> RenderMetricsRows(std::span<const MetricRow> rows,
                                           const MetricReader& read);

/// Per-process serving statistics. Thread-safe.
class Stats {
 public:
  /// Values recorded through Add/Set and read through Get.
  enum Stat : std::uint8_t {
    kRequests,
    kErrors,
    kReloads,
    kEnginesAdded,  // counts are engines, not commands
    kEnginesDropped,
    kEnginesUpdated,
    kSnapshotEpoch,
    kRepresentativeStale,
    kPackedEngines,
    kPackedBytes,
    kTableBytes,
    kPackedReleases,
    kConnsOpened,
    kConnsShed,
    kIdleTimeouts,
    kRequestTimeouts,
    kWriteTimeouts,
    kAcceptErrors,
    kEpollWakeups,
    kDispatches,
    kDispatchedLines,
    kDispatchQueueDepth,
    kDeadlinePushes,
    kTracesSampled,
    kNumStats,
  };

  /// Bumps a counter.
  void Add(Stat stat, std::uint64_t n = 1) {
    values_[stat].fetch_add(n, std::memory_order_relaxed);
  }
  /// Sets a gauge.
  void Set(Stat stat, std::uint64_t value) {
    values_[stat].store(value, std::memory_order_relaxed);
  }
  std::uint64_t Get(Stat stat) const {
    return values_[stat].load(std::memory_order_relaxed);
  }

  /// Records one completed command with its wall latency.
  void RecordCommand(CommandKind kind, std::uint64_t micros, bool ok);

  /// Records a request line that did not parse into any command.
  void RecordParseError();

  /// Records a connection's close with its total lifetime.
  void RecordConnectionClosed(std::uint64_t lifetime_micros);

  /// Records how long a dispatched batch sat queued before an offload
  /// worker picked it up.
  void RecordOffloadWait(std::uint64_t micros);

  /// Folds one finished request trace into the registry: bumps the
  /// sampled-trace counter, adds every touched stage's microseconds to
  /// that stage's histogram, and offers the trace to the slow-query log.
  /// No-op for unsampled traces (the common case).
  void FinishTrace(const obs::Trace& trace);

  /// The sampling decision source for request traces; the service samples
  /// through it and tools configure its rate before serving.
  obs::TraceSampler* sampler() { return &sampler_; }
  const obs::TraceSampler& sampler() const { return sampler_; }
  /// The slow-query ring FinishTrace feeds and SLOWLOG dumps.
  obs::SlowQueryLog* slowlog() { return &slowlog_; }
  const obs::SlowQueryLog& slowlog() const { return slowlog_; }

  /// The STATS payload: the metric table's "key value" lines.
  std::vector<std::string> Render(const QueryCache::Counters& cache,
                                  std::size_t num_engines) const;

  /// The METRICS payload: the metric table's Prometheus families.
  std::vector<std::string> RenderMetrics(const QueryCache::Counters& cache,
                                         std::size_t num_engines) const;

  /// SLOWLOG payload: one "total_us=... query=..." line per retained
  /// trace, slowest first, capped at `max_entries` when nonzero.
  std::vector<std::string> RenderSlowlog(std::size_t max_entries) const;

  /// The service tier's metric table.
  static std::span<const MetricRow> MetricTable();

  /// The declared aggregation of a key Render prints; nullopt for a key
  /// the table does not declare.
  static std::optional<Aggregation> AggregationOf(std::string_view key);

  /// The STATS key of a recorded value.
  static const char* KeyOf(Stat stat);

 private:
  std::vector<MetricSeries> Read(int source,
                                 const QueryCache::Counters& cache,
                                 std::size_t num_engines) const;

  std::array<std::atomic<std::uint64_t>, kNumStats> values_{};
  std::array<util::LatencyHistogram, kNumCommands> latency_{};
  std::array<util::LatencyHistogram, obs::kNumStages> stage_latency_{};
  util::LatencyHistogram conn_lifetime_;
  util::LatencyHistogram offload_wait_;
  obs::TraceSampler sampler_;
  obs::SlowQueryLog slowlog_;
};

}  // namespace useful::service
