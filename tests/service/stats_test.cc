// Golden pin of the STATS and METRICS payloads rendered by service::Stats:
// a fixed, deterministic recording sequence must render byte-for-byte the
// text under tests/golden/. A changed key, family, help string, label,
// value or line order fails here. Also checks the shape of the metric
// table those payloads render from.
#include "service/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"
#include "service/query_cache.h"

namespace useful::service {
namespace {

std::vector<std::string> ReadGolden(const std::string& name) {
  std::ifstream in(std::string(USEFUL_GOLDEN_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << "missing golden file " << name;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

void ExpectGolden(const std::vector<std::string>& actual,
                  const std::string& name) {
  std::vector<std::string> want = ReadGolden(name);
  std::size_t common = std::min(want.size(), actual.size());
  for (std::size_t i = 0; i < common; ++i) {
    ASSERT_EQ(want[i], actual[i]) << name << " line " << i + 1;
  }
  EXPECT_EQ(want.size(), actual.size()) << name;
}

/// Commands with fixed latencies, a parse error, churn counts, the
/// connection lifecycle, the reactor counters, offload waits, the
/// snapshot gauges, and two sampled traces plus an unsampled one.
void RecordFixedSequence(Stats* stats) {
  stats->sampler()->set_rate(4);
  stats->slowlog()->Reset(2);
  stats->RecordCommand(CommandKind::kRoute, 120, true);
  stats->RecordCommand(CommandKind::kRoute, 4'000, true);
  stats->RecordCommand(CommandKind::kEstimate, 75, false);
  stats->RecordCommand(CommandKind::kStats, 30, true);
  stats->RecordCommand(CommandKind::kUpdate, 2'500'000, true);
  stats->RecordParseError();
  stats->Add(Stats::kReloads);
  stats->Add(Stats::kEnginesAdded, 3);
  stats->Add(Stats::kEnginesDropped, 1);
  stats->Add(Stats::kEnginesUpdated, 2);
  stats->Add(Stats::kConnsOpened, 3);
  stats->RecordConnectionClosed(1'500);
  stats->RecordConnectionClosed(70'000);
  stats->Add(Stats::kConnsShed);
  stats->Add(Stats::kIdleTimeouts, 2);
  stats->Add(Stats::kRequestTimeouts);
  stats->Add(Stats::kWriteTimeouts);
  stats->Add(Stats::kAcceptErrors);
  stats->Add(Stats::kEpollWakeups, 5);
  stats->Add(Stats::kDispatches, 2);
  stats->Add(Stats::kDispatchedLines, 5);
  stats->RecordOffloadWait(40);
  stats->RecordOffloadWait(900);
  stats->Set(Stats::kDispatchQueueDepth, 2);
  stats->Add(Stats::kDeadlinePushes, 4);
  stats->Set(Stats::kRepresentativeStale, 1);
  stats->Set(Stats::kPackedEngines, 2);
  stats->Set(Stats::kPackedBytes, 4'096);
  stats->Set(Stats::kTableBytes, 6'144);
  stats->Add(Stats::kPackedReleases, 3);
  stats->Set(Stats::kSnapshotEpoch, 7);

  obs::Trace routed(true);
  routed.SetQuery("alpha beta");
  routed.SetEstimator("subrange");
  routed.SetThreshold(0.1);
  routed.AddStageMicros(obs::Stage::kParse, 12);
  routed.AddStageMicros(obs::Stage::kEstimate, 300);
  routed.SetTotalMicros(350);
  stats->FinishTrace(routed);
  obs::Trace cached(true);
  cached.SetQuery("gamma");
  cached.SetEstimator("basic");
  cached.SetCacheHit(true);
  cached.AddStageMicros(obs::Stage::kCache, 8);
  cached.SetTotalMicros(20);
  stats->FinishTrace(cached);
  obs::Trace unsampled(false);
  unsampled.AddStageMicros(obs::Stage::kParse, 99);
  stats->FinishTrace(unsampled);
}

QueryCache::Counters FixedCache() {
  QueryCache::Counters cache;
  cache.hits = 5;
  cache.misses = 3;
  cache.evictions = 1;
  cache.expired = 2;
  cache.entries = 4;
  cache.bytes = 512;
  return cache;
}

TEST(StatsGoldenTest, StatsPayloadIsByteIdentical) {
  Stats stats;
  RecordFixedSequence(&stats);
  ExpectGolden(stats.Render(FixedCache(), 53), "service_stats.txt");
}

TEST(StatsGoldenTest, MetricsPayloadIsByteIdentical) {
  Stats stats;
  RecordFixedSequence(&stats);
  ExpectGolden(stats.RenderMetrics(FixedCache(), 53), "service_metrics.txt");
}

TEST(StatsGoldenTest, EmptyStatsPayloadIsByteIdentical) {
  Stats stats;
  ExpectGolden(stats.Render(QueryCache::Counters{}, 0),
               "service_stats_empty.txt");
}

TEST(MetricTableTest, RowsAreUniqueAndComplete) {
  std::set<std::string> keys;
  std::set<std::string> families;
  for (const MetricRow& row : Stats::MetricTable()) {
    ASSERT_TRUE(row.key != nullptr || row.family != nullptr);
    if (row.key != nullptr) {
      EXPECT_TRUE(keys.insert(row.key).second) << "duplicate key " << row.key;
      EXPECT_EQ(row.label != nullptr,
                std::string_view(row.key).find("%s") != std::string::npos)
          << row.key;
    }
    if (row.family != nullptr) {
      EXPECT_TRUE(families.insert(row.family).second)
          << "duplicate family " << row.family;
      EXPECT_EQ(0u, std::string_view(row.family).rfind("useful_", 0))
          << row.family;
      EXPECT_TRUE(row.help != nullptr && *row.help != '\0') << row.family;
    }
  }
}

TEST(MetricTableTest, KeyOfNamesTheRecordedValue) {
  EXPECT_STREQ("requests_total", Stats::KeyOf(Stats::kRequests));
  EXPECT_STREQ("conns_shed", Stats::KeyOf(Stats::kConnsShed));
  for (int stat = 0; stat < Stats::kNumStats; ++stat) {
    if (stat == Stats::kTracesSampled) continue;  // METRICS only
    EXPECT_NE(nullptr, Stats::KeyOf(static_cast<Stats::Stat>(stat))) << stat;
  }
}

}  // namespace
}  // namespace useful::service
