// Line-by-line validation of the METRICS exposition and the SLOWLOG dump,
// exercised in-process through service::Service (the same code path the
// TCP server drives).
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ir/search_engine.h"
#include "represent/builder.h"
#include "represent/serialize.h"
#include "represent/updater.h"
#include "service/service.h"
#include "text/analyzer.h"

namespace useful::service {
namespace {

/// One parsed scrape: family -> declared type, series -> value, plus any
/// structural violations found while walking the lines in order.
struct Exposition {
  std::map<std::string, std::string> types;
  std::map<std::string, double> samples;
  std::vector<std::string> errors;
};

bool IsMetricNameChar(char c, bool first) {
  if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
      c == ':') {
    return true;
  }
  return !first && c >= '0' && c <= '9';
}

std::string FamilyOf(const std::string& series_name) {
  for (const char* suffix : {"_bucket", "_sum", "_count"}) {
    std::string s(suffix);
    if (series_name.size() > s.size() &&
        series_name.compare(series_name.size() - s.size(), s.size(), s) ==
            0) {
      return series_name.substr(0, series_name.size() - s.size());
    }
  }
  return series_name;
}

/// Walks the payload enforcing the text-exposition 0.0.4 grammar the
/// acceptance criteria name: HELP/TYPE headers, metric-name charset,
/// fully-numeric sample values, every sample under a declared family, and
/// cumulative-monotone _bucket series ending at _count.
Exposition ParseExposition(const std::vector<std::string>& lines) {
  Exposition out;
  std::map<std::string, bool> help_seen;
  std::string bucket_prefix;  // current run of one histogram's buckets
  double bucket_prev = 0.0;
  double bucket_inf = 0.0;
  for (const std::string& line : lines) {
    if (line.empty()) {
      out.errors.push_back("empty exposition line");
      continue;
    }
    if (line[0] == '#') {
      bool help = line.rfind("# HELP ", 0) == 0;
      bool type = line.rfind("# TYPE ", 0) == 0;
      if (!help && !type) {
        out.errors.push_back("bad comment line: " + line);
        continue;
      }
      std::string rest = line.substr(7);
      std::size_t sp = rest.find(' ');
      if (sp == std::string::npos || sp == 0 || sp + 1 >= rest.size()) {
        out.errors.push_back("truncated header: " + line);
        continue;
      }
      std::string name = rest.substr(0, sp);
      if (help) {
        help_seen[name] = true;
      } else {
        std::string t = rest.substr(sp + 1);
        if (t != "counter" && t != "gauge" && t != "histogram") {
          out.errors.push_back("unknown type: " + line);
        }
        if (!help_seen[name]) {
          out.errors.push_back("TYPE before HELP: " + line);
        }
        if (out.types.count(name) != 0) {
          out.errors.push_back("duplicate TYPE: " + line);
        }
        out.types[name] = t;
      }
      continue;
    }

    // Sample line: name[{labels}] value.
    std::size_t name_end = 0;
    while (name_end < line.size() &&
           IsMetricNameChar(line[name_end], name_end == 0)) {
      ++name_end;
    }
    if (name_end == 0) {
      out.errors.push_back("bad metric name: " + line);
      continue;
    }
    std::string name = line.substr(0, name_end);
    std::size_t value_start;
    std::string series = name;
    if (name_end < line.size() && line[name_end] == '{') {
      std::size_t close = line.find('}', name_end);
      if (close == std::string::npos || close + 2 > line.size() ||
          line[close + 1] != ' ') {
        out.errors.push_back("bad label block: " + line);
        continue;
      }
      series = line.substr(0, close + 1);
      value_start = close + 2;
    } else if (name_end < line.size() && line[name_end] == ' ') {
      value_start = name_end + 1;
    } else {
      out.errors.push_back("no value separator: " + line);
      continue;
    }
    std::string value_str = line.substr(value_start);
    const char* begin = value_str.c_str();
    char* end = nullptr;
    double value = std::strtod(begin, &end);
    if (value_str.empty() || end != begin + value_str.size()) {
      out.errors.push_back("non-numeric sample value: " + line);
      continue;
    }
    if (out.types.count(FamilyOf(name)) == 0) {
      out.errors.push_back("sample without TYPE header: " + line);
    }
    if (out.samples.count(series) != 0) {
      out.errors.push_back("duplicate series: " + series);
    }
    out.samples[series] = value;

    // Bucket cumulativity: within one series' run of _bucket lines
    // (shared prefix before le=), counts never decrease and the +Inf
    // bucket equals the _count that follows.
    bool is_bucket = name.size() > 7 &&
                     name.compare(name.size() - 7, 7, "_bucket") == 0;
    if (is_bucket) {
      std::size_t le = series.find("le=\"");
      std::string prefix =
          le == std::string::npos ? series : series.substr(0, le);
      if (prefix != bucket_prefix) {
        bucket_prefix = prefix;
        bucket_prev = 0.0;
      }
      if (value < bucket_prev) {
        out.errors.push_back("bucket counts not cumulative: " + line);
      }
      bucket_prev = value;
      if (series.find("le=\"+Inf\"") != std::string::npos) {
        bucket_inf = value;
      }
    } else {
      bucket_prefix.clear();
      bool is_count = name.size() > 6 &&
                      name.compare(name.size() - 6, 6, "_count") == 0;
      if (is_count && out.types[FamilyOf(name)] == "histogram" &&
          value != bucket_inf) {
        out.errors.push_back("histogram _count != +Inf bucket: " + line);
      }
    }
  }
  return out;
}

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("useful_metrics_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::create_directories(dir_);
    WriteRep("sports", {"football goal referee", "football stadium crowd"});
    WriteRep("science", {"quantum particle physics", "quantum entanglement"});
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string RepPath(const std::string& name) {
    return (dir_ / (name + ".rep")).string();
  }

  void WriteRep(const std::string& name, std::vector<std::string> docs) {
    ir::SearchEngine engine(name, &analyzer_);
    int i = 0;
    for (const std::string& text : docs) {
      ASSERT_TRUE(engine.Add({name + "/d" + std::to_string(i++), text}).ok());
    }
    ASSERT_TRUE(engine.Finalize().ok());
    auto rep = represent::BuildRepresentative(engine);
    ASSERT_TRUE(rep.ok());
    ASSERT_TRUE(
        represent::SaveRepresentative(rep.value(), RepPath(name)).ok());
  }

  std::unique_ptr<Service> MakeService(std::uint32_t sample_rate,
                                       std::size_t slowlog_size = 8) {
    ServiceOptions options;
    options.representative_paths = {RepPath("sports"), RepPath("science")};
    options.trace_sample_rate = sample_rate;
    options.slowlog_size = slowlog_size;
    auto service = Service::Create(&analyzer_, options);
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    return std::move(service).value();
  }

  std::vector<std::string> Scrape(Service& service) {
    auto reply = service.Execute("METRICS");
    EXPECT_TRUE(reply.status.ok()) << reply.status.ToString();
    return reply.payload;
  }

  text::Analyzer analyzer_;
  std::filesystem::path dir_;
};

TEST_F(MetricsTest, ExpositionIsWellFormed) {
  std::unique_ptr<Service> service = MakeService(1);
  service->Execute("ROUTE subrange 0.1 0 football");
  service->Execute("ESTIMATE subrange 0.1 quantum");
  service->Execute("BOGUS");  // parse error still scrapes cleanly
  Exposition scrape = ParseExposition(Scrape(*service));
  EXPECT_TRUE(scrape.errors.empty())
      << scrape.errors.size() << " violations, first: " << scrape.errors[0];
  EXPECT_FALSE(scrape.samples.empty());
}

TEST_F(MetricsTest, NoFramingBytesInPayload) {
  std::unique_ptr<Service> service = MakeService(1);
  service->Execute("ROUTE subrange 0.1 0 football");
  for (const std::string& line : Scrape(*service)) {
    EXPECT_EQ(std::string::npos,
              line.find_first_of(std::string_view("\n\r\0", 3)))
        << line;
  }
}

TEST_F(MetricsTest, CoreFamiliesAndStageSeriesPresent) {
  std::unique_ptr<Service> service = MakeService(1);
  auto reply = service->Execute("ROUTE subrange 0.1 0 football");
  ASSERT_TRUE(reply.status.ok());
  Exposition scrape = ParseExposition(Scrape(*service));

  EXPECT_EQ("counter", scrape.types["useful_requests_total"]);
  EXPECT_EQ("counter", scrape.types["useful_errors_total"]);
  EXPECT_EQ("counter", scrape.types["useful_cache_hits_total"]);
  EXPECT_EQ("counter", scrape.types["useful_cache_misses_total"]);
  EXPECT_EQ("gauge", scrape.types["useful_engines"]);
  EXPECT_EQ("gauge", scrape.types["useful_representative_stale"]);
  EXPECT_EQ("histogram", scrape.types["useful_command_latency_seconds"]);
  EXPECT_EQ("histogram", scrape.types["useful_stage_latency_seconds"]);

  EXPECT_EQ(2.0, scrape.samples["useful_engines"]);
  EXPECT_EQ(0.0, scrape.samples["useful_representative_stale"]);

  // The reactor core's families: wakeups/dispatch counters, the
  // offload-pool queue gauge, and its wait histogram.
  EXPECT_EQ("counter", scrape.types["useful_epoll_wakeups_total"]);
  EXPECT_EQ("counter", scrape.types["useful_dispatches_total"]);
  EXPECT_EQ("counter", scrape.types["useful_dispatched_lines_total"]);
  EXPECT_EQ("gauge", scrape.types["useful_dispatch_queue_depth"]);
  EXPECT_EQ("histogram", scrape.types["useful_offload_wait_seconds"]);
  ASSERT_TRUE(scrape.samples.count("useful_offload_wait_seconds_count"));

  // The acceptance-critical per-stage series: present for every stage the
  // pipeline defines, with the ROUTE above recorded in the service-side
  // ones (dispatch and write stay 0 in this socket-free test — they are
  // recorded by the transport — but the series exist).
  for (const char* stage : {"dispatch", "parse", "cache", "resolve",
                            "estimate", "rank", "policy", "serialize",
                            "write", "fanout"}) {
    std::string count_series = std::string("useful_stage_latency_seconds") +
                               "_count{stage=\"" + stage + "\"}";
    ASSERT_TRUE(scrape.samples.count(count_series)) << count_series;
  }
  for (const char* stage : {"parse", "cache", "resolve", "estimate", "rank",
                            "policy", "serialize"}) {
    std::string count_series = std::string("useful_stage_latency_seconds") +
                               "_count{stage=\"" + stage + "\"}";
    EXPECT_EQ(1.0, scrape.samples[count_series]) << count_series;
  }

  // Per-command series exist for every verb.
  for (const char* cmd : {"route", "estimate", "stats", "metrics", "slowlog",
                          "reload", "quit"}) {
    std::string series = std::string("useful_command_requests_total") +
                         "{command=\"" + cmd + "\"}";
    ASSERT_TRUE(scrape.samples.count(series)) << series;
  }
  EXPECT_EQ(1.0,
            scrape.samples["useful_command_requests_total"
                           "{command=\"route\"}"]);
}

TEST_F(MetricsTest, CountersMonotoneAcrossScrapes) {
  std::unique_ptr<Service> service = MakeService(1);
  service->Execute("ROUTE subrange 0.1 0 football");
  Exposition first = ParseExposition(Scrape(*service));
  ASSERT_TRUE(first.errors.empty());

  // More load between scrapes, including repeats (cache hits) and errors.
  for (int i = 0; i < 5; ++i) {
    service->Execute("ROUTE subrange 0.1 0 football");
    service->Execute("ESTIMATE subrange 0.1 quantum");
    service->Execute("nonsense");
  }
  Exposition second = ParseExposition(Scrape(*service));
  ASSERT_TRUE(second.errors.empty());

  std::size_t compared = 0;
  for (const auto& [series, value] : first.samples) {
    std::string family = FamilyOf(series.substr(0, series.find('{')));
    auto type = first.types.find(family);
    bool counter_like =
        (type != first.types.end() && type->second == "counter") ||
        (type != first.types.end() && type->second == "histogram");
    if (!counter_like) continue;
    ASSERT_TRUE(second.samples.count(series)) << series;
    EXPECT_GE(second.samples[series], value) << series;
    ++compared;
  }
  EXPECT_GT(compared, 50u);  // the comparison actually covered the registry
  EXPECT_EQ(first.samples["useful_requests_total"] + 16,
            second.samples["useful_requests_total"]);
  EXPECT_GT(second.samples["useful_cache_hits_total"],
            first.samples["useful_cache_hits_total"]);
}

// A front-end aggregates only the keys the metric table declares, so a
// key a real shard prints in STATS without a declaration would silently
// vanish from the cluster view. Pins that no such key exists today.
TEST_F(MetricsTest, EveryStatsKeyDeclaresAClusterAggregation) {
  std::unique_ptr<Service> service = MakeService(1);
  service->Execute("ROUTE subrange 0.1 0 football");
  auto reply = service->Execute("STATS");
  ASSERT_TRUE(reply.status.ok());
  ASSERT_FALSE(reply.payload.empty());
  for (const std::string& line : reply.payload) {
    std::string key = line.substr(0, line.find(' '));
    EXPECT_TRUE(Stats::AggregationOf(key).has_value()) << key;
  }
  EXPECT_EQ(Aggregation::kSum, Stats::AggregationOf("cmd_route_count"));
  EXPECT_EQ(Aggregation::kNone, Stats::AggregationOf("cmd_route_p50_us"));
  EXPECT_EQ(Aggregation::kNone, Stats::AggregationOf("cmd_quit_max_us"));
  EXPECT_EQ(Aggregation::kSum, Stats::AggregationOf("engines"));
  EXPECT_EQ(Aggregation::kMax, Stats::AggregationOf("snapshot_epoch"));
  EXPECT_EQ(std::nullopt, Stats::AggregationOf("agg_engines"));
}

TEST_F(MetricsTest, SampleRateZeroKeepsStageHistogramsEmpty) {
  std::unique_ptr<Service> service = MakeService(0);
  service->Execute("ROUTE subrange 0.1 0 football");
  Exposition scrape = ParseExposition(Scrape(*service));
  ASSERT_TRUE(scrape.errors.empty());
  EXPECT_EQ(0.0, scrape.samples["useful_traces_sampled_total"]);
  EXPECT_EQ(0.0, scrape.samples["useful_stage_latency_seconds_count"
                                "{stage=\"parse\"}"]);
  // The command histogram is unconditional (not trace-sampled).
  EXPECT_EQ(1.0, scrape.samples["useful_command_latency_seconds_count"
                                "{command=\"route\"}"]);
}

TEST_F(MetricsTest, StaleRepresentativeGaugeFollowsReload) {
  std::unique_ptr<Service> service = MakeService(1);
  Exposition before = ParseExposition(Scrape(*service));
  EXPECT_EQ(0.0, before.samples["useful_representative_stale"]);

  // Replace one file with a stale-max representative (snapshot taken
  // after a max-invalidating Remove) and RELOAD it in.
  represent::RepresentativeUpdater updater("sports", &analyzer_);
  corpus::Document a{"a", "football goal referee"};
  corpus::Document b{"b", "football stadium crowd"};
  updater.Add(a);
  updater.Add(b);
  ASSERT_TRUE(updater.Remove(b).ok());
  auto rep = updater.Snapshot();
  ASSERT_TRUE(rep.ok());
  ASSERT_TRUE(rep.value().stale_max());
  ASSERT_TRUE(
      represent::SaveRepresentative(rep.value(), RepPath("sports")).ok());

  ASSERT_TRUE(service->Execute("RELOAD").status.ok());
  Exposition after = ParseExposition(Scrape(*service));
  EXPECT_EQ(1.0, after.samples["useful_representative_stale"]);
}

TEST_F(MetricsTest, SlowlogRetainsSampledQueries) {
  std::unique_ptr<Service> service = MakeService(1, 4);
  service->Execute("ROUTE subrange 0.1 0 football stadium");
  service->Execute("ESTIMATE subrange 0.2 quantum");
  auto reply = service->Execute("SLOWLOG");
  ASSERT_TRUE(reply.status.ok());
  ASSERT_EQ(2u, reply.payload.size());
  std::uint64_t prev_total = ~0ull;
  bool saw_route_query = false;
  for (const std::string& line : reply.payload) {
    ASSERT_EQ(0u, line.rfind("total_us=", 0)) << line;
    std::uint64_t total =
        std::strtoull(line.c_str() + std::string("total_us=").size(),
                      nullptr, 10);
    EXPECT_LE(total, prev_total) << "not slowest-first: " << line;
    prev_total = total;
    EXPECT_NE(std::string::npos, line.find("estimator=subrange")) << line;
    EXPECT_NE(std::string::npos, line.find("stages=")) << line;
    if (line.find("query=football stadium") != std::string::npos) {
      saw_route_query = true;
      EXPECT_NE(std::string::npos, line.find("cache_hit=0")) << line;
    }
  }
  EXPECT_TRUE(saw_route_query);

  // SLOWLOG n caps the dump; SLOWLOG itself (no query) is never retained.
  auto capped = service->Execute("SLOWLOG 1");
  ASSERT_TRUE(capped.status.ok());
  EXPECT_EQ(1u, capped.payload.size());
}

TEST_F(MetricsTest, SlowlogEmptyWhenTracingDisabled) {
  std::unique_ptr<Service> service = MakeService(0);
  service->Execute("ROUTE subrange 0.1 0 football");
  auto reply = service->Execute("SLOWLOG");
  ASSERT_TRUE(reply.status.ok());
  EXPECT_TRUE(reply.payload.empty());
}

TEST_F(MetricsTest, SlowlogRecordsCacheHits) {
  std::unique_ptr<Service> service = MakeService(1, 8);
  service->Execute("ROUTE subrange 0.1 0 football");
  service->Execute("ROUTE subrange 0.1 0 football");  // cache hit
  auto reply = service->Execute("SLOWLOG");
  ASSERT_TRUE(reply.status.ok());
  ASSERT_EQ(2u, reply.payload.size());
  int hits = 0;
  for (const std::string& line : reply.payload) {
    if (line.find("cache_hit=1") != std::string::npos) ++hits;
  }
  EXPECT_EQ(1, hits);
}

// Regression (negative-zero cache split): ROUTE at threshold "-0.0" and
// "0.0" is one logical query — the second request must hit the cache
// entry the first created, not build a sibling entry from the sign bit.
TEST_F(MetricsTest, NegativeZeroThresholdSharesTheCacheEntry) {
  std::unique_ptr<Service> service = MakeService(0);
  auto plus = service->Execute("ROUTE subrange 0.0 0 football");
  ASSERT_TRUE(plus.status.ok());
  auto minus = service->Execute("ROUTE subrange -0.0 0 football");
  ASSERT_TRUE(minus.status.ok());
  EXPECT_EQ(plus.payload, minus.payload);
  // Per-engine entries: the fixture's two engines hit and miss together.
  EXPECT_EQ(2u, service->cache().counters().hits);
  EXPECT_EQ(2u, service->cache().counters().misses);
}

}  // namespace
}  // namespace useful::service
