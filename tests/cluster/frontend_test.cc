#include "cluster/frontend.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/backend.h"
#include "cluster/topology.h"
#include "obs/trace.h"
#include "service/handler.h"

namespace useful::cluster {
namespace {

/// One replica's scripted behavior plus call counters. Shared between
/// the test body and the backend the factory handed the Frontend.
struct ReplicaScript {
  /// Send fails — the replica is unreachable.
  std::atomic<bool> fail_start{false};
  /// Send succeeds, Receive fails — the mid-request death.
  std::atomic<bool> fail_finish{false};
  std::atomic<int> starts{0};    // Send calls
  std::atomic<int> finishes{0};  // Receive calls
  std::atomic<int> opened{0};    // connections the factory opened
  /// How long Receive sleeps before answering: a slow replica.
  std::chrono::milliseconds receive_delay{0};
  /// Response for any request line; defaults to an empty-OK frame.
  std::function<service::Reply(const std::string&)> respond;
};

service::Reply OkReply(std::vector<std::string> payload) {
  service::Reply reply;
  reply.payload = std::move(payload);
  return reply;
}

service::Reply ErrReply(Status status) {
  service::Reply reply;
  reply.status = std::move(status);
  return reply;
}

class ScriptedBackend : public ShardBackend {
 public:
  explicit ScriptedBackend(ReplicaScript* script) : script_(script) {}

  Status Send(const std::string& line) override {
    script_->starts.fetch_add(1);
    if (script_->fail_start.load()) return Status::IOError("scripted: down");
    reply_ = script_->respond ? script_->respond(line) : OkReply({});
    return Status::OK();
  }

  Status Receive(service::Reply* reply) override {
    script_->finishes.fetch_add(1);
    std::this_thread::sleep_for(script_->receive_delay);
    if (script_->fail_finish.load()) {
      return Status::IOError("scripted: died mid-request");
    }
    *reply = std::move(reply_);
    return Status::OK();
  }

 private:
  ReplicaScript* script_;
  service::Reply reply_;
};

/// 2 shards x 2 replicas of scripted backends.
class FrontendTest : public ::testing::Test {
 protected:
  void MakeFrontend(FrontendOptions options = {}) {
    auto spec = ParseClusterSpec("a:1,a:2|b:1,b:2");
    ASSERT_TRUE(spec.ok());
    frontend_ = std::make_unique<Frontend>(
        std::move(spec).value(), options,
        [this](const Endpoint&, std::size_t shard, std::size_t replica) {
          scripts_[shard][replica].opened.fetch_add(1);
          return std::make_unique<ScriptedBackend>(&scripts_[shard][replica]);
        });
  }

  service::Reply Execute(const std::string& line) {
    obs::Trace trace;
    return frontend_->Execute(line, &trace);
  }

  /// Scripts every replica of `shard` to answer rankings from `lines`.
  void RespondWithRanking(std::size_t shard, std::vector<std::string> lines) {
    for (ReplicaScript& script : scripts_[shard]) {
      script.respond = [lines](const std::string&) {
        return OkReply(lines);
      };
    }
  }

  ReplicaScript scripts_[2][2];
  std::unique_ptr<Frontend> frontend_;
};

TEST_F(FrontendTest, MergesShardRankingsAndPrefersFirstReplica) {
  MakeFrontend();
  RespondWithRanking(0, {"borealis 5 0.5", "gamma 1 0.25"});
  RespondWithRanking(1, {"aurora 3 0.75"});

  service::Reply reply = Execute("ROUTE subrange 0.1 0 fox");
  ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
  EXPECT_FALSE(reply.degraded);
  EXPECT_EQ(reply.payload,
            (std::vector<std::string>{"borealis 5 0.5", "aurora 3 0.75",
                                      "gamma 1 0.25"}));
  // Preferred (first) replicas served; second replicas never touched.
  EXPECT_EQ(scripts_[0][0].starts.load(), 1);
  EXPECT_EQ(scripts_[0][1].starts.load(), 0);
  EXPECT_EQ(scripts_[1][1].starts.load(), 0);
  EXPECT_EQ(frontend_->stale_shards(), 0u);
}

TEST_F(FrontendTest, TopKCapsTheMergedRankingNotTheShards) {
  MakeFrontend();
  RespondWithRanking(0, {"borealis 5 0.5", "gamma 1 0.25"});
  RespondWithRanking(1, {"aurora 3 0.75"});

  service::Reply reply = Execute("ROUTE subrange 0.1 2 fox");
  ASSERT_TRUE(reply.status.ok());
  EXPECT_EQ(reply.payload, (std::vector<std::string>{"borealis 5 0.5",
                                                     "aurora 3 0.75"}));
}

TEST_F(FrontendTest, FailsOverToTheSecondReplicaOnStartFailure) {
  MakeFrontend();
  RespondWithRanking(0, {"borealis 5 0.5"});
  RespondWithRanking(1, {});
  scripts_[0][0].fail_start.store(true);

  service::Reply reply = Execute("ROUTE subrange 0.1 0 fox");
  ASSERT_TRUE(reply.status.ok());
  EXPECT_FALSE(reply.degraded);  // the shard answered, via replica 2
  EXPECT_EQ(reply.payload, (std::vector<std::string>{"borealis 5 0.5"}));
  EXPECT_EQ(scripts_[0][1].starts.load(), 1);
  EXPECT_EQ(frontend_->rerouted(), 1u);
  EXPECT_GE(frontend_->shard_errors(), 1u);
  EXPECT_EQ(frontend_->stale_shards(), 0u);
}

TEST_F(FrontendTest, FailsOverWhenAReplicaDiesMidRequest) {
  MakeFrontend();
  RespondWithRanking(0, {"borealis 5 0.5"});
  RespondWithRanking(1, {});
  scripts_[0][0].fail_finish.store(true);  // accepts the write, dies reading

  service::Reply reply = Execute("ROUTE subrange 0.1 0 fox");
  ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
  EXPECT_FALSE(reply.degraded);
  EXPECT_EQ(reply.payload, (std::vector<std::string>{"borealis 5 0.5"}));
  EXPECT_EQ(scripts_[0][1].starts.load(), 1);
  EXPECT_EQ(frontend_->rerouted(), 1u);
}

TEST_F(FrontendTest, ConcurrentRequestsReachOneReplicaAtOnce) {
  // Shard 0's replicas hold each request inside Send until a second one
  // has arrived (or 2 s pass), counting the requests inside at once. No
  // lock is held across a leg, so both requests reach replica (0,0)
  // together instead of queueing behind each other.
  MakeFrontend();
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  int inside = 0;
  int max_inside = 0;
  for (ReplicaScript& script : scripts_[0]) {
    script.respond = [&](const std::string&) {
      std::unique_lock<std::mutex> lock(mu);
      ++arrived;
      max_inside = std::max(max_inside, ++inside);
      cv.notify_all();
      cv.wait_for(lock, std::chrono::seconds(2), [&] { return arrived >= 2; });
      --inside;
      return OkReply({"borealis 5 0.5", "gamma 1 0.25"});
    };
  }
  RespondWithRanking(1, {"aurora 3 0.75"});

  service::Reply replies[2];
  std::thread clients[2];
  for (std::size_t i = 0; i < 2; ++i) {
    clients[i] = std::thread(
        [&, i] { replies[i] = Execute("ROUTE subrange 0.1 0 fox"); });
  }
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(max_inside, 2);
  for (const service::Reply& reply : replies) {
    ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
    EXPECT_FALSE(reply.degraded);
    EXPECT_EQ(reply.payload,
              (std::vector<std::string>{"borealis 5 0.5", "aurora 3 0.75",
                                        "gamma 1 0.25"}));
  }
  EXPECT_EQ(scripts_[0][0].starts.load(), 2);
  EXPECT_EQ(scripts_[0][1].starts.load(), 0);
  EXPECT_EQ(frontend_->rerouted(), 0u);
}

TEST_F(FrontendTest, ConnectionsAreReusedAndReplacedAfterAFailure) {
  MakeFrontend();
  RespondWithRanking(0, {"borealis 5 0.5"});
  RespondWithRanking(1, {});

  // Connections open on first use and are kept between requests.
  ASSERT_TRUE(Execute("ROUTE subrange 0.1 0 fox").status.ok());
  ASSERT_TRUE(Execute("ROUTE subrange 0.1 0 fox").status.ok());
  EXPECT_EQ(scripts_[0][0].opened.load(), 1);
  EXPECT_EQ(scripts_[0][1].opened.load(), 0);

  // A failed Receive destroys that connection, and the leg fails over to
  // replica (0,1) on a new connection.
  scripts_[0][0].fail_finish.store(true);
  service::Reply reply = Execute("ROUTE subrange 0.1 0 fox");
  ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
  EXPECT_EQ(reply.payload, (std::vector<std::string>{"borealis 5 0.5"}));
  EXPECT_EQ(scripts_[0][0].opened.load(), 1);
  EXPECT_EQ(scripts_[0][1].opened.load(), 1);
  EXPECT_EQ(frontend_->rerouted(), 1u);

  // One failure is below eject_failures, so the next request goes back to
  // replica (0,0), over a second connection.
  scripts_[0][0].fail_finish.store(false);
  ASSERT_TRUE(Execute("ROUTE subrange 0.1 0 fox").status.ok());
  EXPECT_EQ(scripts_[0][0].opened.load(), 2);
  EXPECT_EQ(scripts_[0][0].starts.load(), 4);
  EXPECT_EQ(scripts_[0][1].starts.load(), 1);
  EXPECT_EQ(scripts_[1][0].opened.load(), 1);
  EXPECT_EQ(frontend_->rerouted(), 1u);
}

TEST_F(FrontendTest, WholeShardDownDegradesTheReplyAndRecovers) {
  MakeFrontend();
  RespondWithRanking(0, {"borealis 5 0.5"});
  RespondWithRanking(1, {"aurora 3 0.75"});
  scripts_[0][0].fail_start.store(true);
  scripts_[0][1].fail_start.store(true);

  service::Reply reply = Execute("ROUTE subrange 0.1 0 fox");
  ASSERT_TRUE(reply.status.ok());
  EXPECT_TRUE(reply.degraded);
  EXPECT_EQ(reply.payload, (std::vector<std::string>{"aurora 3 0.75"}));
  EXPECT_EQ(frontend_->stale_shards(), 1u);
  EXPECT_EQ(frontend_->degraded_replies(), 1u);

  // The shard restarts; the next request reaches it and clears staleness.
  scripts_[0][0].fail_start.store(false);
  scripts_[0][1].fail_start.store(false);
  reply = Execute("ROUTE subrange 0.1 0 fox");
  ASSERT_TRUE(reply.status.ok());
  EXPECT_FALSE(reply.degraded);
  EXPECT_EQ(reply.payload, (std::vector<std::string>{"borealis 5 0.5",
                                                     "aurora 3 0.75"}));
  EXPECT_EQ(frontend_->stale_shards(), 0u);
}

TEST_F(FrontendTest, EveryShardDownIsUnavailableNotInternal) {
  MakeFrontend();
  for (auto& shard : scripts_) {
    for (ReplicaScript& script : shard) script.fail_start.store(true);
  }
  service::Reply reply = Execute("ROUTE subrange 0.1 0 fox");
  EXPECT_EQ(reply.status.code(), Status::Code::kUnavailable);
  EXPECT_EQ(frontend_->stale_shards(), 2u);
}

TEST_F(FrontendTest, EjectedReplicaIsSkippedUntilBackoffExpires) {
  FrontendOptions options;
  options.eject_failures = 1;
  options.probe_backoff_ms = 60'000;  // effectively forever for this test
  MakeFrontend(options);
  RespondWithRanking(0, {});
  RespondWithRanking(1, {});
  scripts_[0][0].fail_start.store(true);

  ASSERT_TRUE(Execute("ROUTE subrange 0.1 0 fox").status.ok());
  int starts_after_ejection = scripts_[0][0].starts.load();
  // Ejected: later requests go straight to replica 2 without probing.
  ASSERT_TRUE(Execute("ROUTE subrange 0.1 0 fox").status.ok());
  ASSERT_TRUE(Execute("ROUTE subrange 0.1 0 fox").status.ok());
  EXPECT_EQ(scripts_[0][0].starts.load(), starts_after_ejection);
  EXPECT_EQ(scripts_[0][1].starts.load(), 3);
}

TEST_F(FrontendTest, FullyEjectedShardIsStillProbedSoRestartsRecover) {
  FrontendOptions options;
  options.eject_failures = 1;
  options.probe_backoff_ms = 60'000;
  MakeFrontend(options);
  RespondWithRanking(0, {"borealis 5 0.5"});
  RespondWithRanking(1, {});
  scripts_[0][0].fail_start.store(true);
  scripts_[0][1].fail_start.store(true);

  EXPECT_TRUE(Execute("ROUTE subrange 0.1 0 fox").degraded);
  // Both replicas ejected with an hour of backoff — but a restarted shard
  // must recover on the NEXT request, not in an hour.
  scripts_[0][0].fail_start.store(false);
  service::Reply reply = Execute("ROUTE subrange 0.1 0 fox");
  ASSERT_TRUE(reply.status.ok());
  EXPECT_FALSE(reply.degraded);
  EXPECT_EQ(frontend_->stale_shards(), 0u);
}

TEST_F(FrontendTest, DownstreamProtocolErrorsPassThroughVerbatim) {
  MakeFrontend();
  for (auto& shard : scripts_) {
    for (ReplicaScript& script : shard) {
      script.respond = [](const std::string&) {
        return ErrReply(Status::NotFound("unknown estimator \"nope\""));
      };
    }
  }
  service::Reply reply = Execute("ROUTE nope 0.1 0 fox");
  EXPECT_EQ(reply.status.code(), Status::Code::kNotFound);
  EXPECT_EQ(reply.status.message(), "unknown estimator \"nope\"");
}

TEST_F(FrontendTest, GarbledShardPayloadDegradesInsteadOfCorrupting) {
  MakeFrontend();
  RespondWithRanking(0, {"torn line without scores"});
  RespondWithRanking(1, {"aurora 3 0.75"});

  service::Reply reply = Execute("ROUTE subrange 0.1 0 fox");
  ASSERT_TRUE(reply.status.ok());
  EXPECT_TRUE(reply.degraded);
  EXPECT_EQ(reply.payload, (std::vector<std::string>{"aurora 3 0.75"}));
  EXPECT_GE(frontend_->shard_errors(), 1u);
}

TEST_F(FrontendTest, StatsAggregatesSummableDownstreamCounters) {
  MakeFrontend();
  for (std::size_t s = 0; s < 2; ++s) {
    for (ReplicaScript& script : scripts_[s]) {
      script.respond = [](const std::string& line) {
        EXPECT_EQ(line, "STATS");
        return OkReply({"engines 3", "requests_total 10", "cache_hits 4",
                        "latency_p99_us 500"});
      };
    }
  }
  service::Reply reply = Execute("STATS");
  ASSERT_TRUE(reply.status.ok());
  auto has_line = [&](const std::string& want) {
    for (const std::string& line : reply.payload) {
      if (line == want) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_line("cluster_shards 2"));
  EXPECT_TRUE(has_line("cluster_replicas 4"));
  EXPECT_TRUE(has_line("stale_shards 0"));
  EXPECT_TRUE(has_line("shard0_live_replicas 2"));
  EXPECT_TRUE(has_line("shard1_live_replicas 2"));
  // One replica per shard answered: 3 + 3 engines, 10 + 10 requests.
  EXPECT_TRUE(has_line("agg_engines 6"));
  EXPECT_TRUE(has_line("agg_requests_total 20"));
  EXPECT_TRUE(has_line("agg_cache_hits 8"));
  // Latency percentiles are not summable and must not be aggregated.
  EXPECT_FALSE(has_line("agg_latency_p99_us 1000"));
  for (const std::string& line : reply.payload) {
    EXPECT_EQ(line.rfind("agg_latency", 0), std::string::npos) << line;
  }
}

TEST_F(FrontendTest, StatsAggregatesGaugesByMaxNotSum) {
  // Summing a gauge across shards invents numbers no server ever
  // reported: two shards each holding 10000 cache entries do not hold
  // 20000 together in any actionable sense, and snapshot_epoch 3 + 5
  // is meaningless. Gauges aggregate by max; counters keep summing.
  MakeFrontend();
  for (ReplicaScript& script : scripts_[0]) {
    script.respond = [](const std::string&) {
      return OkReply({"engines 3", "requests_total 10", "cache_entries 10000",
                      "cache_bytes 400", "snapshot_epoch 5",
                      "dispatch_queue_depth 2"});
    };
  }
  for (ReplicaScript& script : scripts_[1]) {
    script.respond = [](const std::string&) {
      return OkReply({"engines 3", "requests_total 7", "cache_entries 6000",
                      "cache_bytes 900", "snapshot_epoch 3",
                      "dispatch_queue_depth 8"});
    };
  }
  service::Reply reply = Execute("STATS");
  ASSERT_TRUE(reply.status.ok());
  auto has_line = [&](const std::string& want) {
    for (const std::string& line : reply.payload) {
      if (line == want) return true;
    }
    return false;
  };
  // Counters: summed. "engines" stays summed on purpose — shards hold
  // disjoint engine sets, so the sum is the true cluster total.
  EXPECT_TRUE(has_line("agg_engines 6"));
  EXPECT_TRUE(has_line("agg_requests_total 17"));
  // Gauges: max across shards, never the sum.
  EXPECT_TRUE(has_line("agg_cache_entries 10000"));
  EXPECT_TRUE(has_line("agg_cache_bytes 900"));
  EXPECT_TRUE(has_line("agg_snapshot_epoch 5"));
  EXPECT_TRUE(has_line("agg_dispatch_queue_depth 8"));
  EXPECT_FALSE(has_line("agg_cache_entries 16000"));
  EXPECT_FALSE(has_line("agg_snapshot_epoch 8"));
}

TEST_F(FrontendTest, StatsSumsPartitionedRepresentativeGauges) {
  // Shards partition the engines, so the representatives they hold add up
  // to the cluster's, as engines does; the cache gauges keep the max.
  MakeFrontend();
  for (ReplicaScript& script : scripts_[0]) {
    script.respond = [](const std::string&) {
      return OkReply({"representative_stale 2",
                      "representative_packed_engines 1",
                      "representative_packed_bytes 4096",
                      "representative_table_bytes 3699194",
                      "representative_packed_releases 5",
                      "cache_entries 10"});
    };
  }
  for (ReplicaScript& script : scripts_[1]) {
    script.respond = [](const std::string&) {
      return OkReply({"representative_stale 1",
                      "representative_packed_engines 2",
                      "representative_packed_bytes 1000",
                      "representative_table_bytes 3525361",
                      "representative_packed_releases 2",
                      "cache_entries 6"});
    };
  }
  service::Reply reply = Execute("STATS");
  ASSERT_TRUE(reply.status.ok());
  auto has_line = [&](const std::string& want) {
    for (const std::string& line : reply.payload) {
      if (line == want) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_line("agg_representative_table_bytes 7224555"));
  EXPECT_TRUE(has_line("agg_representative_packed_engines 3"));
  EXPECT_TRUE(has_line("agg_representative_packed_bytes 5096"));
  EXPECT_TRUE(has_line("agg_representative_stale 3"));
  EXPECT_TRUE(has_line("agg_representative_packed_releases 7"));
  EXPECT_TRUE(has_line("agg_cache_entries 10"));
}

std::vector<std::string> ReadGolden(const std::string& name) {
  std::ifstream in(std::string(USEFUL_GOLDEN_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << "missing golden file " << name;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// Compares a payload with tests/golden/<name> line by line. The shard
/// round-trip histogram times real calls, so its sample values are
/// masked as "*" on both sides; its series names and order still count.
void ExpectGolden(std::vector<std::string> actual, const std::string& name) {
  for (std::string& line : actual) {
    if (line.rfind("useful_shard_roundtrip_seconds_", 0) == 0) {
      line.replace(line.rfind(' ') + 1, std::string::npos, "*");
    }
  }
  std::vector<std::string> want = ReadGolden(name);
  std::size_t common = std::min(want.size(), actual.size());
  for (std::size_t i = 0; i < common; ++i) {
    ASSERT_EQ(want[i], actual[i]) << name << " line " << i + 1;
  }
  EXPECT_EQ(want.size(), actual.size()) << name;
}

/// A front-end whose shard 0 preferred replica is down (ejected on its
/// first failure, so shard 0 reports one live replica and one reroute)
/// and whose shards answer STATS with fixed counters, gauges, percentile
/// keys and malformed lines.
class FrontendGoldenTest : public FrontendTest {
 protected:
  void SetUp() override {
    FrontendOptions options;
    options.eject_failures = 1;
    options.probe_backoff_ms = 60'000;
    MakeFrontend(options);
    scripts_[0][0].fail_start.store(true);
    const std::vector<std::string> stats[2] = {
        {"requests_total 10", "errors_total 1", "engines 3",
         "snapshot_epoch 5", "cache_entries 100", "cache_hits 4",
         "cmd_route_count 6", "cmd_route_p99_us 900",
         "offload_wait_p50_us 20", "dispatch_queue_depth 2", "torn line",
         "conns_opened x1"},
        {"requests_total 7", "errors_total 0", "engines 2",
         "snapshot_epoch 3", "cache_entries 250", "cache_hits 1",
         "cmd_route_count 2", "cmd_route_p99_us 100",
         "dispatch_queue_depth 9", "accept_errors 1"}};
    for (std::size_t s = 0; s < 2; ++s) {
      for (ReplicaScript& script : scripts_[s]) {
        script.respond = [payload = stats[s]](const std::string& line) {
          EXPECT_EQ(line, "STATS");
          return OkReply(payload);
        };
      }
    }
  }
};

TEST_F(FrontendGoldenTest, StatsPayloadIsByteIdentical) {
  service::Reply reply = Execute("STATS");
  ASSERT_TRUE(reply.status.ok());
  EXPECT_FALSE(reply.degraded);
  ExpectGolden(reply.payload, "frontend_stats.txt");
}

TEST_F(FrontendGoldenTest, MetricsPayloadIsByteIdentical) {
  service::Reply reply = Execute("METRICS");
  ASSERT_TRUE(reply.status.ok());
  EXPECT_FALSE(reply.degraded);
  ExpectGolden(reply.payload, "frontend_metrics.txt");
}

TEST_F(FrontendTest, StatsAggregatesOnlyDeclaredKeys) {
  MakeFrontend();
  for (auto& shard : scripts_) {
    for (ReplicaScript& script : shard) {
      script.respond = [](const std::string&) {
        return OkReply({"requests_total 4", "bogus_total 5", "cluster_shards 2",
                        "cmd_route_count 3", "cmd_route_p50_us 40"});
      };
    }
  }
  service::Reply reply = Execute("STATS");
  ASSERT_TRUE(reply.status.ok());
  std::vector<std::string> agg;
  for (const std::string& line : reply.payload) {
    if (line.rfind("agg_", 0) == 0) agg.push_back(line);
  }
  EXPECT_EQ(agg, (std::vector<std::string>{"agg_cmd_route_count 6",
                                           "agg_requests_total 8"}));
}

TEST(FrontendMetricTableTest, KeysAndFamiliesAreUniqueAcrossTiers) {
  // The front-end's STATS/METRICS print its service::Stats rows and then
  // its own, so a name may not repeat across the two tables.
  std::set<std::string> keys;
  std::set<std::string> families;
  for (auto table : {service::Stats::MetricTable(), Frontend::MetricTable()}) {
    for (const service::MetricRow& row : table) {
      if (row.key != nullptr) {
        EXPECT_TRUE(keys.insert(row.key).second) << row.key;
      }
      if (row.family != nullptr) {
        EXPECT_TRUE(families.insert(row.family).second) << row.family;
      }
    }
  }
}

TEST_F(FrontendTest, AddFansToEveryReplicaAndSumsAdded) {
  MakeFrontend();
  for (auto& shard : scripts_) {
    for (ReplicaScript& script : shard) {
      script.respond = [](const std::string& line) {
        EXPECT_EQ(line, "ADD /packs/extra.urpz");  // forwarded verbatim
        return OkReply({"added 1", "engines 4"});
      };
    }
  }
  service::Reply reply = Execute("ADD /packs/extra.urpz");
  ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
  EXPECT_FALSE(reply.degraded);
  // One owner per shard under shard filtering; counts sum across shards.
  EXPECT_EQ(reply.payload,
            (std::vector<std::string>{"added 2", "engines 8"}));
  for (auto& shard : scripts_) {
    for (ReplicaScript& script : shard) {
      EXPECT_EQ(script.starts.load(), 1);  // every replica, not one per shard
    }
  }
}

TEST_F(FrontendTest, AddWithOneDeadReplicaIsDegradedOk) {
  MakeFrontend();
  for (auto& shard : scripts_) {
    for (ReplicaScript& script : shard) {
      script.respond = [](const std::string&) {
        return OkReply({"added 1", "engines 4"});
      };
    }
  }
  scripts_[1][1].fail_start.store(true);
  service::Reply reply = Execute("ADD /packs/extra.urpz");
  ASSERT_TRUE(reply.status.ok());
  // The dead replica missed the ADD: its snapshot is now behind its
  // peers', which the caller must hear about.
  EXPECT_TRUE(reply.degraded);
  EXPECT_EQ(reply.payload,
            (std::vector<std::string>{"added 2", "engines 8"}));
}

TEST_F(FrontendTest, AddFailsWhenAWholeShardMissesIt) {
  MakeFrontend();
  for (auto& shard : scripts_) {
    for (ReplicaScript& script : shard) {
      script.respond = [](const std::string&) {
        return OkReply({"added 1", "engines 4"});
      };
    }
  }
  scripts_[0][0].fail_start.store(true);
  scripts_[0][1].fail_start.store(true);
  service::Reply reply = Execute("ADD /packs/extra.urpz");
  EXPECT_EQ(reply.status.code(), Status::Code::kUnavailable);
}

TEST_F(FrontendTest, AddDuplicateEngineErrorPassesThrough) {
  MakeFrontend();
  for (auto& shard : scripts_) {
    for (ReplicaScript& script : shard) {
      script.respond = [](const std::string&) {
        return ErrReply(
            Status::InvalidArgument("duplicate engine name: sports"));
      };
    }
  }
  service::Reply reply = Execute("ADD /packs/extra.urpz");
  EXPECT_EQ(reply.status.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(reply.status.message(), "duplicate engine name: sports");
}

TEST_F(FrontendTest, DropToleratesNonOwnerShards) {
  // Under shard placement exactly one shard owns the engine; the others
  // answer NotFound. That is topology, not an error — the frontend
  // reports the owner's count and omits the engines total (a partial
  // sum over the shards that happened to own it would lie).
  MakeFrontend();
  for (ReplicaScript& script : scripts_[0]) {
    script.respond = [](const std::string& line) {
      EXPECT_EQ(line, "DROP aurora");
      return OkReply({"dropped 1", "engines 2"});
    };
  }
  for (ReplicaScript& script : scripts_[1]) {
    script.respond = [](const std::string&) {
      return ErrReply(Status::NotFound("unknown engine: aurora"));
    };
  }
  service::Reply reply = Execute("DROP aurora");
  ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
  EXPECT_FALSE(reply.degraded);  // a non-owner shard is healthy, not failed
  EXPECT_EQ(reply.payload, (std::vector<std::string>{"dropped 1"}));
  EXPECT_EQ(frontend_->stale_shards(), 0u);
}

TEST_F(FrontendTest, DropUnknownEverywhereIsNotFound) {
  MakeFrontend();
  for (auto& shard : scripts_) {
    for (ReplicaScript& script : shard) {
      script.respond = [](const std::string&) {
        return ErrReply(Status::NotFound("unknown engine: ghost"));
      };
    }
  }
  service::Reply reply = Execute("DROP ghost");
  EXPECT_EQ(reply.status.code(), Status::Code::kNotFound);
  EXPECT_EQ(reply.status.message(), "unknown engine: ghost");
}

TEST_F(FrontendTest, UpdateFansToEveryReplicaAndSumsUpdated) {
  MakeFrontend();
  for (ReplicaScript& script : scripts_[0]) {
    script.respond = [](const std::string& line) {
      EXPECT_EQ(line, "UPDATE /packs/extra.urpz");
      return OkReply({"updated 1", "engines 3"});
    };
  }
  for (ReplicaScript& script : scripts_[1]) {
    // UPDATE of engines this shard does not hold is a no-op, not an
    // error — the service answers "updated 0".
    script.respond = [](const std::string&) {
      return OkReply({"updated 0", "engines 3"});
    };
  }
  service::Reply reply = Execute("UPDATE /packs/extra.urpz");
  ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
  EXPECT_FALSE(reply.degraded);
  EXPECT_EQ(reply.payload,
            (std::vector<std::string>{"updated 1", "engines 6"}));
  for (auto& shard : scripts_) {
    for (ReplicaScript& script : shard) {
      EXPECT_EQ(script.starts.load(), 1);
    }
  }
}

TEST_F(FrontendTest, MetricsExposeClusterFamilies) {
  MakeFrontend();
  for (auto& shard : scripts_) {
    for (ReplicaScript& script : shard) {
      script.respond = [](const std::string&) {
        return OkReply({"engines 3", "requests_total 7", "errors_total 1"});
      };
    }
  }
  service::Reply reply = Execute("METRICS");
  ASSERT_TRUE(reply.status.ok());
  auto has_prefix = [&](const std::string& prefix) {
    for (const std::string& line : reply.payload) {
      if (line.rfind(prefix, 0) == 0) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_prefix("useful_cluster_shards 2"));
  EXPECT_TRUE(has_prefix("useful_cluster_stale_shards 0"));
  EXPECT_TRUE(has_prefix("useful_cluster_live_replicas{shard=\"0\"} 2"));
  EXPECT_TRUE(has_prefix("useful_cluster_degraded_replies_total 0"));
  EXPECT_TRUE(
      has_prefix("useful_cluster_downstream_requests_total{shard=\"1\"} 7"));
  EXPECT_TRUE(
      has_prefix("useful_cluster_downstream_errors_total{shard=\"0\"} 1"));
  EXPECT_TRUE(has_prefix("useful_shard_roundtrip_seconds_count"));
}

TEST_F(FrontendTest, EachShardsRoundtripTimesOnlyItsOwnLeg) {
  // Shard 1 answers 20 ms late. Each leg is timed from its own send until
  // its own reply is read, so shard 0, read first, does not absorb it.
  MakeFrontend();
  RespondWithRanking(0, {"borealis 5 0.5"});
  RespondWithRanking(1, {"aurora 3 0.75"});
  for (ReplicaScript& script : scripts_[1]) {
    script.receive_delay = std::chrono::milliseconds(20);
  }
  ASSERT_TRUE(Execute("ROUTE subrange 0.1 0 fox").status.ok());

  // METRICS fans STATS first, which adds a second leg per shard.
  service::Reply reply = Execute("METRICS");
  ASSERT_TRUE(reply.status.ok());
  auto value = [&](const std::string& series) {
    for (const std::string& line : reply.payload) {
      if (line.rfind(series + ' ', 0) == 0) {
        return std::stod(line.substr(series.size() + 1));
      }
    }
    ADD_FAILURE() << "no " << series;
    return -1.0;
  };
  EXPECT_EQ(value("useful_shard_roundtrip_seconds_count{shard=\"0\"}"), 2);
  EXPECT_EQ(value("useful_shard_roundtrip_seconds_count{shard=\"1\"}"), 2);
  EXPECT_LT(value("useful_shard_roundtrip_seconds_sum{shard=\"0\"}"), 0.005);
  EXPECT_GE(value("useful_shard_roundtrip_seconds_sum{shard=\"1\"}"), 0.04);
}

TEST_F(FrontendTest, ReloadFansToEveryReplicaOfEveryShard) {
  MakeFrontend();
  for (auto& shard : scripts_) {
    for (ReplicaScript& script : shard) {
      script.respond = [](const std::string& line) {
        EXPECT_EQ(line, "RELOAD");
        return OkReply({"engines 3"});
      };
    }
  }
  service::Reply reply = Execute("RELOAD");
  ASSERT_TRUE(reply.status.ok());
  EXPECT_FALSE(reply.degraded);
  EXPECT_EQ(reply.payload, (std::vector<std::string>{"engines 6"}));
  for (auto& shard : scripts_) {
    for (ReplicaScript& script : shard) {
      EXPECT_EQ(script.starts.load(), 1);  // ALL replicas, not one per shard
    }
  }
}

TEST_F(FrontendTest, ReloadWithOneDeadReplicaIsDegradedOk) {
  MakeFrontend();
  for (auto& shard : scripts_) {
    for (ReplicaScript& script : shard) {
      script.respond = [](const std::string&) {
        return OkReply({"engines 3"});
      };
    }
  }
  scripts_[0][1].fail_start.store(true);
  service::Reply reply = Execute("RELOAD");
  ASSERT_TRUE(reply.status.ok());
  EXPECT_TRUE(reply.degraded);  // a replica missed the reload
  EXPECT_EQ(reply.payload, (std::vector<std::string>{"engines 6"}));
}

TEST_F(FrontendTest, ReloadFailsWhenAWholeShardMissesIt) {
  MakeFrontend();
  for (auto& shard : scripts_) {
    for (ReplicaScript& script : shard) {
      script.respond = [](const std::string&) {
        return OkReply({"engines 3"});
      };
    }
  }
  scripts_[1][0].fail_start.store(true);
  scripts_[1][1].fail_start.store(true);
  service::Reply reply = Execute("RELOAD");
  EXPECT_EQ(reply.status.code(), Status::Code::kUnavailable);
}

TEST_F(FrontendTest, QuitShutsDownLocallyAndIsNeverForwarded) {
  MakeFrontend();
  service::Reply reply = Execute("QUIT");
  EXPECT_TRUE(reply.status.ok());
  EXPECT_TRUE(reply.close_connection);
  EXPECT_TRUE(reply.shutdown_server);
  for (auto& shard : scripts_) {
    for (ReplicaScript& script : shard) {
      EXPECT_EQ(script.starts.load(), 0);
    }
  }
}

TEST_F(FrontendTest, ParseErrorsAreLocalAndNeverFanOut) {
  MakeFrontend();
  service::Reply reply = Execute("NONSENSE");
  EXPECT_FALSE(reply.status.ok());
  EXPECT_NE(reply.status.code(), Status::Code::kInternal);
  for (auto& shard : scripts_) {
    for (ReplicaScript& script : shard) {
      EXPECT_EQ(script.starts.load(), 0);
    }
  }
}

}  // namespace
}  // namespace useful::cluster
