#include "cluster/merge.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/frontend.h"
#include "cluster/topology.h"
#include "estimate/registry.h"
#include "ir/search_engine.h"
#include "obs/trace.h"
#include "represent/builder.h"
#include "represent/serialize.h"
#include "service/server.h"
#include "service/service.h"
#include "testing/fake_shard.h"
#include "testing/synthetic.h"
#include "text/analyzer.h"
#include "util/engine_hash.h"

namespace useful::cluster {
namespace {

TEST(ParseRankedLineTest, ParsesEngineAndVerbatimScoreTokens) {
  auto line = ParseRankedLine("sports 3 0.25");
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  EXPECT_EQ(line.value().engine, "sports");
  EXPECT_EQ(line.value().no_doc, 3.0);
  EXPECT_EQ(line.value().avg_sim, 0.25);
  EXPECT_EQ(line.value().no_doc_token, "3");
  EXPECT_EQ(line.value().avg_sim_token, "0.25");
}

TEST(ParseRankedLineTest, RejectsMalformedLines) {
  for (const char* bad :
       {"", "sports", "sports 3", "sports 3 0.25 extra", "sports x 0.25",
        "sports 3 y"}) {
    EXPECT_FALSE(ParseRankedLine(bad).ok()) << bad;
  }
}

TEST(FormatRankedLineTest, ReEmitsVerbatimTokens) {
  // The front-end must never reformat a score a shard produced: a token
  // that parses to the same double but is spelled differently ("0.250")
  // must survive the round trip byte-for-byte.
  auto line = ParseRankedLine("e 2.0 0.250");
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(FormatRankedLine(line.value()), "e 2.0 0.250");
}

TEST(SortRankingTest, UsesTheRankEnginesComparator) {
  std::vector<RankedLine> lines;
  Status st = ParseRankingPayload(
      {
          "delta 1 0.9",    // lowest no_doc -> last
          "bravo 2 0.5",    // ties alpha on both scores -> name breaks it
          "alpha 2 0.5",
          "charlie 2 0.7",  // same no_doc, higher avg_sim -> above the tie
          "echo 3 0.1",     // highest no_doc -> first
      },
      &lines);
  ASSERT_TRUE(st.ok()) << st.ToString();
  SortRanking(&lines);
  std::vector<std::string> order;
  for (const RankedLine& line : lines) order.push_back(line.engine);
  EXPECT_EQ(order, (std::vector<std::string>{"echo", "charlie", "alpha",
                                             "bravo", "delta"}));
}

TEST(ParseRankingPayloadTest, FailsOnAnyGarbledLine) {
  std::vector<RankedLine> lines;
  EXPECT_FALSE(
      ParseRankingPayload({"good 1 0.5", "torn payload"}, &lines).ok());
}

// ---------------------------------------------------------------------------
// The bit-identical merge property: a 2-shard front-end over in-process
// fake replicas must produce byte-for-byte the ranking of one Service
// holding every representative — for every registered estimator, across
// seeded corpora, thresholds, top-k caps, and duplicate-score ties.

class MergeFidelityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("useful_merge_fidelity_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::create_directories(dir_);

    // Four seed-varied engines plus a twin pair with identical documents
    // (identical scores) whose names hash to DIFFERENT shards, so the
    // duplicate-score tie-break crosses the merge boundary.
    BuildEngine("aurora", 11);
    BuildEngine("borealis", 12);
    BuildEngine("cascade", 13);
    BuildEngine("delta", 14);
    BuildEngine("twin-a", 99);
    BuildEngine("twin-b", 99);
    ASSERT_NE(util::ShardForEngine("twin-a", 2),
              util::ShardForEngine("twin-b", 2));

    std::map<std::size_t, std::vector<std::string>> shard_paths;
    std::vector<std::string> all_paths;
    for (const std::string& name : names_) {
      std::string path = (dir_ / (name + ".rep")).string();
      shard_paths[util::ShardForEngine(name, 2)].push_back(path);
      all_paths.push_back(path);
    }
    ASSERT_EQ(shard_paths.size(), 2u)
        << "engine name set must occupy both shards";

    oracle_ = CreateService(all_paths);
    shard_services_[0] = CreateService(shard_paths[0]);
    shard_services_[1] = CreateService(shard_paths[1]);

    auto spec = ParseClusterSpec("a:1|b:1");
    ASSERT_TRUE(spec.ok());
    frontend_ = std::make_unique<Frontend>(
        std::move(spec).value(), FrontendOptions{},
        [this](const Endpoint&, std::size_t shard, std::size_t) {
          return std::make_unique<testing::FakeShardBackend>(
              shard_services_[shard].get(), &killed_);
        });
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  void BuildEngine(const std::string& name, std::uint64_t seed) {
    testing::SyntheticCorpusOptions options = testing::VaryForSeed(seed);
    corpus::Collection collection =
        testing::MakeSyntheticCollection(options, name);
    ir::SearchEngine engine(name, &analyzer_);
    ASSERT_TRUE(engine.AddCollection(collection).ok());
    ASSERT_TRUE(engine.Finalize().ok());
    auto rep = represent::BuildRepresentative(engine);
    ASSERT_TRUE(rep.ok());
    ASSERT_TRUE(represent::SaveRepresentative(
                    rep.value(), (dir_ / (name + ".rep")).string())
                    .ok());
    names_.push_back(name);
  }

  std::unique_ptr<service::Service> CreateService(
      const std::vector<std::string>& paths) {
    service::ServiceOptions options;
    options.representative_paths = paths;
    auto service = service::Service::Create(&analyzer_, options);
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    return std::move(service).value();
  }

  service::Reply Fronted(const std::string& line) {
    obs::Trace trace;
    return frontend_->Execute(line, &trace);
  }

  text::Analyzer analyzer_;
  std::filesystem::path dir_;
  std::vector<std::string> names_;
  std::unique_ptr<service::Service> oracle_;
  std::unique_ptr<service::Service> shard_services_[2];
  std::unique_ptr<Frontend> frontend_;
  std::atomic<bool> killed_{false};  // replicas stay alive throughout
};

TEST_F(MergeFidelityTest, MergedRankingIsBitIdenticalForEveryEstimator) {
  std::vector<std::string> queries = {"zq0x", "zq1x zq2x",
                                      "zq0x zq3x zq5x zq9x"};
  for (const std::string& text : testing::MakeSyntheticQueryTexts(
           testing::VaryForSeed(11), {}, 7)) {
    queries.push_back(text);
  }

  std::size_t compared = 0;
  for (const std::string& estimator : estimate::KnownEstimators()) {
    for (const std::string& query : queries) {
      for (const char* threshold : {"0", "0.05", "0.2"}) {
        for (const char* command_prefix :
             {"ROUTE ", "ESTIMATE "}) {
          std::string suffix =
              std::string(command_prefix) == "ROUTE "
                  ? std::string(threshold) + " 0 " + query
                  : std::string(threshold) + " " + query;
          std::string line = command_prefix + estimator + " " + suffix;
          service::Reply fronted = Fronted(line);
          service::Reply direct = oracle_->Execute(line);
          ASSERT_EQ(fronted.status.ok(), direct.status.ok()) << line;
          EXPECT_FALSE(fronted.degraded) << line;
          ASSERT_EQ(fronted.payload.size(), direct.payload.size()) << line;
          for (std::size_t i = 0; i < direct.payload.size(); ++i) {
            EXPECT_EQ(fronted.payload[i], direct.payload[i])
                << line << " line " << i;
          }
          ++compared;
        }
      }
    }
  }
  // 5 estimators x (3 + generated) queries x 3 thresholds x 2 commands.
  EXPECT_GE(compared, 5u * 3u * 3u * 2u);
}

TEST_F(MergeFidelityTest, AnnotatedQueriesStayBitIdenticalThroughTheFrontend) {
  // The annotated grammar (weights, negation, min-should-match) travels
  // the wire verbatim: the front-end forwards the raw query text, every
  // shard parses it identically, and the merged ranking is byte-for-byte
  // the single-process oracle's — including the twins' cross-shard ties.
  const char* queries[] = {
      "zq0x^2.5 zq1x",
      "zq0x -zq1x",
      "zq0x zq2x zq3x MSM 2",
      "-zq4x zq0x^0.5 MSM 1",
      "zq0x^3 -zq1x^0.25 zq5x",
      "zq0x zq1x MSM 3",  // over-constrained: every engine scores 0
  };
  for (const std::string& estimator : estimate::KnownEstimators()) {
    for (const char* query : queries) {
      for (const char* command : {"ESTIMATE ", "ROUTE "}) {
        std::string line =
            std::string(command) == "ROUTE "
                ? std::string(command) + estimator + " 0.05 0 " + query
                : std::string(command) + estimator + " 0.05 " + query;
        service::Reply fronted = Fronted(line);
        service::Reply direct = oracle_->Execute(line);
        ASSERT_EQ(fronted.status.ok(), direct.status.ok()) << line;
        EXPECT_FALSE(fronted.degraded) << line;
        ASSERT_EQ(fronted.payload.size(), direct.payload.size()) << line;
        for (std::size_t i = 0; i < direct.payload.size(); ++i) {
          EXPECT_EQ(fronted.payload[i], direct.payload[i])
              << line << " line " << i;
        }
      }
    }
  }
  // Malformed grammar: both paths reject with the same (non-internal)
  // error, and nothing leaks a torn frame.
  for (const char* bad : {"ESTIMATE subrange 0 zq0x -",
                          "ESTIMATE subrange 0 zq0x^",
                          "ESTIMATE subrange 0 zq0x MSM 1025",
                          "ROUTE subrange 0 0 zq0x -zq0x"}) {
    service::Reply fronted = Fronted(bad);
    service::Reply direct = oracle_->Execute(bad);
    EXPECT_FALSE(fronted.status.ok()) << bad;
    EXPECT_FALSE(direct.status.ok()) << bad;
    EXPECT_EQ(fronted.status.code(), direct.status.code()) << bad;
  }
}

TEST_F(MergeFidelityTest, TopKCapIsAppliedAfterTheMergeNotPerShard) {
  for (const char* topk : {"1", "2", "3"}) {
    std::string line =
        std::string("ROUTE subrange 0 ") + topk + " zq0x zq1x";
    service::Reply fronted = Fronted(line);
    service::Reply direct = oracle_->Execute(line);
    ASSERT_TRUE(fronted.status.ok());
    ASSERT_EQ(fronted.payload.size(), direct.payload.size()) << line;
    for (std::size_t i = 0; i < direct.payload.size(); ++i) {
      EXPECT_EQ(fronted.payload[i], direct.payload[i]) << line;
    }
  }
}

TEST_F(MergeFidelityTest, DuplicateScoreTwinsTieBreakByNameAcrossShards) {
  // twin-a and twin-b hold identical documents on different shards, so
  // their scores are equal for every query that matches them; the merged
  // ranking must place twin-a immediately before twin-b (name ascending),
  // exactly as the single process does.
  service::Reply fronted = Fronted("ESTIMATE subrange 0 zq0x zq1x");
  ASSERT_TRUE(fronted.status.ok());
  std::ptrdiff_t pos_a = -1, pos_b = -1;
  std::vector<RankedLine> lines;
  ASSERT_TRUE(ParseRankingPayload(fronted.payload, &lines).ok());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].engine == "twin-a") pos_a = static_cast<std::ptrdiff_t>(i);
    if (lines[i].engine == "twin-b") pos_b = static_cast<std::ptrdiff_t>(i);
  }
  ASSERT_GE(pos_a, 0);
  ASSERT_GE(pos_b, 0);
  EXPECT_EQ(pos_b, pos_a + 1);
  EXPECT_EQ(lines[pos_a].no_doc_token, lines[pos_b].no_doc_token);
  EXPECT_EQ(lines[pos_a].avg_sim_token, lines[pos_b].avg_sim_token);
}

TEST_F(MergeFidelityTest, ConcurrentRequestsThroughFailoverMatchTheOracle) {
  // Two replicas per shard. Four threads fan requests out while a fifth
  // kills and revives replica (0,0): idle connection lists, lazy factory
  // calls and inline failover race each other. Replica (0,1) stays up,
  // so every reply is whole and byte-identical to the single process.
  std::atomic<bool> killed[2][2] = {};
  auto spec = ParseClusterSpec("a:1,a:2|b:1,b:2");
  ASSERT_TRUE(spec.ok());
  FrontendOptions options;
  options.probe_backoff_ms = 1;  // re-probe the killed replica eagerly
  Frontend frontend(
      std::move(spec).value(), options,
      [&](const Endpoint&, std::size_t shard, std::size_t replica) {
        return std::make_unique<testing::FakeShardBackend>(
            shard_services_[shard].get(), &killed[shard][replica]);
      });

  std::vector<std::string> lines;
  for (const std::string& text : testing::MakeSyntheticQueryTexts(
           testing::VaryForSeed(21), {}, 8)) {
    lines.push_back("ROUTE subrange 0.05 0 " + text);
    lines.push_back("ESTIMATE subrange 0 " + text);
  }
  std::vector<service::Reply> expected;
  for (const std::string& line : lines) {
    expected.push_back(oracle_->Execute(line));
  }

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kLinesPerClient = 200;
  std::atomic<bool> done{false};
  std::thread killer([&] {
    while (!done.load()) {
      killed[0][0].store(!killed[0][0].load());
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::vector<service::Reply> replies[kClients];
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = 0; i < kLinesPerClient; ++i) {
        obs::Trace trace;
        replies[c].push_back(
            frontend.Execute(lines[(c + i) % lines.size()], &trace));
      }
    });
  }
  for (std::thread& client : clients) client.join();
  done.store(true);
  killer.join();

  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t i = 0; i < kLinesPerClient; ++i) {
      const std::size_t k = (c + i) % lines.size();
      const service::Reply& reply = replies[c][i];
      ASSERT_TRUE(reply.status.ok()) << lines[k] << ": "
                                     << reply.status.ToString();
      EXPECT_FALSE(reply.degraded) << lines[k];
      EXPECT_EQ(reply.payload, expected[k].payload) << lines[k];
    }
  }
}

TEST_F(MergeFidelityTest, ShardIdleTimeoutCostsTheFrontendNoRequest) {
  // Real shard servers close a connection idle for 200 ms, writing a
  // parting ERR line first. The front-end's kept connections must be
  // reopened, not read that line as the next request's reply.
  service::ServerOptions server_options;
  server_options.threads = 1;
  server_options.reactor_threads = 1;
  server_options.idle_timeout_ms = 200;
  std::unique_ptr<service::Server> servers[2];
  std::string spec_text;
  for (std::size_t s = 0; s < 2; ++s) {
    servers[s] = std::make_unique<service::Server>(shard_services_[s].get(),
                                                   server_options);
    ASSERT_TRUE(servers[s]->Start().ok());
    spec_text += (s == 0 ? "127.0.0.1:" : "|127.0.0.1:") +
                 std::to_string(servers[s]->port());
  }
  auto spec = ParseClusterSpec(spec_text);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  Frontend frontend(std::move(spec).value(), FrontendOptions{});

  Status served[2];
  std::thread serving[2];
  for (std::size_t s = 0; s < 2; ++s) {
    serving[s] = std::thread([&, s] { served[s] = servers[s]->Serve(); });
  }
  const std::string line = "ROUTE subrange 0.05 0 zq0x zq1x";
  obs::Trace trace;
  service::Reply first = frontend.Execute(line, &trace);
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  service::Reply second = frontend.Execute(line, &trace);
  for (auto& server : servers) server->RequestStop();
  for (std::thread& thread : serving) thread.join();

  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_EQ(first.payload, oracle_->Execute(line).payload);
  ASSERT_TRUE(second.status.ok()) << second.status.ToString();
  EXPECT_FALSE(second.degraded);
  EXPECT_EQ(second.payload, first.payload);
  EXPECT_EQ(frontend.shard_errors(), 0u);
  EXPECT_EQ(frontend.rerouted(), 0u);
  for (const Status& status : served) EXPECT_TRUE(status.ok());
}

}  // namespace
}  // namespace useful::cluster
