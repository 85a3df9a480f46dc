// In-process (socket-free) coverage of the broker service: every protocol
// command is exercised through service::Service directly, which is the
// same code path the TCP server drives.
#include "service/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "broker/selection_policy.h"
#include "estimate/registry.h"
#include "ir/search_engine.h"
#include "represent/builder.h"
#include "represent/serialize.h"
#include "represent/store.h"
#include "util/engine_hash.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace useful::service {
namespace {

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Suite and test name both: ServiceTest and ManyPathServiceTest share
    // test names, and ctest runs them at once.
    const ::testing::TestInfo* test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           ("useful_service_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + test->test_suite_name() + "_" + test->name());
    std::filesystem::create_directories(dir_);
    WriteRep("sports", {"football goal referee", "football stadium crowd",
                        "goal keeper shared"});
    WriteRep("science", {"quantum particle physics",
                         "particle collider shared", "quantum entanglement"});
    WriteRep("cooking", {"recipe flour oven", "oven temperature shared",
                         "recipe butter sugar"});
    auto service = Service::Create(&analyzer_, MakeOptions());
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    service_ = std::move(service).value();
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  ServiceOptions MakeOptions() {
    ServiceOptions options;
    for (const char* name : {"sports", "science", "cooking"}) {
      options.representative_paths.push_back(RepPath(name));
    }
    return options;
  }

  std::string RepPath(const std::string& name) {
    return (dir_ / (name + ".rep")).string();
  }

  void WriteRep(const std::string& name, std::vector<std::string> docs,
                bool stale_max = false) {
    ir::SearchEngine engine(name, &analyzer_);
    int i = 0;
    for (const std::string& text : docs) {
      ASSERT_TRUE(engine.Add({name + "/d" + std::to_string(i++), text}).ok());
    }
    ASSERT_TRUE(engine.Finalize().ok());
    auto rep = represent::BuildRepresentative(engine);
    ASSERT_TRUE(rep.ok());
    rep.value().set_stale_max(stale_max);
    ASSERT_TRUE(
        represent::SaveRepresentative(rep.value(), RepPath(name)).ok());
  }

  text::Analyzer analyzer_;
  std::filesystem::path dir_;
  std::unique_ptr<Service> service_;
};

TEST_F(ServiceTest, LoadsAllEngines) {
  EXPECT_EQ(service_->num_engines(), 3u);
}

TEST_F(ServiceTest, CreateFailsOnMissingFile) {
  ServiceOptions options;
  options.representative_paths.push_back((dir_ / "nope.rep").string());
  auto service = Service::Create(&analyzer_, options);
  ASSERT_FALSE(service.ok());
  EXPECT_EQ(service.status().code(), Status::Code::kIOError);
}

TEST_F(ServiceTest, CreateRequiresPaths) {
  EXPECT_FALSE(Service::Create(&analyzer_, ServiceOptions{}).ok());
  EXPECT_FALSE(Service::Create(nullptr, MakeOptions()).ok());
}

// Acceptance: the service's ROUTE answers equal the one-shot CLI path —
// the same RankEngines output under the paper's selection rule.
TEST_F(ServiceTest, RouteMatchesDirectBrokerSelection) {
  auto reply = service_->Execute("ROUTE subrange 0.1 0 football");
  ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();

  auto estimator = estimate::MakeEstimator("subrange");
  ASSERT_TRUE(estimator.ok());
  ir::Query q = ir::ParseQuery(analyzer_, "football");
  auto expected = broker::ThresholdPolicy().Apply(
      service_->snapshot()->RankEngines(q, 0.1, *estimator.value()));

  ASSERT_EQ(reply.payload.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(reply.payload[i],
              StringPrintf("%s %.17g %.17g", expected[i].engine.c_str(),
                           expected[i].estimate.no_doc,
                           expected[i].estimate.avg_sim));
  }
  ASSERT_FALSE(reply.payload.empty());
  EXPECT_EQ(reply.payload[0].substr(0, 6), "sports");
}

TEST_F(ServiceTest, EstimateReturnsEveryEngine) {
  auto reply = service_->Execute("ESTIMATE subrange 0.1 shared");
  ASSERT_TRUE(reply.status.ok());
  EXPECT_EQ(reply.payload.size(), 3u);  // no policy filtering
}

TEST_F(ServiceTest, TopkCapsTheSelection) {
  auto uncapped = service_->Execute("ROUTE subrange 0.01 0 shared");
  ASSERT_TRUE(uncapped.status.ok());
  ASSERT_GE(uncapped.payload.size(), 2u);
  auto capped = service_->Execute("ROUTE subrange 0.01 1 shared");
  ASSERT_TRUE(capped.status.ok());
  EXPECT_EQ(capped.payload.size(), 1u);
  EXPECT_EQ(capped.payload[0], uncapped.payload[0]);
}

TEST_F(ServiceTest, RepeatedQueryHitsCacheAndPolicyDoesNotSplitIt) {
  // The cacheable unit is one (engine, query) estimate, so every count
  // below moves in steps of the fixture's 3 engines.
  auto first = service_->Execute("ROUTE subrange 0.1 0 football");
  ASSERT_TRUE(first.status.ok());
  EXPECT_EQ(service_->cache().counters().hits, 0u);
  EXPECT_EQ(service_->cache().counters().misses, 3u);

  auto second = service_->Execute("ROUTE subrange 0.1 0 football");
  ASSERT_TRUE(second.status.ok());
  EXPECT_EQ(service_->cache().counters().hits, 3u);
  EXPECT_EQ(second.payload, first.payload);

  // Same key despite different topk / command: policy applies post-cache.
  ASSERT_TRUE(service_->Execute("ROUTE subrange 0.1 2 football").status.ok());
  ASSERT_TRUE(service_->Execute("ESTIMATE subrange 0.1 football").status.ok());
  EXPECT_EQ(service_->cache().counters().hits, 9u);
  EXPECT_EQ(service_->cache().counters().misses, 3u);

  // Different threshold is a different key.
  ASSERT_TRUE(service_->Execute("ROUTE subrange 0.2 0 football").status.ok());
  EXPECT_EQ(service_->cache().counters().misses, 6u);
}

TEST_F(ServiceTest, CachedAnswersAreByteIdenticalToUncached) {
  auto uncached = service_->Execute("ESTIMATE adaptive 0.15 shared recipe");
  auto cached = service_->Execute("ESTIMATE adaptive 0.15 shared recipe");
  ASSERT_TRUE(uncached.status.ok());
  ASSERT_TRUE(cached.status.ok());
  EXPECT_EQ(uncached.payload, cached.payload);
  EXPECT_EQ(service_->cache().counters().hits, 3u);  // one per engine
}

TEST_F(ServiceTest, UnknownEstimatorListsRegisteredNames) {
  auto reply = service_->Execute("ROUTE bogus 0.1 0 football");
  ASSERT_FALSE(reply.status.ok());
  EXPECT_EQ(reply.status.code(), Status::Code::kNotFound);
  for (const std::string& name : estimate::KnownEstimators()) {
    EXPECT_NE(reply.status.message().find(name), std::string::npos)
        << "error should list " << name;
  }
}

TEST_F(ServiceTest, EmptyQueryAfterAnalysisErrors) {
  auto reply = service_->Execute("ROUTE subrange 0.1 0 the of and");
  ASSERT_FALSE(reply.status.ok());
  EXPECT_EQ(reply.status.code(), Status::Code::kInvalidArgument);
}

TEST_F(ServiceTest, UnknownCommandErrors) {
  auto reply = service_->Execute("FETCH stuff");
  ASSERT_FALSE(reply.status.ok());
  EXPECT_EQ(reply.status.code(), Status::Code::kInvalidArgument);
}

TEST_F(ServiceTest, StatsRendersCountersAndLatencies) {
  ASSERT_TRUE(service_->Execute("ROUTE subrange 0.1 0 football").status.ok());
  ASSERT_TRUE(service_->Execute("ROUTE subrange 0.1 0 football").status.ok());
  service_->Execute("ROUTE bogus 0.1 0 football");  // one error
  auto reply = service_->Execute("STATS");
  ASSERT_TRUE(reply.status.ok());

  auto find = [&](const std::string& key) -> std::string {
    for (const std::string& line : reply.payload) {
      if (line.rfind(key + " ", 0) == 0) return line.substr(key.size() + 1);
    }
    return "<missing>";
  };
  // The snapshot is taken before the in-flight STATS is recorded, so it
  // covers exactly the three ROUTEs that preceded it.
  EXPECT_EQ(find("requests_total"), "3");
  EXPECT_EQ(find("errors_total"), "1");
  EXPECT_EQ(find("engines"), "3");
  EXPECT_EQ(find("reloads"), "0");
  EXPECT_EQ(find("cache_hits"), "3");  // per-engine entries, 3 engines
  EXPECT_EQ(find("cache_misses"), "3");
  EXPECT_EQ(find("cmd_route_count"), "3");
  EXPECT_EQ(find("cmd_stats_count"), "0");
  EXPECT_NE(find("cmd_route_p50_us"), "<missing>");
  EXPECT_NE(find("cmd_route_p99_us"), "<missing>");

  // A second STATS sees the first one counted.
  reply = service_->Execute("STATS");
  ASSERT_TRUE(reply.status.ok());
  EXPECT_EQ(find("requests_total"), "4");
  EXPECT_EQ(find("cmd_stats_count"), "1");
}

TEST_F(ServiceTest, QuitRequestsShutdownAndCloses) {
  auto reply = service_->Execute("QUIT");
  ASSERT_TRUE(reply.status.ok());
  EXPECT_TRUE(reply.close_connection);
  EXPECT_TRUE(reply.shutdown_server);
  EXPECT_TRUE(reply.payload.empty());
}

TEST_F(ServiceTest, ReloadSwapsRepresentativesAndInvalidatesCache) {
  auto before = service_->Execute("ROUTE subrange 0.1 0 volleyball");
  ASSERT_TRUE(before.status.ok());
  EXPECT_TRUE(before.payload.empty());  // term unknown to every engine

  // The old snapshot must keep working for in-flight requests even after
  // the swap.
  auto old_snapshot = service_->snapshot();

  WriteRep("sports", {"volleyball net serve", "volleyball beach game",
                      "goal keeper shared"});
  auto reply = service_->Execute("RELOAD");
  ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
  ASSERT_EQ(reply.payload.size(), 1u);
  EXPECT_EQ(reply.payload[0], "engines 3");

  auto after = service_->Execute("ROUTE subrange 0.1 0 volleyball");
  ASSERT_TRUE(after.status.ok());
  ASSERT_FALSE(after.payload.empty());
  EXPECT_EQ(after.payload[0].substr(0, 6), "sports");

  // The cache did not leak the pre-reload (empty) answer: the second
  // volleyball ROUTE was a fresh miss under the new generation.
  EXPECT_EQ(service_->cache().counters().hits, 0u);
  EXPECT_EQ(service_->stats().Get(Stats::kReloads), 1u);

  // Old snapshot still answers from the pre-reload world.
  ir::Query q = ir::ParseQuery(analyzer_, "volleyball");
  auto estimator = estimate::MakeEstimator("subrange");
  ASSERT_TRUE(estimator.ok());
  EXPECT_TRUE(old_snapshot->SelectEngines(q, 0.1, *estimator.value()).empty());
}

TEST_F(ServiceTest, FailedReloadKeepsServingOldSnapshot) {
  ASSERT_TRUE(service_->Execute("ROUTE subrange 0.1 0 football").status.ok());
  // Corrupt one file on disk.
  {
    std::ofstream out(RepPath("science"), std::ios::binary | std::ios::trunc);
    out << "not a representative";
  }
  auto reply = service_->Execute("RELOAD");
  ASSERT_FALSE(reply.status.ok());
  EXPECT_EQ(reply.status.code(), Status::Code::kCorruption);
  EXPECT_NE(reply.status.message().find("science"), std::string::npos);

  // Service still answers with the previous snapshot.
  EXPECT_EQ(service_->num_engines(), 3u);
  auto after = service_->Execute("ROUTE subrange 0.1 0 football");
  ASSERT_TRUE(after.status.ok());
  ASSERT_FALSE(after.payload.empty());
  EXPECT_EQ(service_->stats().Get(Stats::kReloads), 0u);
}

// --- Loading many paths at once ------------------------------------------

// Ten engines, one file each, named in neither sorted nor reverse order.
const std::vector<std::string> kManyNames = {
    "kilo", "alpha", "golf",    "echo",   "india",
    "bravo", "hotel", "delta", "foxtrot", "charlie"};

class ManyPathServiceTest : public ServiceTest {
 protected:
  ServiceOptions WriteManyReps() {
    ServiceOptions options;
    for (const std::string& name : kManyNames) {
      WriteRep(name, {name + " shared", "common " + name});
      options.representative_paths.push_back(RepPath(name));
    }
    return options;
  }
};

// Every path loads before any registers, on several threads, yet a bad
// path list reports its first failing path in path order.
TEST_F(ServiceTest, CreateReportsTheFirstFailingPathInOrder) {
  const std::string corrupt = (dir_ / "corrupt.rep").string();
  {
    std::ofstream out(corrupt, std::ios::binary);
    out << "not a representative";
  }
  const std::string missing = (dir_ / "missing.rep").string();
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases =
      {{{RepPath("sports"), corrupt, RepPath("science"), missing},
        "Corruption: " + corrupt + ": bad magic (not a representative file)"},
       {{RepPath("sports"), missing, corrupt},
        "IOError: " + missing + ": cannot open " + missing}};
  for (const auto& [paths, expected] : cases) {
    ServiceOptions options;
    options.representative_paths = paths;
    for (int run = 0; run < 20; ++run) {
      auto service = Service::Create(&analyzer_, options);
      ASSERT_FALSE(service.ok());
      EXPECT_EQ(service.status().ToString(), expected) << "run " << run;
    }
  }
}

TEST_F(ManyPathServiceTest, EnginesRegisterInPathOrder) {
  ServiceOptions options = WriteManyReps();
  auto created = Service::Create(&analyzer_, options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto snapshot = created.value()->snapshot();
  ASSERT_EQ(snapshot->num_engines(), kManyNames.size());
  for (std::size_t i = 0; i < kManyNames.size(); ++i) {
    EXPECT_EQ(snapshot->engine_name(i), kManyNames[i]) << "engine " << i;
  }

  // A second file holding "golf" fails the load as it does serially.
  const std::string copy = (dir_ / "golf_copy.rep").string();
  std::filesystem::copy_file(RepPath("golf"), copy);
  options.representative_paths.insert(
      options.representative_paths.begin() + 4, copy);
  auto duplicate = Service::Create(&analyzer_, options);
  ASSERT_FALSE(duplicate.ok());
  EXPECT_EQ(duplicate.status().ToString(),
            "InvalidArgument: duplicate engine name: golf");
}

// The many-path form of FailedReloadKeepsServingOldSnapshot.
TEST_F(ManyPathServiceTest, FailedReloadKeepsServingOldSnapshot) {
  auto created = Service::Create(&analyzer_, WriteManyReps());
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<Service> service = std::move(created).value();
  auto before = service->Execute("ESTIMATE subrange 0.1 shared");
  ASSERT_TRUE(before.status.ok());
  ASSERT_EQ(before.payload.size(), kManyNames.size());
  auto old_snapshot = service->snapshot();

  const std::string last = RepPath(kManyNames.back());
  {
    std::ofstream out(last, std::ios::binary | std::ios::trunc);
    out << "not a representative";
  }
  auto reply = service->Execute("RELOAD");
  ASSERT_FALSE(reply.status.ok());
  EXPECT_EQ(reply.status.ToString(),
            "Corruption: " + last + ": bad magic (not a representative file)");

  EXPECT_EQ(service->snapshot(), old_snapshot);
  EXPECT_EQ(service->snapshot_epoch(), 0u);
  EXPECT_EQ(service->stats().Get(Stats::kReloads), 0u);
  auto after = service->Execute("ESTIMATE subrange 0.1 shared");
  ASSERT_TRUE(after.status.ok());
  EXPECT_EQ(after.payload, before.payload);
}

// --- Live churn: ADD / DROP / UPDATE -----------------------------------

// Acceptance: adding an engine must not cost the others their cache
// entries — the per-engine generations of untouched engines never move,
// so a repeated query hits for every pre-existing engine and misses only
// for the newcomer.
TEST_F(ServiceTest, AddKeepsUntouchedEnginesCached) {
  auto before = service_->Execute("ESTIMATE subrange 0.1 shared");
  ASSERT_TRUE(before.status.ok());
  EXPECT_EQ(service_->cache().counters().misses, 3u);

  WriteRep("history", {"empire treaty shared", "dynasty empire war"});
  auto reply = service_->Execute("ADD " + RepPath("history"));
  ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
  ASSERT_EQ(reply.payload.size(), 2u);
  EXPECT_EQ(reply.payload[0], "added 1");
  EXPECT_EQ(reply.payload[1], "engines 4");
  EXPECT_EQ(service_->num_engines(), 4u);
  EXPECT_EQ(service_->stats().Get(Stats::kEnginesAdded), 1u);
  EXPECT_EQ(service_->snapshot_epoch(), 1u);

  auto after = service_->Execute("ESTIMATE subrange 0.1 shared");
  ASSERT_TRUE(after.status.ok());
  EXPECT_EQ(after.payload.size(), 4u);
  // Scoped invalidation: 3 hits (the untouched engines), 1 fresh miss
  // (the newcomer) — not 0 hits and 4 misses, which is what a global
  // generation would produce.
  EXPECT_EQ(service_->cache().counters().hits, 3u);
  EXPECT_EQ(service_->cache().counters().misses, 4u);

  // The untouched engines' reply lines are byte-identical.
  for (const std::string& line : before.payload) {
    EXPECT_NE(std::find(after.payload.begin(), after.payload.end(), line),
              after.payload.end())
        << "pre-ADD line missing from post-ADD reply: " << line;
  }
}

TEST_F(ServiceTest, AddOfDuplicateEngineFailsAtomically) {
  auto reply = service_->Execute("ADD " + RepPath("sports"));
  ASSERT_FALSE(reply.status.ok());
  EXPECT_EQ(reply.status.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(reply.status.message().find("sports"), std::string::npos);
  // Nothing changed: no new engines, no epoch bump, old snapshot serves.
  EXPECT_EQ(service_->num_engines(), 3u);
  EXPECT_EQ(service_->snapshot_epoch(), 0u);
  EXPECT_TRUE(service_->Execute("ESTIMATE subrange 0.1 shared").status.ok());
}

TEST_F(ServiceTest, AddOfMissingFileFailsWithPath) {
  auto reply = service_->Execute("ADD " + (dir_ / "nope.rep").string());
  ASSERT_FALSE(reply.status.ok());
  EXPECT_EQ(reply.status.code(), Status::Code::kIOError);
  EXPECT_NE(reply.status.message().find("nope.rep"), std::string::npos);
  EXPECT_EQ(service_->num_engines(), 3u);
}

TEST_F(ServiceTest, DropSweepsOnlyTheDroppedEnginesEntries) {
  ASSERT_TRUE(service_->Execute("ESTIMATE subrange 0.1 shared").status.ok());
  EXPECT_EQ(service_->cache().counters().misses, 3u);

  auto reply = service_->Execute("DROP cooking");
  ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
  ASSERT_EQ(reply.payload.size(), 2u);
  EXPECT_EQ(reply.payload[0], "dropped 1");
  EXPECT_EQ(reply.payload[1], "engines 2");
  EXPECT_EQ(service_->stats().Get(Stats::kEnginesDropped), 1u);
  // Exactly the dropped engine's entry was swept — not the others'.
  EXPECT_EQ(service_->cache().counters().expired, 1u);
  EXPECT_EQ(service_->cache().counters().entries, 2u);

  auto after = service_->Execute("ESTIMATE subrange 0.1 shared");
  ASSERT_TRUE(after.status.ok());
  EXPECT_EQ(after.payload.size(), 2u);
  for (const std::string& line : after.payload) {
    EXPECT_NE(line.substr(0, 7), "cooking");
  }
  // The survivors answered entirely from cache.
  EXPECT_EQ(service_->cache().counters().hits, 2u);
  EXPECT_EQ(service_->cache().counters().misses, 3u);

  auto again = service_->Execute("DROP cooking");
  ASSERT_FALSE(again.status.ok());
  EXPECT_EQ(again.status.code(), Status::Code::kNotFound);
}

TEST_F(ServiceTest, TableBytesGaugeFallsByTheDroppedTable) {
  const std::uint64_t before = service_->stats().Get(Stats::kTableBytes);
  std::size_t cooking_bytes = 0;
  {
    auto snapshot = service_->snapshot();
    auto cooking = snapshot->FindRepresentative("cooking");
    ASSERT_TRUE(cooking.ok());
    cooking_bytes = cooking.value()->bytes();
  }
  EXPECT_GT(cooking_bytes, 0u);
  EXPECT_GT(before, cooking_bytes);

  ASSERT_TRUE(service_->Execute("DROP cooking").status.ok());
  const std::uint64_t after = service_->stats().Get(Stats::kTableBytes);
  EXPECT_EQ(after, before - cooking_bytes);
  auto metrics = service_->Execute("METRICS");
  ASSERT_TRUE(metrics.status.ok());
  EXPECT_NE(std::find(metrics.payload.begin(), metrics.payload.end(),
                      "useful_representative_table_bytes " +
                          std::to_string(after)),
            metrics.payload.end());
}

TEST_F(ServiceTest, UpdateReplacesOneEngineAndKeepsOthersCached) {
  auto before = service_->Execute("ESTIMATE subrange 0.1 volleyball");
  ASSERT_TRUE(before.status.ok());
  EXPECT_EQ(service_->cache().counters().misses, 3u);

  WriteRep("sports", {"volleyball net serve", "volleyball beach game",
                      "goal keeper shared"});
  auto reply = service_->Execute("UPDATE " + RepPath("sports"));
  ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
  ASSERT_EQ(reply.payload.size(), 2u);
  EXPECT_EQ(reply.payload[0], "updated 1");
  EXPECT_EQ(reply.payload[1], "engines 3");
  EXPECT_EQ(service_->stats().Get(Stats::kEnginesUpdated), 1u);

  auto after = service_->Execute("ESTIMATE subrange 0.1 volleyball");
  ASSERT_TRUE(after.status.ok());
  // science and cooking hit their old entries; only sports recomputed —
  // and against the NEW representative, so volleyball now scores.
  EXPECT_EQ(service_->cache().counters().hits, 2u);
  EXPECT_EQ(service_->cache().counters().misses, 4u);
  bool sports_scored = false;
  for (const std::string& line : after.payload) {
    if (line.substr(0, 7) == "sports " && line.find(" 0 0") == std::string::npos) {
      sports_scored = true;
    }
  }
  EXPECT_TRUE(sports_scored) << "UPDATE did not swap in the new rep";
}

TEST_F(ServiceTest, UpdateOfUnregisteredEnginesIsANoOp) {
  WriteRep("newbie", {"totally new content here"});
  auto reply = service_->Execute("UPDATE " + RepPath("newbie"));
  ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
  ASSERT_EQ(reply.payload.size(), 2u);
  EXPECT_EQ(reply.payload[0], "updated 0");
  EXPECT_EQ(reply.payload[1], "engines 3");
  // A no-op must not bump the epoch or sweep anything.
  EXPECT_EQ(service_->snapshot_epoch(), 0u);
  EXPECT_EQ(service_->stats().Get(Stats::kEnginesUpdated), 0u);
}

// Churn verbs build a clone that shares every untouched engine's frozen
// table with the previous snapshot: only the engines a verb names are
// loaded anew, so a verb costs O(engines), not O(terms).
TEST_F(ServiceTest, ChurnSharesUntouchedTables) {
  auto table_of = [&](const char* name) -> const represent::TermTable* {
    auto found = service_->snapshot()->FindRepresentative(name);
    EXPECT_TRUE(found.ok()) << name << ": " << found.status().ToString();
    return found.ok() ? found.value() : nullptr;
  };
  // Holding every snapshot keeps its tables alive, so an address can't be
  // reused and pointer equality means sharing.
  std::vector<std::shared_ptr<const broker::Metasearcher>> held = {
      service_->snapshot()};
  const represent::TermTable* sports = table_of("sports");
  const represent::TermTable* science = table_of("science");
  const represent::TermTable* cooking = table_of("cooking");
  std::unique_ptr<broker::Metasearcher> clone = held[0]->Clone();
  EXPECT_EQ(clone->FindRepresentative("science").value(), science);

  WriteRep("history", {"empire treaty shared", "dynasty empire war"});
  ASSERT_TRUE(service_->Execute("ADD " + RepPath("history")).status.ok());
  held.push_back(service_->snapshot());
  EXPECT_EQ(table_of("sports"), sports);
  EXPECT_EQ(table_of("science"), science);
  EXPECT_EQ(table_of("cooking"), cooking);
  const represent::TermTable* history = table_of("history");

  WriteRep("sports", {"volleyball net serve", "goal keeper shared"});
  ASSERT_TRUE(service_->Execute("UPDATE " + RepPath("sports")).status.ok());
  held.push_back(service_->snapshot());
  EXPECT_NE(table_of("sports"), sports);
  sports = table_of("sports");
  EXPECT_EQ(table_of("science"), science);
  EXPECT_EQ(table_of("cooking"), cooking);
  EXPECT_EQ(table_of("history"), history);

  ASSERT_TRUE(service_->Execute("DROP cooking").status.ok());
  EXPECT_EQ(table_of("sports"), sports);
  EXPECT_EQ(table_of("science"), science);
  EXPECT_EQ(table_of("history"), history);
}

std::vector<std::string>* CapturedWarnings() {
  static std::vector<std::string> lines;
  return &lines;
}

void CaptureWarning(LogLevel level, const std::string& line) {
  if (level == LogLevel::kWarning) CapturedWarnings()->push_back(line);
}

// A stale-max file keeps being counted (representative_stale) and warned
// about when it arrives by ADD or UPDATE, not just at startup.
TEST_F(ServiceTest, StaleMaxSurvivesAddAndUpdate) {
  CapturedWarnings()->clear();
  SetLogSink(&CaptureWarning);
  auto stale_count = [&] {
    return service_->stats().Get(Stats::kRepresentativeStale);
  };
  auto warned_about = [&](const std::string& name) {
    for (const std::string& line : *CapturedWarnings()) {
      if (line.find("'" + name + "' has stale max weights") !=
          std::string::npos) {
        return true;
      }
    }
    return false;
  };
  EXPECT_EQ(stale_count(), 0u);

  WriteRep("history", {"empire treaty shared"}, /*stale_max=*/true);
  ASSERT_TRUE(service_->Execute("ADD " + RepPath("history")).status.ok());
  EXPECT_EQ(stale_count(), 1u);
  EXPECT_TRUE(warned_about("history"));

  CapturedWarnings()->clear();
  WriteRep("sports", {"football goal referee"}, /*stale_max=*/true);
  ASSERT_TRUE(service_->Execute("UPDATE " + RepPath("sports")).status.ok());
  EXPECT_EQ(stale_count(), 2u);
  EXPECT_TRUE(warned_about("sports"));

  ASSERT_TRUE(service_->Execute("UPDATE " + RepPath("history")).status.ok());
  EXPECT_EQ(stale_count(), 2u);
  EXPECT_TRUE(warned_about("history"));

  WriteRep("history", {"empire treaty shared"});
  ASSERT_TRUE(service_->Execute("UPDATE " + RepPath("history")).status.ok());
  EXPECT_EQ(stale_count(), 1u);
  ASSERT_TRUE(service_->Execute("DROP sports").status.ok());
  EXPECT_EQ(stale_count(), 0u);
  SetLogSink(nullptr);
}

TEST_F(ServiceTest, AddFiltersByShardOwnership) {
  WriteRep("history", {"empire treaty dynasty"});
  std::size_t owner = util::ShardForEngine("history", 2);
  for (std::size_t shard = 0; shard < 2; ++shard) {
    ServiceOptions options = MakeOptions();
    options.num_shards = 2;
    options.shard_index = shard;
    auto service = Service::Create(&analyzer_, std::move(options));
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    auto reply = service.value()->Execute("ADD " + RepPath("history"));
    ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
    if (shard == owner) {
      EXPECT_EQ(reply.payload[0], "added 1");
      EXPECT_EQ(service.value()->num_engines(), 4u);
    } else {
      EXPECT_EQ(reply.payload[0], "added 0");
      EXPECT_EQ(service.value()->num_engines(), 3u);
    }
  }
}

// Packed-snapshot coverage: the service tells URPZ files by their magic,
// loads them zero-copy, mixes them freely with legacy URP1 files, and reports
// the packed-store gauges.
class PackedServiceTest : public ServiceTest {
 protected:
  std::string StorePath() { return (dir_ / "packed.urpz").string(); }

  // Packs `names` (already indexed by WriteRep-style docs) into one URPZ
  // store at `path`.
  void PackEngines(
      const std::vector<std::pair<std::string, std::vector<std::string>>>&
          engines,
      const std::string& path) {
    std::vector<represent::Representative> reps;
    for (const auto& [name, docs] : engines) {
      ir::SearchEngine engine(name, &analyzer_);
      int i = 0;
      for (const std::string& text : docs) {
        ASSERT_TRUE(
            engine.Add({name + "/d" + std::to_string(i++), text}).ok());
      }
      ASSERT_TRUE(engine.Finalize().ok());
      auto rep = represent::BuildRepresentative(engine);
      ASSERT_TRUE(rep.ok());
      reps.push_back(std::move(rep).value());
    }
    std::vector<const represent::Representative*> ptrs;
    for (const auto& r : reps) ptrs.push_back(&r);
    ASSERT_TRUE(represent::PackStoreToFile(ptrs, path).ok());
  }

  void PackEngines(
      const std::vector<std::pair<std::string, std::vector<std::string>>>&
          engines) {
    PackEngines(engines, StorePath());
  }

  /// The value of `key` in `service`'s STATS payload.
  static std::uint64_t StatsValue(Service& service, const std::string& key) {
    auto reply = service.Execute("STATS");
    EXPECT_TRUE(reply.status.ok());
    for (const std::string& line : reply.payload) {
      if (line.rfind(key + ' ', 0) == 0) {
        return std::stoull(line.substr(key.size() + 1));
      }
    }
    ADD_FAILURE() << "no STATS key " << key;
    return 0;
  }
};

TEST_F(PackedServiceTest, MixedSnapshotLoadsPackedAndLegacyPaths) {
  PackEngines({{"history", {"empire treaty dynasty", "treaty shared"}},
               {"music", {"guitar melody chord", "melody shared"}}});
  ServiceOptions options = MakeOptions();
  options.representative_paths.push_back(StorePath());
  auto service = Service::Create(&analyzer_, std::move(options));
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_EQ(service.value()->num_engines(), 5u);
  EXPECT_EQ(service.value()->stats().Get(Stats::kPackedEngines), 2u);
  EXPECT_GT(service.value()->stats().Get(Stats::kPackedBytes), 0u);

  // Every engine — packed or legacy — answers on the shared term.
  auto reply = service.value()->Execute("ESTIMATE subrange 0.05 shared");
  ASSERT_TRUE(reply.status.ok());
  EXPECT_EQ(reply.payload.size(), 5u);

  // The gauges flow into METRICS.
  auto metrics = service.value()->Execute("METRICS");
  ASSERT_TRUE(metrics.status.ok());
  bool saw_engines = false, saw_bytes = false;
  for (const std::string& line : metrics.payload) {
    if (line == "useful_representative_packed_engines 2") saw_engines = true;
    if (line.rfind("useful_representative_packed_bytes ", 0) == 0 &&
        line != "useful_representative_packed_bytes 0") {
      saw_bytes = true;
    }
  }
  EXPECT_TRUE(saw_engines);
  EXPECT_TRUE(saw_bytes);
}

TEST_F(PackedServiceTest, ReloadSwapsPackedStoreInPlace) {
  PackEngines({{"history", {"empire treaty dynasty", "treaty shared"}}});
  ServiceOptions options = MakeOptions();
  options.representative_paths.push_back(StorePath());
  auto created = Service::Create(&analyzer_, std::move(options));
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Service> service = std::move(created).value();

  auto before = service->Execute("ROUTE subrange 0.1 0 violin");
  ASSERT_TRUE(before.status.ok());
  EXPECT_TRUE(before.payload.empty());

  // Keep the pre-reload snapshot alive across the swap: its mapping must
  // stay valid even after the file is replaced on disk.
  auto old_snapshot = service->snapshot();

  // Repack with an extra engine; RELOAD must pick it up via mmap swap.
  PackEngines({{"history", {"empire treaty dynasty", "treaty shared"}},
               {"strings", {"violin bow rosin", "violin concerto"}}});
  auto reply = service->Execute("RELOAD");
  ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
  ASSERT_EQ(reply.payload.size(), 1u);
  EXPECT_EQ(reply.payload[0], "engines 5");
  EXPECT_EQ(service->stats().Get(Stats::kPackedEngines), 2u);

  auto after = service->Execute("ROUTE subrange 0.1 0 violin");
  ASSERT_TRUE(after.status.ok());
  ASSERT_FALSE(after.payload.empty());
  EXPECT_EQ(after.payload[0].substr(0, 7), "strings");

  // The old snapshot still resolves queries against the old mapping.
  ir::Query q = ir::ParseQuery(analyzer_, "treaty");
  auto estimator = estimate::MakeEstimator("subrange");
  ASSERT_TRUE(estimator.ok());
  EXPECT_FALSE(
      old_snapshot->RankEngines(q, 0.05, *estimator.value()).empty());
}

TEST_F(PackedServiceTest, CorruptPackedFileFailsLoudWithPath) {
  PackEngines({{"history", {"empire treaty dynasty"}}});
  // Garble the engine header's num_fields (file offset 36) so validation
  // trips while the URPZ magic stays intact.
  {
    std::fstream f(StorePath(),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(36);
    f.put(static_cast<char>(0xff));
  }
  ServiceOptions options = MakeOptions();
  options.representative_paths.push_back(StorePath());
  auto service = Service::Create(&analyzer_, std::move(options));
  ASSERT_FALSE(service.ok());
  EXPECT_NE(service.status().message().find("packed.urpz"),
            std::string::npos);
}

// A one-path store checks its 53 engines on every allowed CPU, yet a fault
// in its last block fails Create and RELOAD with the status a serial check
// gives, and the failed RELOAD keeps the old snapshot.
TEST_F(PackedServiceTest, CorruptLastBlockOfOnePathStoreFailsAsSerially) {
  std::vector<std::pair<std::string, std::vector<std::string>>> engines;
  for (int i = 0; i < 53; ++i) {
    const std::string name = StringPrintf("group%02d", i);
    engines.push_back({name, {name + " treaty shared", "melody " + name}});
  }
  PackEngines(engines);
  ServiceOptions options;
  options.representative_paths = {StorePath()};
  auto created = Service::Create(&analyzer_, options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<Service> service = std::move(created).value();
  auto before = service->Execute("ESTIMATE subrange 0.1 shared");
  ASSERT_TRUE(before.status.ok());
  ASSERT_EQ(before.payload.size(), 53u);
  auto old_snapshot = service->snapshot();

  // The last block's first term entry claims a shared prefix. The image
  // is renamed over the store, so the live mapping keeps the old file.
  std::string image;
  {
    std::ifstream in(StorePath(), std::ios::binary);
    image.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  auto read_u64 = [&image](std::size_t off) {
    std::uint64_t v;
    std::memcpy(&v, image.data() + off, sizeof(v));
    return v;
  };
  std::size_t entry = read_u64(16);
  for (int e = 0; e < 52; ++e) {
    std::uint32_t name_len;
    std::memcpy(&name_len, image.data() + entry + 16, sizeof(name_len));
    entry += 20 + name_len;
  }
  const std::uint64_t block = read_u64(entry);
  image[block + read_u64(block + 48)] = 1;
  const std::string bad = StorePath() + ".bad";
  {
    std::ofstream out(bad, std::ios::binary);
    out << image;
  }
  std::filesystem::rename(bad, StorePath());

  const std::string expected = "Corruption: " + StorePath() +
                               ": URPZ: nonzero shared prefix at restart";
  for (int run = 0; run < 20; ++run) {
    auto refused = Service::Create(&analyzer_, options);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().ToString(), expected) << "run " << run;
  }
  auto reply = service->Execute("RELOAD");
  ASSERT_FALSE(reply.status.ok());
  EXPECT_EQ(reply.status.ToString(), expected);
  EXPECT_EQ(service->snapshot(), old_snapshot);
  EXPECT_EQ(service->snapshot_epoch(), 0u);
  EXPECT_EQ(service->stats().Get(Stats::kReloads), 0u);
  auto after = service->Execute("ESTIMATE subrange 0.1 shared");
  ASSERT_TRUE(after.status.ok());
  EXPECT_EQ(after.payload, before.payload);
}

// Each path is opened once and its first four bytes pick the format: a
// URPZ store registers its engines zero-copy, a URP1 file becomes a term
// table, and a file shorter than a magic is read as URP1 and fails its
// magic check. Create and ADD load files alike.
TEST_F(PackedServiceTest, FirstFourBytesPickEachFilesFormat) {
  PackEngines({{"history", {"empire treaty dynasty", "treaty shared"}}});
  WriteRep("music", {"guitar melody chord", "melody shared"});
  const std::string tiny = (dir_ / "tiny.rep").string();
  {
    std::ofstream out(tiny, std::ios::binary);
    out << "URP";
  }
  const std::string bad_magic =
      "Corruption: " + tiny + ": bad magic (not a representative file)";
  auto expect_formats = [](const Service& service) {
    auto snapshot = service.snapshot();
    EXPECT_TRUE(snapshot->FindRepresentative("music").ok());
    EXPECT_EQ(snapshot->FindRepresentative("history").status().code(),
              Status::Code::kFailedPrecondition);  // served from the store
    EXPECT_EQ(service.stats().Get(Stats::kPackedEngines), 1u);
  };

  ServiceOptions options;
  options.representative_paths = {RepPath("music"), StorePath()};
  auto created = Service::Create(&analyzer_, options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  EXPECT_EQ(created.value()->num_engines(), 2u);
  expect_formats(*created.value());
  options.representative_paths.push_back(tiny);
  auto refused = Service::Create(&analyzer_, options);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().ToString(), bad_magic);

  for (const std::string& path : {RepPath("music"), StorePath()}) {
    auto reply = service_->Execute("ADD " + path);
    ASSERT_TRUE(reply.status.ok()) << path << ": " << reply.status.ToString();
    EXPECT_EQ(reply.payload[0], "added 1") << path;
  }
  EXPECT_EQ(service_->num_engines(), 5u);
  expect_formats(*service_);
  auto tiny_add = service_->Execute("ADD " + tiny);
  ASSERT_FALSE(tiny_add.status.ok());
  EXPECT_EQ(tiny_add.status.ToString(), bad_magic);
  EXPECT_EQ(service_->num_engines(), 5u);
}

// Replacing an engine takes its old block off the packed-bytes gauge: 20
// UPDATEs from one single-engine file leave one block counted, not one
// per UPDATE.
TEST_F(PackedServiceTest, UpdatesFromOneStoreKeepPackedBytesFlat) {
  PackEngines({{"history", {"empire treaty dynasty", "treaty shared"}}});
  ServiceOptions options = MakeOptions();
  options.representative_paths.push_back(StorePath());
  auto created = Service::Create(&analyzer_, std::move(options));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<Service> service = std::move(created).value();
  const std::uint64_t at_start = service->stats().Get(Stats::kPackedBytes);
  std::uint64_t after_first = 0;
  for (int i = 0; i < 20; ++i) {
    auto reply = service->Execute("UPDATE " + StorePath());
    ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
    EXPECT_EQ(reply.payload[0], "updated 1");
    if (i == 0) after_first = service->stats().Get(Stats::kPackedBytes);
  }
  EXPECT_EQ(after_first, at_start);
  EXPECT_EQ(service->stats().Get(Stats::kPackedBytes), after_first);
  EXPECT_EQ(service->stats().Get(Stats::kPackedEngines), 1u);
}

// The packed-bytes gauge counts the blocks of the store engines the
// snapshot serves, not whole store files: an UPDATE of one engine of a
// three-engine store from a single pack moves it by exactly the pack's
// block minus the block it replaced, though the store stays mapped.
TEST_F(PackedServiceTest, UpdateMovesPackedBytesByTheBlocksItSwaps) {
  PackEngines({{"history", {"empire treaty dynasty", "treaty shared"}},
               {"music", {"guitar melody chord", "melody shared"}},
               {"geology", {"basalt quartz shared", "quartz shale"}}});
  const std::string update = (dir_ / "history.urpz").string();
  PackEngines({{"history", {"empire treaty shared", "dynasty crown scepter",
                            "treaty throne"}}},
              update);
  auto store = represent::StoreView::Open(StorePath());
  auto pack = represent::StoreView::Open(update);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE(pack.ok()) << pack.status().ToString();
  std::uint64_t blocks = 0;
  std::uint64_t replaced = 0;
  for (std::size_t i = 0; i < store.value()->num_engines(); ++i) {
    const represent::RepresentativeView& engine = store.value()->engine(i);
    blocks += engine.block_bytes();
    if (engine.engine_name() == "history") replaced = engine.block_bytes();
  }
  ASSERT_GT(replaced, 0u);
  const std::uint64_t added = pack.value()->engine(0).block_bytes();
  ASSERT_NE(added, replaced);

  ServiceOptions options = MakeOptions();
  options.representative_paths.push_back(StorePath());
  auto created = Service::Create(&analyzer_, std::move(options));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<Service> service = std::move(created).value();
  EXPECT_EQ(service->stats().Get(Stats::kPackedBytes), blocks);
  EXPECT_LT(blocks, store.value()->file_bytes());

  auto reply = service->Execute("UPDATE " + update);
  ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
  EXPECT_EQ(reply.payload[0], "updated 1");
  EXPECT_EQ(service->stats().Get(Stats::kPackedBytes),
            blocks - replaced + added);
  EXPECT_EQ(StatsValue(*service, "representative_packed_bytes"),
            blocks - replaced + added);
}

// An UPDATE releases the store engines it replaces once no snapshot
// serves them, and the engines of its file it skips at once; STATS and
// METRICS count both.
TEST_F(PackedServiceTest, UpdateReleasesReplacedEnginesOnceTheOldSnapshotDrops) {
  PackEngines({{"history", {"empire treaty dynasty", "treaty shared"}},
               {"music", {"guitar melody chord", "melody shared"}},
               {"geology", {"basalt quartz shared", "quartz shale"}}});
  ServiceOptions options = MakeOptions();
  options.representative_paths.push_back(StorePath());
  auto created = Service::Create(&analyzer_, std::move(options));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<Service> service = std::move(created).value();
  const std::string key = "representative_packed_releases";
  EXPECT_EQ(StatsValue(*service, key), 0u);

  // "poetry" is not registered here, so UPDATE skips it.
  const std::string update = (dir_ / "update.urpz").string();
  PackEngines({{"history", {"empire treaty shared", "dynasty"}},
               {"music", {"melody chord shared"}},
               {"poetry", {"sonnet verse shared"}}},
              update);
  auto old_snapshot = service->snapshot();
  auto reply = service->Execute("UPDATE " + update);
  ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
  EXPECT_EQ(reply.payload[0], "updated 2");
  EXPECT_EQ(StatsValue(*service, key), 1u);  // poetry, at once
  old_snapshot.reset();
  EXPECT_EQ(StatsValue(*service, key), 3u);  // and the two replaced
  EXPECT_EQ(service->stats().Get(Stats::kPackedEngines), 3u);

  bool saw_family = false;
  auto metrics = service->Execute("METRICS");
  ASSERT_TRUE(metrics.status.ok());
  for (const std::string& line : metrics.payload) {
    if (line == "useful_representative_packed_releases_total 3") {
      saw_family = true;
    }
  }
  EXPECT_TRUE(saw_family);

  // DROP releases the dropped engine; no snapshot is held, so at once.
  ASSERT_TRUE(service->Execute("DROP geology").status.ok());
  EXPECT_EQ(StatsValue(*service, key), 4u);
}

// Under shard ownership an ADD registers the store engines its shard owns
// and releases the rest at once.
TEST_F(PackedServiceTest, ShardFilteredAddReleasesTheEnginesItSkips) {
  std::vector<std::pair<std::string, std::vector<std::string>>> engines;
  for (int i = 0; i < 8; ++i) {
    const std::string name = StringPrintf("group%02d", i);
    engines.push_back({name, {name + " treaty shared", "melody " + name}});
  }
  PackEngines(engines);
  for (std::size_t shard = 0; shard < 2; ++shard) {
    ServiceOptions options = MakeOptions();
    options.num_shards = 2;
    options.shard_index = shard;
    auto service = Service::Create(&analyzer_, std::move(options));
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    auto reply = service.value()->Execute("ADD " + StorePath());
    ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
    std::size_t owned = 0;
    for (const auto& [name, docs] : engines) {
      if (util::ShardForEngine(name, 2) == shard) ++owned;
    }
    EXPECT_EQ(reply.payload[0], StringPrintf("added %zu", owned));
    EXPECT_EQ(StatsValue(*service.value(), "representative_packed_releases"),
              engines.size() - owned)
        << "shard " << shard;
  }
}

TEST_F(PackedServiceTest, AddOfImpossibleEngineCountFailsAndKeepsServing) {
  PackEngines({{"history", {"empire treaty dynasty", "treaty shared"}}});
  // An engine count (file offset 8) no index could hold: opening it used
  // to throw std::bad_alloc, which ended a live server.
  {
    std::fstream f(StorePath(),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(8);
    const std::uint32_t count = 0xffffffffu;
    f.write(reinterpret_cast<const char*>(&count), sizeof(count));
  }
  auto reply = service_->Execute("ADD " + StorePath());
  ASSERT_FALSE(reply.status.ok());
  EXPECT_EQ(reply.status.ToString().rfind("Corruption: " + StorePath(), 0),
            0u)
      << reply.status.ToString();
  EXPECT_EQ(service_->num_engines(), 3u);
  auto after = service_->Execute("ESTIMATE subrange 0.05 shared");
  ASSERT_TRUE(after.status.ok()) << after.status.ToString();
  EXPECT_EQ(after.payload.size(), 3u);
}

}  // namespace
}  // namespace useful::service
