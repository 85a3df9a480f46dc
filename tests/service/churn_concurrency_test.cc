// Torn-snapshot hunt: readers hammer ESTIMATE through service::Service
// (socket-free — the same Execute path the TCP server drives) while a
// writer cycles ADD / UPDATE / DROP / RELOAD. Every reply must be
// byte-identical to one of the finitely many sequentially-reachable
// snapshot states; any mixed-generation reply (an engine from state B
// scored against state C's representative, a half-registered engine, a
// ranking sorted across two snapshots) fails the equality outright.
//
// This suite is in the tsan CI lane on purpose: the assertions catch
// semantic tearing, TSan catches the data races that cause it.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ir/search_engine.h"
#include "represent/builder.h"
#include "represent/serialize.h"
#include "represent/store.h"
#include "service/service.h"
#include "text/analyzer.h"

namespace useful::service {
namespace {

class ChurnConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Keyed by pid, not random_seed: the verbs re-read these files from
    // disk mid-test, so two concurrently running test processes must
    // never share (and tear down) one fixture directory.
    dir_ = std::filesystem::temp_directory_path() /
           ("useful_churn_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    WriteRep("alpha", {"falcon glider shared", "glider canyon ridge"});
    WriteRep("beta", {"reactor turbine shared", "turbine blade steam"});
    // Two versions of the churned engine; UPDATE swaps v1 -> v2.
    WriteRepAs("extra", "extra_v1", {"marble quarry shared"});
    // v2 mentions the probe term in both documents so its estimate for
    // "shared" is distinguishable from v1's.
    WriteRepAs("extra", "extra_v2",
               {"marble statue shared", "statue shared chisel marble"});

    ServiceOptions options;
    options.representative_paths = {RepPath("alpha"), RepPath("beta")};
    auto service = Service::Create(&analyzer_, std::move(options));
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    service_ = std::move(service).value();
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string RepPath(const std::string& file) {
    return (dir_ / (file + ".rep")).string();
  }

  void WriteRep(const std::string& name, std::vector<std::string> docs) {
    WriteRepAs(name, name, std::move(docs));
  }

  void WriteRepAs(const std::string& engine_name, const std::string& file,
                  std::vector<std::string> docs) {
    ASSERT_TRUE(represent::SaveRepresentative(BuildRep(engine_name, docs),
                                              RepPath(file))
                    .ok());
  }

  /// The representative of `engine_name` built from `docs`.
  represent::Representative BuildRep(const std::string& engine_name,
                                     const std::vector<std::string>& docs) {
    ir::SearchEngine engine(engine_name, &analyzer_);
    int i = 0;
    for (const std::string& text : docs) {
      EXPECT_TRUE(
          engine.Add({engine_name + "/d" + std::to_string(i++), text}).ok());
    }
    EXPECT_TRUE(engine.Finalize().ok());
    auto rep = represent::BuildRepresentative(engine);
    EXPECT_TRUE(rep.ok());
    return std::move(rep).value();
  }

  /// Packs `reps` into the URPZ store `dir_/<file>.urpz`; returns its path.
  std::string Pack(const std::string& file,
                   const std::vector<represent::Representative>& reps) {
    std::vector<const represent::Representative*> ptrs;
    for (const represent::Representative& rep : reps) ptrs.push_back(&rep);
    const std::string path = (dir_ / (file + ".urpz")).string();
    EXPECT_TRUE(represent::PackStoreToFile(ptrs, path).ok());
    return path;
  }

  std::vector<std::string> Payload(const std::string& request) {
    auto reply = service_->Execute(request);
    EXPECT_TRUE(reply.status.ok()) << request << ": "
                                   << reply.status.ToString();
    return reply.payload;
  }

  text::Analyzer analyzer_;
  std::filesystem::path dir_;
  std::unique_ptr<Service> service_;
};

TEST_F(ChurnConcurrencyTest, RepliesNeverMixSnapshotGenerations) {
  const std::string kProbe = "ESTIMATE subrange 0.05 shared";
  // Walk the writer's cycle sequentially first to enumerate every legal
  // reply. State A: {alpha, beta}. State B: + extra(v1). State C: the
  // same engines with extra updated to v2.
  std::vector<std::vector<std::string>> legal;
  legal.push_back(Payload(kProbe));                             // A
  ASSERT_TRUE(service_->Execute("ADD " + RepPath("extra_v1")).status.ok());
  legal.push_back(Payload(kProbe));                             // B
  ASSERT_TRUE(
      service_->Execute("UPDATE " + RepPath("extra_v2")).status.ok());
  legal.push_back(Payload(kProbe));                             // C
  ASSERT_TRUE(service_->Execute("DROP extra").status.ok());
  ASSERT_EQ(Payload(kProbe), legal[0]) << "DROP did not restore state A";
  // The three states are genuinely distinguishable, so a torn reply
  // cannot hide behind identical payloads.
  ASSERT_NE(legal[0], legal[1]);
  ASSERT_NE(legal[1], legal[2]);

  // Readers run a fixed amount of work and the writer churns until the
  // last reader finishes (at least kMinCycles full cycles), so the churn
  // provably overlaps every read no matter how the scheduler starves
  // either side — a stop-flag design can let a fast writer finish all
  // its cycles before a reader completes one Execute.
  constexpr int kMinCycles = 10;
  constexpr int kReaders = 3;
  constexpr int kReadsPerReader = 150;
  std::atomic<int> readers_done{0};
  std::atomic<int> torn{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      for (int i = 0; i < kReadsPerReader; ++i) {
        auto reply = service_->Execute(kProbe);
        if (!reply.status.ok()) {
          // ESTIMATE never references an engine by name; churn must not
          // make it fail.
          torn.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (std::find(legal.begin(), legal.end(), reply.payload) ==
            legal.end()) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
      readers_done.fetch_add(1, std::memory_order_release);
    });
  }

  int cycle = 0;
  while (cycle < kMinCycles ||
         readers_done.load(std::memory_order_acquire) < kReaders) {
    ASSERT_TRUE(service_->Execute("ADD " + RepPath("extra_v1")).status.ok())
        << "cycle " << cycle;
    ASSERT_TRUE(
        service_->Execute("UPDATE " + RepPath("extra_v2")).status.ok())
        << "cycle " << cycle;
    ASSERT_TRUE(service_->Execute("DROP extra").status.ok())
        << "cycle " << cycle;
    // RELOAD rebuilds from the configured paths — also state A, but via
    // the whole-registry path (fresh generations + full cache clear).
    ASSERT_TRUE(service_->Execute("RELOAD").status.ok()) << "cycle " << cycle;
    ++cycle;
  }
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0) << "a reply mixed two snapshot generations";
  EXPECT_GE(cycle, kMinCycles);
  // The writer ended on state A.
  EXPECT_EQ(Payload(kProbe), legal[0]);
}

// The same hunt over one multi-engine URPZ store: the writer UPDATEs two
// of its engines from single-engine packs and DROPs a third, so each verb
// releases a store engine's pages once the last reader of the old snapshot
// lets go, while readers keep estimating the store's other engines.
// RELOAD maps the store afresh. Every reply must still be one of the
// sequential states' bytes.
TEST_F(ChurnConcurrencyTest, PackedStoreRepliesNeverMixGenerations) {
  const std::string store =
      Pack("fleet", {BuildRep("alpha", {"falcon shared", "glider canyon"}),
                     BuildRep("beta", {"reactor shared", "turbine shared"}),
                     BuildRep("gamma", {"marble shared quarry"}),
                     BuildRep("delta", {"violin bow", "violin shared"})});
  const std::string alpha_v2 =
      Pack("alpha_v2", {BuildRep("alpha", {"falcon shared shared"})});
  const std::string beta_v2 = Pack(
      "beta_v2", {BuildRep("beta", {"reactor", "turbine", "shared blade"})});
  ServiceOptions options;
  options.representative_paths = {store};
  auto created = Service::Create(&analyzer_, std::move(options));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  service_ = std::move(created).value();

  const std::string kProbe = "ESTIMATE subrange 0.05 shared";
  const std::vector<std::string> cycle = {"UPDATE " + alpha_v2,
                                          "UPDATE " + beta_v2, "DROP gamma",
                                          "RELOAD"};
  // Sequential states: the store, then after each verb of the cycle; the
  // last, RELOAD, returns to the first.
  std::vector<std::vector<std::string>> legal = {Payload(kProbe)};
  for (const std::string& verb : cycle) {
    ASSERT_TRUE(service_->Execute(verb).status.ok()) << verb;
    legal.push_back(Payload(kProbe));
  }
  ASSERT_EQ(legal.back(), legal.front()) << "RELOAD did not restore it";
  legal.pop_back();
  for (std::size_t i = 1; i < legal.size(); ++i) {
    ASSERT_NE(legal[i - 1], legal[i]) << "state " << i;
  }

  constexpr int kMinCycles = 10;
  constexpr int kReaders = 3;
  constexpr int kReadsPerReader = 150;
  std::atomic<int> readers_done{0};
  std::atomic<int> torn{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      for (int i = 0; i < kReadsPerReader; ++i) {
        auto reply = service_->Execute(kProbe);
        if (!reply.status.ok() ||
            std::find(legal.begin(), legal.end(), reply.payload) ==
                legal.end()) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
      readers_done.fetch_add(1, std::memory_order_release);
    });
  }
  int cycles = 0;
  while (cycles < kMinCycles ||
         readers_done.load(std::memory_order_acquire) < kReaders) {
    for (const std::string& verb : cycle) {
      ASSERT_TRUE(service_->Execute(verb).status.ok())
          << verb << ", cycle " << cycles;
    }
    ++cycles;
  }
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0) << "a reply mixed two snapshot generations";
  EXPECT_EQ(Payload(kProbe), legal[0]);
}

TEST_F(ChurnConcurrencyTest, LatePutFromOldSnapshotCannotResurrectDeadGeneration) {
  const std::string kProbe = "ESTIMATE subrange 0.05 shared";
  // Capture the baseline, then interleave: reader computes under epoch E
  // while the writer updates to epoch E+1 — the reader's Put must be
  // refused (counted expired), so the next read recomputes under the new
  // generation instead of resurrecting the old value.
  ASSERT_TRUE(service_->Execute("ADD " + RepPath("extra_v1")).status.ok());
  std::vector<std::string> v1_reply = Payload(kProbe);

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)service_->Execute(kProbe);
    }
  });
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        service_->Execute("UPDATE " + RepPath("extra_v2")).status.ok());
    ASSERT_TRUE(
        service_->Execute("UPDATE " + RepPath("extra_v1")).status.ok());
  }
  stop.store(true, std::memory_order_release);
  reader.join();

  // After the dust settles the cache must answer with the CURRENT (v1)
  // generation's estimate.
  EXPECT_EQ(Payload(kProbe), v1_reply);
  EXPECT_EQ(Payload(kProbe), v1_reply);  // second read is the cached one
}

}  // namespace
}  // namespace useful::service
