#include "broker/metasearcher.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>

#include "estimate/registry.h"
#include "estimate/subrange_estimator.h"
#include "represent/builder.h"
#include "represent/quantized.h"
#include "represent/store.h"

namespace useful::broker {
namespace {

// Three small engines with distinct topical vocabularies plus overlap on
// "shared". Pseudo-words keep the stop list out of the way.
class MetasearcherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engines_.push_back(MakeEngine(
        "sports", {"football goal referee", "football stadium crowd",
                   "goal keeper shared"}));
    engines_.push_back(MakeEngine(
        "science", {"quantum particle physics", "particle collider shared",
                    "quantum entanglement"}));
    engines_.push_back(MakeEngine(
        "cooking", {"recipe flour oven", "oven temperature shared",
                    "recipe butter sugar"}));
    broker_ = std::make_unique<Metasearcher>(&analyzer_);
    for (auto& e : engines_) {
      ASSERT_TRUE(broker_->RegisterEngine(e.get()).ok());
    }
  }

  std::unique_ptr<ir::SearchEngine> MakeEngine(
      const std::string& name, std::vector<std::string> docs) {
    auto engine = std::make_unique<ir::SearchEngine>(name, &analyzer_);
    int i = 0;
    for (const std::string& text : docs) {
      EXPECT_TRUE(
          engine->Add({name + "/d" + std::to_string(i++), text}).ok());
    }
    EXPECT_TRUE(engine->Finalize().ok());
    return engine;
  }

  text::Analyzer analyzer_;
  std::vector<std::unique_ptr<ir::SearchEngine>> engines_;
  std::unique_ptr<Metasearcher> broker_;
  estimate::SubrangeEstimator estimator_;
};

TEST_F(MetasearcherTest, RegistersEngines) {
  EXPECT_EQ(broker_->num_engines(), 3u);
}

TEST_F(MetasearcherTest, RejectsDuplicateNames) {
  Status s = broker_->RegisterEngine(engines_[0].get());
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
}

TEST_F(MetasearcherTest, RejectsNullEngine) {
  EXPECT_FALSE(broker_->RegisterEngine(nullptr).ok());
}

TEST_F(MetasearcherTest, RankEnginesCoversAll) {
  ir::Query q = ir::ParseQuery(analyzer_, "football");
  auto ranked = broker_->RankEngines(q, 0.1, estimator_);
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].engine, "sports");
  EXPECT_GT(ranked[0].estimate.no_doc, ranked[1].estimate.no_doc);
}

TEST_F(MetasearcherTest, SelectDropsUselessEngines) {
  ir::Query q = ir::ParseQuery(analyzer_, "quantum");
  auto selected = broker_->SelectEngines(q, 0.1, estimator_);
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_EQ(selected[0].engine, "science");
}

TEST_F(MetasearcherTest, SharedTermSelectsSeveral) {
  ir::Query q = ir::ParseQuery(analyzer_, "shared");
  auto selected = broker_->SelectEngines(q, 0.05, estimator_);
  EXPECT_EQ(selected.size(), 3u);
}

TEST_F(MetasearcherTest, SearchMergesByScore) {
  auto results = broker_->Search("football goal", 0.05, estimator_);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_FALSE(results.value().empty());
  for (std::size_t i = 1; i < results.value().size(); ++i) {
    EXPECT_GE(results.value()[i - 1].score, results.value()[i].score);
  }
  // All results come from the sports engine.
  for (const MetasearchResult& r : results.value()) {
    EXPECT_EQ(r.engine, "sports");
    EXPECT_GT(r.score, 0.05);
  }
}

TEST_F(MetasearcherTest, SearchRespectsMaxEngines) {
  auto results = broker_->Search("shared", 0.01, estimator_, 1);
  ASSERT_TRUE(results.ok());
  // Only the top-ranked engine was dispatched.
  std::unordered_set<std::string> engines;
  for (const MetasearchResult& r : results.value()) engines.insert(r.engine);
  EXPECT_EQ(engines.size(), 1u);
}

TEST_F(MetasearcherTest, SearchRejectsEmptyQuery) {
  auto results = broker_->Search("the of", 0.1, estimator_);
  EXPECT_FALSE(results.ok());
  EXPECT_EQ(results.status().code(), Status::Code::kInvalidArgument);
}

TEST_F(MetasearcherTest, RepresentativeOnlyEngineSelectsButSkipsDispatch) {
  // A representative without a live engine participates in selection but
  // contributes no documents.
  auto live = MakeEngine("remote", {"football football football"});
  auto rep = represent::BuildRepresentative(*live);
  ASSERT_TRUE(rep.ok());
  represent::Representative renamed = std::move(rep).value();
  Metasearcher broker(&analyzer_);
  ASSERT_TRUE(broker.RegisterRepresentative(renamed).ok());
  ir::Query q = ir::ParseQuery(analyzer_, "football");
  EXPECT_EQ(broker.SelectEngines(q, 0.1, estimator_).size(), 1u);
  auto results = broker.Search("football", 0.1, estimator_);
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(results.value().empty());
}

TEST_F(MetasearcherTest, FindRepresentative) {
  auto rep = broker_->FindRepresentative("science");
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep.value()->engine_name(), "science");
  EXPECT_GT(rep.value()->num_terms(), 0u);
  auto missing = broker_->FindRepresentative("nope");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), Status::Code::kNotFound);
}

// Engines live in the broker as frozen term tables. For every registry
// estimator, plain and annotated queries, and several thresholds, a
// table-backed estimate is bit-identical to the scalar estimator over the
// source representative, whether the table came from RegisterEngine or
// RegisterRepresentative.
TEST_F(MetasearcherTest, TablesScoreBitIdenticalToScalarEstimate) {
  std::vector<represent::Representative> reps;
  Metasearcher from_reps(&analyzer_);
  for (auto& engine : engines_) {
    auto rep = represent::BuildRepresentative(*engine);
    ASSERT_TRUE(rep.ok());
    ASSERT_TRUE(from_reps.RegisterRepresentative(rep.value()).ok());
    reps.push_back(std::move(rep).value());
  }
  const char* queries[] = {"football", "goal shared", "quantum^2 particle",
                           "shared -oven", "recipe oven shared MSM 2",
                           "ghostword"};
  auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  for (const std::string& name : estimate::KnownEstimators()) {
    auto est = estimate::MakeEstimator(name);
    ASSERT_TRUE(est.ok()) << name;
    for (const char* text : queries) {
      auto q = ir::ParseAnnotatedQuery(analyzer_, text);
      ASSERT_TRUE(q.ok()) << text;
      for (double threshold : {0.05, 0.2, 0.5}) {
        for (std::size_t i = 0; i < reps.size(); ++i) {
          estimate::UsefulnessEstimate scalar =
              est.value()->Estimate(reps[i], q.value(), threshold);
          for (const Metasearcher* broker : {broker_.get(), &from_reps}) {
            ASSERT_EQ(broker->engine_name(i), reps[i].engine_name());
            estimate::UsefulnessEstimate served = broker->EstimateEngine(
                i, q.value(), threshold, *est.value());
            EXPECT_TRUE(same_bits(served.no_doc, scalar.no_doc))
                << name << " '" << text << "' T=" << threshold << " " << i;
            EXPECT_TRUE(same_bits(served.avg_sim, scalar.avg_sim))
                << name << " '" << text << "' T=" << threshold << " " << i;
          }
        }
      }
    }
  }
}

// Copy-on-write churn clones share every table with their source.
TEST_F(MetasearcherTest, CloneSharesTables) {
  std::unique_ptr<Metasearcher> clone = broker_->Clone();
  for (const char* name : {"sports", "science", "cooking"}) {
    auto mine = broker_->FindRepresentative(name);
    auto theirs = clone->FindRepresentative(name);
    ASSERT_TRUE(mine.ok() && theirs.ok()) << name;
    EXPECT_EQ(mine.value(), theirs.value()) << name;
  }
  ASSERT_TRUE(clone->RemoveEngine("science").ok());
  EXPECT_TRUE(broker_->FindRepresentative("science").ok());
  EXPECT_EQ(clone->FindRepresentative("cooking").value(),
            broker_->FindRepresentative("cooking").value());
}

TEST_F(MetasearcherTest, RegisterTableRejectsNullAndDuplicates) {
  EXPECT_EQ(broker_->RegisterTable(nullptr).code(),
            Status::Code::kInvalidArgument);
  represent::Representative rep("sports", 3,
                                represent::RepresentativeKind::kQuadruplet);
  auto table = represent::TermTable::Freeze(rep);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(broker_
                ->RegisterTable(std::make_shared<const represent::TermTable>(
                    std::move(table).value()))
                .code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(broker_->num_engines(), 3u);
}

TEST_F(MetasearcherTest, DuplicateRepresentativeRejected) {
  represent::Representative rep(
      "sports", 3, represent::RepresentativeKind::kQuadruplet);
  EXPECT_FALSE(broker_->RegisterRepresentative(rep).ok());
}

TEST_F(MetasearcherTest, DuplicateCheckPrecedesRepresentativeBuild) {
  // An *unfinalized* engine whose name collides must be rejected as a
  // duplicate, not with the representative builder's failed-precondition
  // error — i.e. the name check runs before the (expensive) build.
  ir::SearchEngine unfinalized("sports", &analyzer_);
  ASSERT_TRUE(unfinalized.Add({"x", "football"}).ok());
  Status s = broker_->RegisterEngine(&unfinalized);
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(s.ToString().find("duplicate"), std::string::npos)
      << s.ToString();
}

// A broker with 100 engines: exercises the name -> index map on every
// path (registration duplicate check, FindRepresentative, dispatch in
// Search) and the parallel ranking fan-out.
class HundredEngineBrokerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    broker_ = std::make_unique<Metasearcher>(&analyzer_);
    for (int e = 0; e < 100; ++e) {
      std::string name = "engine" + std::to_string(e);
      // Every engine shares "common"; each has a private term and a small
      // tier term shared by every tenth engine.
      std::string tier = "tier" + std::to_string(e % 10);
      auto engine = std::make_unique<ir::SearchEngine>(name, &analyzer_);
      ASSERT_TRUE(engine
                      ->Add({name + "/d0", "common " + tier + " private" +
                                               std::to_string(e)})
                      .ok());
      ASSERT_TRUE(
          engine->Add({name + "/d1", "common common " + tier}).ok());
      ASSERT_TRUE(engine->Finalize().ok());
      ASSERT_TRUE(broker_->RegisterEngine(engine.get()).ok());
      engines_.push_back(std::move(engine));
    }
  }

  text::Analyzer analyzer_;
  std::vector<std::unique_ptr<ir::SearchEngine>> engines_;
  std::unique_ptr<Metasearcher> broker_;
};

TEST_F(HundredEngineBrokerTest, MapBackedLookupAndDispatch) {
  EXPECT_EQ(broker_->num_engines(), 100u);
  // FindRepresentative hits every name, including the last registered.
  for (int e : {0, 1, 42, 99}) {
    auto rep = broker_->FindRepresentative("engine" + std::to_string(e));
    ASSERT_TRUE(rep.ok()) << e;
    EXPECT_EQ(rep.value()->engine_name(), "engine" + std::to_string(e));
  }
  EXPECT_FALSE(broker_->FindRepresentative("engine100").ok());
  // Duplicates still rejected at scale.
  EXPECT_FALSE(broker_->RegisterEngine(engines_[57].get()).ok());
  // Dispatch reaches exactly the engines owning the queried private term.
  estimate::SubrangeEstimator est;
  auto results = broker_->Search("private42", 0.1, est);
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results.value().empty());
  for (const MetasearchResult& r : results.value()) {
    EXPECT_EQ(r.engine, "engine42");
  }
}

TEST_F(MetasearcherTest, SingleTermRoutingPrefersHighestMaxWeight) {
  // §3.1 guarantee applied end-to-end: with a threshold between the top
  // engines' maximum normalized weights for "football", only the sports
  // engine is selected.
  ir::Query q = ir::ParseQuery(analyzer_, "football");
  auto science_rep = broker_->FindRepresentative("science");
  ASSERT_TRUE(science_rep.ok());
  EXPECT_FALSE(science_rep.value()->Find("football").has_value());
  auto sports_rep = broker_->FindRepresentative("sports");
  ASSERT_TRUE(sports_rep.ok());
  double mw = sports_rep.value()->Find("football")->max_weight;
  auto selected = broker_->SelectEngines(q, mw * 0.99, estimator_);
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_EQ(selected[0].engine, "sports");
  // Above the maximum weight nothing is selected.
  EXPECT_TRUE(broker_->SelectEngines(q, mw, estimator_).empty());
}

// Store-backed registration: the broker serves the same engines zero-copy
// from a packed URPZ image; estimates must be bit-identical to a broker
// holding the quantized in-memory representatives, since the packer and
// the quantizer share one training path.
class StoreBackedBrokerTest : public MetasearcherTest {
 protected:
  Result<std::shared_ptr<const represent::StoreView>> PackEngines() {
    std::vector<represent::Representative> reps;
    for (auto& e : engines_) {
      auto rep = represent::BuildRepresentative(
          *e, represent::RepresentativeKind::kQuadruplet);
      if (!rep.ok()) return rep.status();
      reps.push_back(std::move(rep).value());
    }
    std::vector<const represent::Representative*> ptrs;
    for (const auto& r : reps) ptrs.push_back(&r);
    auto image = represent::EncodeStore(ptrs);
    if (!image.ok()) return image.status();
    return represent::StoreView::FromBuffer(std::move(image).value());
  }
};

TEST_F(StoreBackedBrokerTest, RankingBitIdenticalToQuantizedRepresentatives) {
  // Broker A: quantized in-memory representatives (the classic path).
  Metasearcher quantized_broker(&analyzer_);
  for (auto& e : engines_) {
    auto rep = represent::BuildRepresentative(
        *e, represent::RepresentativeKind::kQuadruplet);
    ASSERT_TRUE(rep.ok());
    auto q = represent::QuantizeRepresentative(rep.value());
    ASSERT_TRUE(q.ok());
    ASSERT_TRUE(quantized_broker
                    .RegisterRepresentative(
                        std::move(q).value().representative)
                    .ok());
  }
  // Broker B: the same engines from a packed store, zero-copy.
  Metasearcher store_broker(&analyzer_);
  auto store = PackEngines();
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE(store_broker.RegisterStore(store.value()).ok());
  EXPECT_EQ(store_broker.num_engines(), engines_.size());
  EXPECT_EQ(store_broker.num_store_engines(), engines_.size());
  EXPECT_GT(store_broker.store_bytes(), 0u);

  for (const std::string& name : estimate::KnownEstimators()) {
    auto est = estimate::MakeEstimator(name);
    ASSERT_TRUE(est.ok()) << name;
    for (const char* text : {"football", "shared", "quantum recipe",
                             "football goal oven shared"}) {
      ir::Query q = ir::ParseQuery(analyzer_, text);
      for (double threshold : {0.05, 0.2, 0.6}) {
        auto a = quantized_broker.RankEngines(q, threshold, *est.value());
        auto b = store_broker.RankEngines(q, threshold, *est.value());
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
          EXPECT_EQ(a[i].engine, b[i].engine)
              << name << " '" << text << "' @" << threshold;
          EXPECT_EQ(a[i].estimate.no_doc, b[i].estimate.no_doc)
              << name << " '" << text << "' @" << threshold;
          EXPECT_EQ(a[i].estimate.avg_sim, b[i].estimate.avg_sim)
              << name << " '" << text << "' @" << threshold;
        }
      }
    }
  }
}

TEST_F(StoreBackedBrokerTest, RegisterStoreIsAllOrNothingOnDuplicates) {
  // broker_ already holds "sports"/"science"/"cooking"; the packed store
  // repeats them, so registration must fail without adding ANY entry.
  auto store = PackEngines();
  ASSERT_TRUE(store.ok());
  Status s = broker_->RegisterStore(store.value());
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(broker_->num_engines(), engines_.size());
  EXPECT_EQ(broker_->num_store_engines(), 0u);
}

TEST_F(StoreBackedBrokerTest, RejectsNullStore) {
  EXPECT_FALSE(broker_->RegisterStore(nullptr).ok());
}

TEST_F(StoreBackedBrokerTest, FindRepresentativeFailsForStoreBacked) {
  Metasearcher store_broker(&analyzer_);
  auto store = PackEngines();
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store_broker.RegisterStore(store.value()).ok());
  auto found = store_broker.FindRepresentative("sports");
  EXPECT_EQ(found.status().code(), Status::Code::kFailedPrecondition);
  EXPECT_EQ(store_broker.FindRepresentative("nonexistent").status().code(),
            Status::Code::kNotFound);
}

// store_bytes() sums the blocks of the engines the broker serves, not
// whole store images: removing an engine takes its block off, though
// the store stays mapped for the others.
TEST_F(StoreBackedBrokerTest, StoreBytesCountTheBlocksOfServedEngines) {
  auto store = PackEngines();
  ASSERT_TRUE(store.ok());
  const represent::StoreView& view = *store.value();
  std::map<std::string, std::size_t> block;
  std::size_t blocks = 0;
  for (std::size_t i = 0; i < view.num_engines(); ++i) {
    block[std::string(view.engine(i).engine_name())] =
        view.engine(i).block_bytes();
    blocks += view.engine(i).block_bytes();
  }
  ASSERT_EQ(block.size(), 3u);
  EXPECT_LT(blocks, view.file_bytes());
  Metasearcher store_broker(&analyzer_);
  ASSERT_TRUE(store_broker.RegisterStore(store.value()).ok());
  EXPECT_EQ(store_broker.store_bytes(), blocks);
  ASSERT_TRUE(store_broker.RemoveEngine("sports").ok());
  EXPECT_EQ(store_broker.store_bytes(), blocks - block["sports"]);
  ASSERT_TRUE(store_broker.RemoveEngine("science").ok());
  EXPECT_EQ(store_broker.store_bytes(), block["cooking"]);
  ASSERT_TRUE(store_broker.RemoveEngine("cooking").ok());
  EXPECT_EQ(store_broker.store_bytes(), 0u);
}

// A store lives as long as some entry serves one of its engines: once a
// clone replaces the only engine of a store, the clone neither counts nor
// holds that store, and it goes with the last broker that still serves it.
TEST_F(StoreBackedBrokerTest, ReplacedStoreIsReleasedWithItsLastEngine) {
  auto pack = [&](represent::RepresentativeKind kind) {
    auto rep = represent::BuildRepresentative(*engines_[0], kind);
    EXPECT_TRUE(rep.ok());
    auto image = represent::EncodeStore({&rep.value()});
    EXPECT_TRUE(image.ok());
    auto store = represent::StoreView::FromBuffer(std::move(image).value());
    EXPECT_TRUE(store.ok());
    return std::move(store).value();
  };
  std::shared_ptr<const represent::StoreView> first =
      pack(represent::RepresentativeKind::kQuadruplet);
  std::shared_ptr<const represent::StoreView> second =
      pack(represent::RepresentativeKind::kTriplet);
  ASSERT_NE(first->engine(0).block_bytes(), second->engine(0).block_bytes());
  const std::size_t first_bytes = first->engine(0).block_bytes();
  std::weak_ptr<const represent::StoreView> first_alive = first;

  auto original = std::make_unique<Metasearcher>(&analyzer_);
  ASSERT_TRUE(original->RegisterStore(std::move(first)).ok());
  std::unique_ptr<Metasearcher> clone = original->Clone();
  ASSERT_TRUE(clone->RemoveEngine("sports").ok());
  EXPECT_EQ(clone->store_bytes(), 0u);
  ASSERT_TRUE(clone->RegisterStore(second).ok());
  EXPECT_EQ(clone->store_bytes(), second->engine(0).block_bytes());
  EXPECT_EQ(original->store_bytes(), first_bytes);
  EXPECT_FALSE(first_alive.expired());
  original.reset();
  EXPECT_TRUE(first_alive.expired());
}

TEST_F(StoreBackedBrokerTest, StaleMaxStoreEngineCounted) {
  auto rep = represent::BuildRepresentative(
      *engines_[0], represent::RepresentativeKind::kQuadruplet);
  ASSERT_TRUE(rep.ok());
  represent::Representative stale = std::move(rep).value();
  stale.set_stale_max(true);
  std::vector<const represent::Representative*> ptrs = {&stale};
  auto image = represent::EncodeStore(ptrs);
  ASSERT_TRUE(image.ok());
  auto store = represent::StoreView::FromBuffer(std::move(image).value());
  ASSERT_TRUE(store.ok());
  Metasearcher store_broker(&analyzer_);
  ASSERT_TRUE(store_broker.RegisterStore(store.value()).ok());
  EXPECT_EQ(store_broker.num_stale_representatives(), 1u);
}

}  // namespace
}  // namespace useful::broker
