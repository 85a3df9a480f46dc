#include "estimate/resolved_query.h"

#include <gtest/gtest.h>

#include <memory>

#include "estimate/registry.h"
#include "ir/search_engine.h"
#include "represent/builder.h"

namespace useful::estimate {
namespace {

// A small but non-trivial engine: overlapping vocabulary, repeated terms,
// and enough documents that subrange spikes and adaptive tails are all
// exercised.
class ResolvedQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<ir::SearchEngine>("db", &analyzer_);
    const char* docs[] = {
        "zorp zorp quix blat",     "zorp mumble mumble",
        "blat blat blat",          "quix zorp blat mumble",
        "mumble quix quix",        "zorp zorp zorp zorp blat",
        "blat mumble",             "quix quix quix",
    };
    int i = 0;
    for (const char* text : docs) {
      ASSERT_TRUE(engine_->Add({"d" + std::to_string(i++), text}).ok());
    }
    ASSERT_TRUE(engine_->Finalize().ok());
    auto rep = represent::BuildRepresentative(*engine_);
    ASSERT_TRUE(rep.ok());
    rep_ = std::make_unique<represent::Representative>(std::move(rep).value());
  }

  text::Analyzer analyzer_;
  std::unique_ptr<ir::SearchEngine> engine_;
  std::unique_ptr<represent::Representative> rep_;
};

TEST_F(ResolvedQueryTest, KeepsFoundTermsInQueryOrder) {
  ir::Query q = ir::ParseQuery(analyzer_, "zorp blat");
  ResolvedQuery rq(*rep_, q);
  ASSERT_EQ(rq.terms().size(), 2u);
  // Order follows the query's term order, and stats match a direct Find.
  for (std::size_t i = 0; i < q.terms.size(); ++i) {
    auto ts = rep_->Find(q.terms[i].term);
    ASSERT_TRUE(ts.has_value());
    EXPECT_EQ(rq.terms()[i].weight, q.terms[i].weight);
    EXPECT_EQ(rq.terms()[i].stats.p, ts->p);
    EXPECT_EQ(rq.terms()[i].stats.avg_weight, ts->avg_weight);
    EXPECT_EQ(rq.terms()[i].stats.doc_freq, ts->doc_freq);
  }
}

TEST_F(ResolvedQueryTest, DropsUnknownTerms) {
  ir::Query q = ir::ParseQuery(analyzer_, "zorp ghostword");
  ResolvedQuery rq(*rep_, q);
  EXPECT_EQ(rq.terms().size(), 1u);
}

TEST_F(ResolvedQueryTest, CarriesRepresentativeFacts) {
  ir::Query q = ir::ParseQuery(analyzer_, "zorp");
  ResolvedQuery rq(*rep_, q);
  EXPECT_EQ(rq.num_docs(), rep_->num_docs());
  EXPECT_EQ(rq.kind(), rep_->kind());
}

// The core contract of the batched pipeline: for every registered
// estimator, EstimateBatch over a threshold sweep is bit-identical to the
// scalar Estimate call at each threshold.
TEST_F(ResolvedQueryTest, BatchBitIdenticalToScalarForEveryEstimator) {
  const std::vector<double> thresholds = {0.0, 0.1, 0.2, 0.3,
                                          0.45, 0.6, 0.9};
  const char* query_texts[] = {"zorp", "zorp blat", "quix mumble zorp",
                               "blat blat mumble quix", "ghostword zorp"};
  std::vector<std::string> names = KnownEstimators();
  names.push_back("subrange-k3");  // pattern form
  ExpansionWorkspace ws;  // shared across estimators and queries on purpose
  for (const std::string& name : names) {
    auto est = MakeEstimator(name);
    ASSERT_TRUE(est.ok()) << name;
    for (const char* text : query_texts) {
      ir::Query q = ir::ParseQuery(analyzer_, text);
      ResolvedQuery rq(*rep_, q);
      std::vector<UsefulnessEstimate> batch(thresholds.size());
      est.value()->EstimateBatch(rq, thresholds, ws,
                                 std::span<UsefulnessEstimate>(batch));
      for (std::size_t t = 0; t < thresholds.size(); ++t) {
        UsefulnessEstimate scalar =
            est.value()->Estimate(*rep_, q, thresholds[t]);
        EXPECT_EQ(batch[t].no_doc, scalar.no_doc)
            << name << " \"" << text << "\" T=" << thresholds[t];
        EXPECT_EQ(batch[t].avg_sim, scalar.avg_sim)
            << name << " \"" << text << "\" T=" << thresholds[t];
      }
    }
  }
}

TEST_F(ResolvedQueryTest, WorkspaceStateDoesNotLeakAcrossCalls) {
  // Run a wide query through the workspace, then a narrow one; the narrow
  // result must not see the wide query's factors or spike buffers.
  auto est = MakeEstimator("subrange");
  ASSERT_TRUE(est.ok());
  ExpansionWorkspace ws;
  const double threshold = 0.2;
  ir::Query wide = ir::ParseQuery(analyzer_, "zorp blat quix mumble");
  ir::Query narrow = ir::ParseQuery(analyzer_, "quix");
  ResolvedQuery rq_wide(*rep_, wide), rq_narrow(*rep_, narrow);
  UsefulnessEstimate out;
  est.value()->EstimateBatch(rq_wide, std::span<const double>(&threshold, 1),
                             ws, std::span<UsefulnessEstimate>(&out, 1));
  est.value()->EstimateBatch(rq_narrow, std::span<const double>(&threshold, 1),
                             ws, std::span<UsefulnessEstimate>(&out, 1));
  UsefulnessEstimate scalar = est.value()->Estimate(*rep_, narrow, threshold);
  EXPECT_EQ(out.no_doc, scalar.no_doc);
  EXPECT_EQ(out.avg_sim, scalar.avg_sim);
}

}  // namespace
}  // namespace useful::estimate
