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
  EXPECT_EQ(&rq.representative(), rep_.get());
  EXPECT_EQ(&rq.query(), &q);
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

TEST_F(ResolvedQueryTest, DefaultBatchFallbackLoopsScalar) {
  // An estimator that does not override EstimateBatch gets the scalar loop
  // through the ResolvedQuery's back-pointers.
  class FixedEstimator : public UsefulnessEstimator {
   public:
    std::string name() const override { return "fixed"; }
    UsefulnessEstimate Estimate(const represent::Representative&,
                                const ir::Query& q,
                                double threshold) const override {
      return UsefulnessEstimate{static_cast<double>(q.size()), threshold};
    }
  };
  FixedEstimator fixed;
  ir::Query q = ir::ParseQuery(analyzer_, "zorp blat");
  ResolvedQuery rq(*rep_, q);
  const std::vector<double> thresholds = {0.1, 0.7};
  std::vector<UsefulnessEstimate> out(2);
  ExpansionWorkspace ws;
  fixed.EstimateBatch(rq, thresholds, ws, std::span<UsefulnessEstimate>(out));
  EXPECT_EQ(out[0].no_doc, 2.0);
  EXPECT_EQ(out[0].avg_sim, 0.1);
  EXPECT_EQ(out[1].avg_sim, 0.7);
}

TEST_F(ResolvedQueryTest, DefaultBatchFallbackAbortsWithoutRepresentative) {
  // A table-backed query has no Representative for the scalar loop: an
  // estimator that does not override EstimateBatch must fail loudly there
  // instead of dereferencing null.
  class ScalarOnlyEstimator : public UsefulnessEstimator {
   public:
    std::string name() const override { return "scalar-only"; }
    UsefulnessEstimate Estimate(const represent::Representative&,
                                const ir::Query&, double) const override {
      return UsefulnessEstimate{};
    }
  };
  ScalarOnlyEstimator scalar_only;
  auto table = represent::TermTable::Freeze(*rep_);
  ASSERT_TRUE(table.ok());
  ir::Query q = ir::ParseQuery(analyzer_, "zorp blat");
  ResolvedQuery rq(table.value(), q);
  ASSERT_FALSE(rq.has_representative());
  const double threshold = 0.1;
  UsefulnessEstimate out;
  ExpansionWorkspace ws;
  EXPECT_DEATH(scalar_only.EstimateBatch(
                   rq, std::span<const double>(&threshold, 1), ws,
                   std::span<UsefulnessEstimate>(&out, 1)),
               "scalar-only does not override EstimateBatch");
}

}  // namespace
}  // namespace useful::estimate
