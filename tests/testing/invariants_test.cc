#include "testing/invariants.h"

#include <gtest/gtest.h>

#include <memory>

#include "estimate/registry.h"
#include "estimate/subrange_estimator.h"
#include "ir/query.h"
#include "ir/search_engine.h"
#include "represent/builder.h"
#include "testing/injected_bug.h"
#include "testing/oracle.h"
#include "testing/synthetic.h"
#include "text/analyzer.h"

namespace useful::testing {
namespace {

class InvariantsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    options_ = VaryForSeed(5);
    collection_ = MakeSyntheticCollection(options_, "synth");
    engine_ = std::make_unique<ir::SearchEngine>("synth", &analyzer_);
    ASSERT_TRUE(engine_->AddCollection(collection_).ok());
    ASSERT_TRUE(engine_->Finalize().ok());
    oracle_ = std::make_unique<ExactOracle>(analyzer_, collection_);
    rep_ = represent::BuildRepresentative(*engine_).value();

    SyntheticQueryOptions query_options;
    for (const std::string& text :
         MakeSyntheticQueryTexts(options_, query_options, 5)) {
      ir::Query q = ir::ParseQuery(analyzer_, text);
      if (!q.empty()) queries_.push_back(std::move(q));
    }
    ASSERT_FALSE(queries_.empty());
  }

  SyntheticCorpusOptions options_;
  corpus::Collection collection_;
  text::Analyzer analyzer_;
  std::unique_ptr<ir::SearchEngine> engine_;
  std::unique_ptr<ExactOracle> oracle_;
  represent::Representative rep_;
  std::vector<ir::Query> queries_;
};

TEST_F(InvariantsTest, EveryRegisteredEstimatorPasses) {
  for (const std::string& name : estimate::KnownEstimators()) {
    auto estimator = estimate::MakeEstimator(name).value();
    InvariantOptions options;
    options.nodoc_upper_bound = name != "disjoint";
    options.check_single_term_exact = name == "subrange";
    auto failure =
        CheckEstimator(*estimator, rep_, oracle_.get(), queries_, options);
    EXPECT_FALSE(failure.has_value())
        << name << ": " << failure->ToString();
  }
}

TEST_F(InvariantsTest, EngineAndBuilderAgreeWithOracle) {
  auto engine_failure = CheckEngineAgainstOracle(*engine_, *oracle_, queries_);
  EXPECT_FALSE(engine_failure.has_value()) << engine_failure->ToString();
  auto rep_failure = CheckRepresentativeAgainstOracle(rep_, *oracle_);
  EXPECT_FALSE(rep_failure.has_value()) << rep_failure->ToString();
}

TEST_F(InvariantsTest, InjectedOffByOneIsCaughtAndShrunkToOneTerm) {
  auto mutant = MakeOffByOneSubrangeEstimator();
  InvariantOptions options;
  options.check_single_term_exact = true;
  auto failure =
      CheckEstimator(*mutant, rep_, oracle_.get(), queries_, options);
  ASSERT_TRUE(failure.has_value());
  // The off-by-one must surface through a coefficient invariant, and the
  // shrinker must cut the repro down to a single term.
  EXPECT_TRUE(failure->property == "nodoc-range" ||
              failure->property == "single-term-nodoc-df" ||
              failure->property == "single-term-selection")
      << failure->ToString();
  EXPECT_EQ(failure->query_text.find(' '), std::string::npos)
      << "expected a one-term repro, got: " << failure->ToString();
}

// A wrapper whose sweep diverges from its one-threshold calls by one
// ulp-level nudge past the first threshold: the bit-identity check must
// flag it.
class BatchDriftEstimator : public estimate::UsefulnessEstimator {
 public:
  std::string name() const override { return "batch-drift"; }
  void EstimateBatch(const estimate::ResolvedQuery& rq,
                     std::span<const double> thresholds,
                     estimate::ExpansionWorkspace& ws,
                     std::span<estimate::UsefulnessEstimate> out) const override {
    inner_.EstimateBatch(rq, thresholds, ws, out);
    for (std::size_t i = 1; i < thresholds.size(); ++i) {
      out[i].no_doc += 1e-13;  // the kind of drift a re-derived loop has
    }
  }

 private:
  estimate::SubrangeEstimator inner_;
};

TEST_F(InvariantsTest, BatchScalarDivergenceIsFlagged) {
  BatchDriftEstimator estimator;
  InvariantOptions options;
  auto failure =
      CheckEstimator(estimator, rep_, oracle_.get(), queries_, options);
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->property, "batch-scalar-identity") << failure->ToString();
}

TEST(ShrinkQueryTest, ShrinksToMinimalFailingSubset) {
  text::Analyzer analyzer;
  ir::Query q = ir::ParseQuery(analyzer, "zq0x zq1x zq2x zq3x zq4x");
  ASSERT_EQ(q.size(), 5u);
  auto contains_bad = [](const ir::Query& candidate) {
    for (const ir::QueryTerm& qt : candidate.terms) {
      if (qt.term == "zq3x") return true;
    }
    return false;
  };
  ir::Query minimal = ShrinkQuery(q, contains_bad);
  ASSERT_EQ(minimal.size(), 1u);
  EXPECT_EQ(minimal.terms[0].term, "zq3x");
}

TEST(ShrinkQueryTest, KeepsQueryWhenNothingCanBeRemoved) {
  text::Analyzer analyzer;
  ir::Query q = ir::ParseQuery(analyzer, "zq0x zq1x");
  auto needs_both = [](const ir::Query& candidate) {
    return candidate.size() == 2;
  };
  EXPECT_EQ(ShrinkQuery(q, needs_both).size(), 2u);
}

}  // namespace
}  // namespace useful::testing
