// Extended query semantics — per-term weights, negated terms, and
// min-should-match — proven equivalent across every execution path:
// scalar vs EstimateBatch, and the min-should-match DP vs brute-force
// outcome enumeration. The flat-query identity (all weights 1, no
// negation, no MSM) is the anchor: annotated parsing and estimation must
// be bit-identical to the original flat path.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "estimate/generating_function.h"
#include "estimate/registry.h"
#include "estimate/resolved_query.h"
#include "ir/query.h"
#include "ir/search_engine.h"
#include "represent/builder.h"
#include "text/analyzer.h"

namespace useful::estimate {
namespace {

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Estimator keys under test: the registry plus the parametrized form.
std::vector<std::string> EstimatorNames() {
  std::vector<std::string> names = KnownEstimators();
  names.push_back("subrange-k3");
  return names;
}

class SemanticsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<ir::SearchEngine>("db", &analyzer_);
    const char* docs[] = {
        "zorp zorp quix blat",      "zorp mumble mumble",
        "blat blat blat",           "quix zorp blat mumble",
        "mumble quix quix",         "zorp zorp zorp zorp blat",
        "blat mumble",              "quix quix quix",
        "zorp quix mumble blat",    "mumble",
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

// ---------------------------------------------------------------------------
// Flat identity: annotated parsing of an undecorated query — and of the
// same query with explicit `^1` weights — is bit-identical to ParseQuery,
// and every estimator produces bit-identical estimates from either, on
// the scalar path and the batch path.

TEST_F(SemanticsTest, FlatQueriesEstimateBitIdenticallyEverywhere) {
  const std::vector<double> thresholds = {0.0, 0.05, 0.15, 0.3, 0.5, 0.8};
  const char* texts[] = {"zorp", "zorp blat", "quix mumble zorp",
                         "blat blat mumble quix", "ghostword zorp"};
  for (const std::string& name : EstimatorNames()) {
    auto est = MakeEstimator(name);
    ASSERT_TRUE(est.ok()) << name;
    for (const char* text : texts) {
      ir::Query flat = ir::ParseQuery(analyzer_, text);
      auto annotated = ir::ParseAnnotatedQuery(analyzer_, text);
      ASSERT_TRUE(annotated.ok()) << text;
      // Decorate every term with an explicit ^1: same meaning, same bits.
      std::string weighted_text;
      for (const char* p = text; *p; ++p) {
        weighted_text += *p;
        if (*p != ' ' && (p[1] == ' ' || p[1] == '\0')) weighted_text += "^1";
      }
      auto weighted = ir::ParseAnnotatedQuery(analyzer_, weighted_text);
      ASSERT_TRUE(weighted.ok()) << weighted_text;

      for (const ir::Query* q :
           {&annotated.value(), &weighted.value()}) {
        ASSERT_EQ(q->size(), flat.size()) << text;
        for (std::size_t i = 0; i < flat.size(); ++i) {
          EXPECT_EQ(q->terms[i].term, flat.terms[i].term);
          EXPECT_EQ(Bits(q->terms[i].weight), Bits(flat.terms[i].weight))
              << text << " term " << i;
          EXPECT_FALSE(q->terms[i].negated);
        }
        EXPECT_EQ(q->min_should_match, 0u);
      }

      for (double t : thresholds) {
        UsefulnessEstimate base = est.value()->Estimate(*rep_, flat, t);
        UsefulnessEstimate via_annotated =
            est.value()->Estimate(*rep_, annotated.value(), t);
        UsefulnessEstimate via_weighted =
            est.value()->Estimate(*rep_, weighted.value(), t);
        EXPECT_EQ(Bits(base.no_doc), Bits(via_annotated.no_doc))
            << name << " \"" << text << "\" T=" << t;
        EXPECT_EQ(Bits(base.avg_sim), Bits(via_annotated.avg_sim))
            << name << " \"" << text << "\" T=" << t;
        EXPECT_EQ(Bits(base.no_doc), Bits(via_weighted.no_doc))
            << name << " \"" << weighted_text << "\" T=" << t;
        EXPECT_EQ(Bits(base.avg_sim), Bits(via_weighted.avg_sim))
            << name << " \"" << weighted_text << "\" T=" << t;
      }
      // Batch path over the annotated query vs scalar over the flat one.
      ExpansionWorkspace ws;
      ResolvedQuery rq(*rep_, annotated.value());
      std::vector<UsefulnessEstimate> batch(thresholds.size());
      est.value()->EstimateBatch(rq, thresholds, ws,
                                 std::span<UsefulnessEstimate>(batch));
      for (std::size_t t = 0; t < thresholds.size(); ++t) {
        UsefulnessEstimate scalar =
            est.value()->Estimate(*rep_, flat, thresholds[t]);
        EXPECT_EQ(Bits(batch[t].no_doc), Bits(scalar.no_doc))
            << name << " \"" << text << "\" T=" << thresholds[t];
        EXPECT_EQ(Bits(batch[t].avg_sim), Bits(scalar.avg_sim))
            << name << " \"" << text << "\" T=" << thresholds[t];
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The min-should-match DP against brute-force outcome enumeration.

double MassAbove(std::span<const Spike> spikes, double t) {
  double mass = 0.0;
  for (const Spike& s : spikes) {
    if (s.exponent > t) mass += s.prob;
  }
  return mass;
}

TEST(MinMatchExpansionTest, DpMatchesBruteForceEnumeration) {
  // Three positive factors and one negated (negative-exponent) factor,
  // deliberately with colliding sums and a two-spike factor.
  ExpansionWorkspace ws;
  ws.ResetFactors(4);
  ws.factors()[0].spikes = {Spike{0.30, 0.5}, Spike{0.10, 0.2}};
  ws.factors()[1].spikes = {Spike{0.20, 0.6}};
  ws.factors()[2].spikes = {Spike{0.40, 0.3}};
  ws.factors()[3].spikes = {Spike{-0.25, 0.4}};  // negated term
  const std::size_t num_positive = 3;

  // Every outcome: factor i picks spike j or the zero outcome.
  struct Outcome {
    double exponent;
    double prob;
    std::size_t matches;
  };
  std::vector<Outcome> outcomes = {{0.0, 1.0, 0}};
  for (std::size_t fi = 0; fi < ws.factors().size(); ++fi) {
    const TermPolynomial& f = ws.factors()[fi];
    std::vector<Outcome> next;
    for (const Outcome& o : outcomes) {
      next.push_back({o.exponent, o.prob * f.ZeroProb(), o.matches});
      for (const Spike& s : f.spikes) {
        next.push_back({o.exponent + s.exponent, o.prob * s.prob,
                        o.matches + (fi < num_positive ? 1u : 0u)});
      }
    }
    outcomes = std::move(next);
  }

  // Thresholds chosen between achievable exponent sums (multiples of
  // 0.05 in [-0.25, 0.9]) so canonicalization merges cannot straddle.
  const double thresholds[] = {-0.5, -0.125, 0.025, 0.175, 0.325, 0.475,
                               0.625, 0.975};
  for (std::size_t k = 0; k <= 4; ++k) {
    std::span<const Spike> dp =
        SimilarityDistribution::ExpandWithMinMatch(ws, num_positive, k);
    for (double t : thresholds) {
      double expected = 0.0;
      for (const Outcome& o : outcomes) {
        if (o.matches >= k && o.exponent > t) expected += o.prob;
      }
      EXPECT_NEAR(MassAbove(dp, t), expected, 1e-12) << "k=" << k << " T=" << t;
    }
  }
  // k above the positive width leaves no mass at all.
  std::span<const Spike> over =
      SimilarityDistribution::ExpandWithMinMatch(ws, num_positive, 4);
  EXPECT_NEAR(MassAbove(over, -1.0), 0.0, 1e-12);
}

TEST(MinMatchExpansionTest, ZeroMinMatchIsBitIdenticalToPlainExpansion) {
  ExpansionWorkspace a, b;
  for (ExpansionWorkspace* ws : {&a, &b}) {
    ws->ResetFactors(3);
    ws->factors()[0].spikes = {Spike{0.3, 0.5}};
    ws->factors()[1].spikes = {Spike{0.2, 0.6}, Spike{0.15, 0.1}};
    ws->factors()[2].spikes = {Spike{-0.1, 0.3}};
  }
  std::span<const Spike> plain = SimilarityDistribution::ExpandWith(a);
  std::span<const Spike> msm0 =
      SimilarityDistribution::ExpandWithMinMatch(b, 2, 0);
  ASSERT_EQ(plain.size(), msm0.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(Bits(plain[i].exponent), Bits(msm0[i].exponent)) << i;
    EXPECT_EQ(Bits(plain[i].prob), Bits(msm0[i].prob)) << i;
  }
}

// ---------------------------------------------------------------------------
// Negation and MSM estimator-level properties, identical across paths.

TEST_F(SemanticsTest, AllNegatedQueryHasNoMassAboveZero) {
  auto q = ir::ParseAnnotatedQuery(analyzer_, "-zorp -blat");
  ASSERT_TRUE(q.ok());
  for (const std::string& name : EstimatorNames()) {
    auto est = MakeEstimator(name);
    ASSERT_TRUE(est.ok()) << name;
    for (double t : {0.0, 0.1, 0.5}) {
      UsefulnessEstimate e = est.value()->Estimate(*rep_, q.value(), t);
      EXPECT_LE(e.no_doc, 1e-9) << name << " T=" << t;
    }
  }
}

TEST_F(SemanticsTest, NoDocIsNonIncreasingInMinShouldMatch) {
  for (const std::string& name : EstimatorNames()) {
    auto est = MakeEstimator(name);
    ASSERT_TRUE(est.ok()) << name;
    auto base = ir::ParseAnnotatedQuery(analyzer_, "zorp blat quix");
    ASSERT_TRUE(base.ok());
    double prev = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k <= 4; ++k) {
      ir::Query q = base.value();
      q.min_should_match = k;
      UsefulnessEstimate e = est.value()->Estimate(*rep_, q, 0.1);
      EXPECT_LE(e.no_doc, prev + 1e-9) << name << " k=" << k;
      prev = e.no_doc;
    }
  }
}

TEST_F(SemanticsTest, AnnotatedQueriesBitIdenticalAcrossKernelsAndBatch) {
  const char* texts[] = {"zorp^2.5 blat", "zorp -blat", "-zorp quix^0.5",
                         "zorp blat quix MSM 2", "zorp^3 -mumble quix MSM 1",
                         "zorp blat quix mumble MSM 4"};
  const std::vector<double> thresholds = {0.0, 0.08, 0.22, 0.45, 0.7};
  for (const std::string& name : EstimatorNames()) {
    auto est = MakeEstimator(name);
    ASSERT_TRUE(est.ok()) << name;
    for (const char* text : texts) {
      auto q = ir::ParseAnnotatedQuery(analyzer_, text);
      ASSERT_TRUE(q.ok()) << text;

      std::vector<UsefulnessEstimate> scalar;
      for (double t : thresholds) {
        scalar.push_back(est.value()->Estimate(*rep_, q.value(), t));
      }
      // Batch path against the scalar path.
      ExpansionWorkspace ws;
      ResolvedQuery rq(*rep_, q.value());
      std::vector<UsefulnessEstimate> batch(thresholds.size());
      est.value()->EstimateBatch(rq, thresholds, ws,
                                 std::span<UsefulnessEstimate>(batch));
      for (std::size_t t = 0; t < thresholds.size(); ++t) {
        EXPECT_EQ(Bits(batch[t].no_doc), Bits(scalar[t].no_doc))
            << name << " \"" << text << "\" T=" << thresholds[t];
        EXPECT_EQ(Bits(batch[t].avg_sim), Bits(scalar[t].avg_sim))
            << name << " \"" << text << "\" T=" << thresholds[t];
      }
    }
  }
}

}  // namespace
}  // namespace useful::estimate
