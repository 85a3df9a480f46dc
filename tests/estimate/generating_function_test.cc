#include "estimate/generating_function.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/random.h"

namespace useful::estimate {
namespace {

// The paper's Example 3.1/3.2: q = (1,1,1), representative
// (p1,w1)=(0.6,2), (p2,w2)=(0.2,1), (p3,w3)=(0.4,2). Expanding
// (0.6 X^2 + 0.4)(0.2 X + 0.8)(0.4 X^2 + 0.6) gives
// 0.048 X^5 + 0.192 X^4 + 0.104 X^3 + 0.416 X^2 + 0.048 X + 0.192.
std::vector<TermPolynomial> Example31Factors() {
  return {
      TermPolynomial{{Spike{2.0, 0.6}}},
      TermPolynomial{{Spike{1.0, 0.2}}},
      TermPolynomial{{Spike{2.0, 0.4}}},
  };
}

TEST(GeneratingFunctionTest, Example32Coefficients) {
  auto dist = SimilarityDistribution::Expand(Example31Factors());
  const auto& spikes = dist.spikes();
  ASSERT_EQ(spikes.size(), 6u);
  const double expected[][2] = {{5, 0.048}, {4, 0.192}, {3, 0.104},
                                {2, 0.416}, {1, 0.048}, {0, 0.192}};
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(spikes[i].exponent, expected[i][0], 1e-12) << i;
    EXPECT_NEAR(spikes[i].prob, expected[i][1], 1e-12) << i;
  }
}

TEST(GeneratingFunctionTest, Example32Estimates) {
  auto dist = SimilarityDistribution::Expand(Example31Factors());
  // est_NoDoc(3, q, D) = 5 * (0.048 + 0.192) = 1.2.
  EXPECT_NEAR(dist.EstimateNoDoc(3.0, 5), 1.2, 1e-12);
  // est_AvgSim(3, q, D) = (0.048*5 + 0.192*4) / 0.24 = 4.2.
  EXPECT_NEAR(dist.EstimateAvgSim(3.0), 4.2, 1e-12);
}

TEST(GeneratingFunctionTest, EmptyFactorsIsUnit) {
  auto dist = SimilarityDistribution::Expand({});
  ASSERT_EQ(dist.spikes().size(), 1u);
  EXPECT_EQ(dist.spikes()[0].exponent, 0.0);
  EXPECT_EQ(dist.spikes()[0].prob, 1.0);
  EXPECT_EQ(dist.EstimateNoDoc(0.0, 100), 0.0);
}

TEST(GeneratingFunctionTest, ZeroProbComputed) {
  TermPolynomial poly{{Spike{1.0, 0.3}, Spike{2.0, 0.2}}};
  EXPECT_NEAR(poly.ZeroProb(), 0.5, 1e-12);
}

TEST(GeneratingFunctionTest, ZeroProbClampsAtZero) {
  TermPolynomial poly{{Spike{1.0, 0.7}, Spike{2.0, 0.5}}};  // over-full
  EXPECT_EQ(poly.ZeroProb(), 0.0);
}

TEST(GeneratingFunctionTest, SingleFactorPassesThrough) {
  TermPolynomial poly{{Spike{0.5, 0.25}}};
  auto dist = SimilarityDistribution::Expand({poly});
  ASSERT_EQ(dist.spikes().size(), 2u);
  EXPECT_NEAR(dist.spikes()[0].exponent, 0.5, 1e-15);
  EXPECT_NEAR(dist.spikes()[0].prob, 0.25, 1e-15);
  EXPECT_NEAR(dist.spikes()[1].prob, 0.75, 1e-15);
}

TEST(GeneratingFunctionTest, MergesEqualExponents) {
  // (0.5 X + 0.5)^2 = 0.25 X^2 + 0.5 X + 0.25.
  TermPolynomial coin{{Spike{1.0, 0.5}}};
  auto dist = SimilarityDistribution::Expand({coin, coin});
  ASSERT_EQ(dist.spikes().size(), 3u);
  EXPECT_NEAR(dist.spikes()[1].prob, 0.5, 1e-12);
}

TEST(GeneratingFunctionTest, MassAboveBoundaryIsStrict) {
  auto dist = SimilarityDistribution::Expand({TermPolynomial{{Spike{2.0, 0.3}}}});
  // Spike exactly at the threshold is excluded (sim > T).
  EXPECT_NEAR(dist.MassAbove(2.0), 0.0, 1e-15);
  EXPECT_NEAR(dist.MassAbove(1.999999), 0.3, 1e-12);
}

TEST(GeneratingFunctionTest, DescendingExponentInvariant) {
  Pcg32 rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<TermPolynomial> factors;
    for (int f = 0; f < 5; ++f) {
      TermPolynomial poly;
      double budget = 1.0;
      for (int s = 0; s < 4; ++s) {
        double p = rng.NextDouble() * budget * 0.5;
        budget -= p;
        poly.spikes.push_back(Spike{rng.NextDouble() * 3.0, p});
      }
      factors.push_back(std::move(poly));
    }
    auto dist = SimilarityDistribution::Expand(factors);
    for (std::size_t i = 1; i < dist.spikes().size(); ++i) {
      EXPECT_LT(dist.spikes()[i].exponent, dist.spikes()[i - 1].exponent);
    }
  }
}

TEST(GeneratingFunctionTest, TotalMassIsOneForWellFormedFactors) {
  Pcg32 rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<TermPolynomial> factors;
    for (int f = 0; f < 6; ++f) {
      TermPolynomial poly;
      double remaining = 1.0;
      int spikes = 1 + static_cast<int>(rng.NextBounded(6));
      for (int s = 0; s < spikes; ++s) {
        double p = remaining * rng.NextDouble() * 0.4;
        remaining -= p;
        poly.spikes.push_back(Spike{rng.NextDouble(), p});
      }
      factors.push_back(std::move(poly));
    }
    auto dist = SimilarityDistribution::Expand(factors);
    EXPECT_NEAR(dist.TotalMass(), 1.0, 1e-9);
  }
}

TEST(GeneratingFunctionTest, MassAboveIsMonotoneInThreshold) {
  auto dist = SimilarityDistribution::Expand(Example31Factors());
  double prev = dist.MassAbove(-0.1);
  for (double t = 0.0; t < 6.0; t += 0.05) {
    double m = dist.MassAbove(t);
    EXPECT_LE(m, prev + 1e-15);
    prev = m;
  }
}

TEST(GeneratingFunctionTest, AvgSimAboveThresholdExceedsThreshold) {
  auto dist = SimilarityDistribution::Expand(Example31Factors());
  for (double t = 0.0; t < 4.5; t += 0.25) {
    if (dist.MassAbove(t) > 0.0) {
      EXPECT_GT(dist.EstimateAvgSim(t), t) << t;
    }
  }
}

TEST(GeneratingFunctionTest, AvgSimZeroWhenNoMass) {
  auto dist = SimilarityDistribution::Expand(Example31Factors());
  EXPECT_EQ(dist.EstimateAvgSim(100.0), 0.0);
}

TEST(GeneratingFunctionTest, PruneFloorDropsTinyMass) {
  ExpandOptions opts;
  opts.prob_floor = 1e-3;
  TermPolynomial poly{{Spike{1.0, 1e-4}, Spike{2.0, 0.5}}};
  auto dist = SimilarityDistribution::Expand({poly}, opts);
  // The 1e-4 spike is gone; only X^2 and X^0 remain.
  ASSERT_EQ(dist.spikes().size(), 2u);
  EXPECT_NEAR(dist.spikes()[0].exponent, 2.0, 1e-15);
}

TEST(GeneratingFunctionTest, ResolutionMergesCloseExponents) {
  ExpandOptions opts;
  opts.exponent_resolution = 0.01;
  TermPolynomial poly{{Spike{1.000, 0.2}, Spike{1.005, 0.2}}};
  auto dist = SimilarityDistribution::Expand({poly}, opts);
  ASSERT_EQ(dist.spikes().size(), 2u);  // merged spike + zero spike
  EXPECT_NEAR(dist.spikes()[0].exponent, 1.0025, 1e-9);
  EXPECT_NEAR(dist.spikes()[0].prob, 0.4, 1e-12);
}

TEST(GeneratingFunctionTest, ResolutionMergeAnchorsAtRunHead) {
  // Regression: the merge test used to compare against the run's
  // probability-weighted mean, which walks downward as spikes accumulate.
  // With spikes at 1.000 (p=0.01), 0.9915 (p=0.5), 0.9832 (p=0.4) and
  // resolution 0.01, the drifting head (~0.9917 after two merges) would
  // swallow 0.9832 even though it lies 0.0168 below the run head 1.000 —
  // collapsing spikes spread over nearly 2x the resolution. Anchoring at
  // the head's original exponent keeps 0.9832 as its own spike.
  ExpandOptions opts;
  opts.exponent_resolution = 0.01;
  TermPolynomial poly{
      {Spike{1.000, 0.01}, Spike{0.9915, 0.5}, Spike{0.9832, 0.4}}};
  auto dist = SimilarityDistribution::Expand({poly}, opts);
  // merged(1.000, 0.9915) + standalone 0.9832 + zero spike.
  ASSERT_EQ(dist.spikes().size(), 3u);
  const double merged_mean = (1.000 * 0.01 + 0.9915 * 0.5) / 0.51;
  EXPECT_NEAR(dist.spikes()[0].exponent, merged_mean, 1e-12);
  EXPECT_NEAR(dist.spikes()[0].prob, 0.51, 1e-12);
  EXPECT_NEAR(dist.spikes()[1].exponent, 0.9832, 1e-12);
  EXPECT_NEAR(dist.spikes()[1].prob, 0.4, 1e-12);
  EXPECT_NEAR(dist.spikes()[2].prob, 0.09, 1e-12);
  // The merged exponent stays within one resolution of the run head.
  EXPECT_GE(dist.spikes()[0].exponent, 1.000 - opts.exponent_resolution);
}

TEST(GeneratingFunctionTest, MergedSpikesStayWithinResolutionOfRunHead) {
  // Property: after canonicalization every spike that absorbed a run lies
  // within `resolution` of the run's opening exponent, so no two adjacent
  // output spikes can be closer than the resolution allows via drift.
  ExpandOptions opts;
  opts.exponent_resolution = 0.05;
  Pcg32 rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<TermPolynomial> factors;
    for (int f = 0; f < 4; ++f) {
      TermPolynomial poly;
      for (int s = 0; s < 4; ++s) {
        poly.spikes.push_back(Spike{rng.NextDouble() * 2.0, 0.2});
      }
      factors.push_back(std::move(poly));
    }
    auto dist = SimilarityDistribution::Expand(factors, opts);
    for (std::size_t i = 1; i < dist.spikes().size(); ++i) {
      // Strictly descending, and adjacent merged spikes cannot have been
      // pulled through each other by weighted-mean drift.
      EXPECT_LT(dist.spikes()[i].exponent, dist.spikes()[i - 1].exponent)
          << "trial " << trial << " index " << i;
    }
    EXPECT_NEAR(dist.TotalMass(), 1.0, 1e-9) << trial;
  }
}

TEST(GeneratingFunctionTest, SixTermsBySixSpikesStaysTractable) {
  // Worst-case experimental load: 6 query terms, 6 subranges each.
  std::vector<TermPolynomial> factors;
  Pcg32 rng(3);
  for (int f = 0; f < 6; ++f) {
    TermPolynomial poly;
    for (int s = 0; s < 6; ++s) {
      poly.spikes.push_back(Spike{rng.NextDouble(), 0.15});
    }
    factors.push_back(std::move(poly));
  }
  auto dist = SimilarityDistribution::Expand(factors);
  EXPECT_NEAR(dist.TotalMass(), 1.0, 1e-9);
  EXPECT_LE(dist.spikes().size(), 117649u);  // 7^6
}

TEST(GeneratingFunctionTest, ExpandWithMatchesExpandBitForBit) {
  std::vector<TermPolynomial> factors;
  Pcg32 rng(7);
  for (int f = 0; f < 4; ++f) {
    TermPolynomial poly;
    for (int s = 0; s < 5; ++s) {
      poly.spikes.push_back(Spike{rng.NextDouble(), 0.18});
    }
    factors.push_back(std::move(poly));
  }
  auto dist = SimilarityDistribution::Expand(factors);

  ExpansionWorkspace ws;
  ws.ResetFactors(factors.size());
  for (std::size_t f = 0; f < factors.size(); ++f) {
    ws.factors()[f].spikes = factors[f].spikes;
  }
  std::span<const Spike> spikes = SimilarityDistribution::ExpandWith(ws);

  ASSERT_EQ(spikes.size(), dist.spikes().size());
  for (std::size_t i = 0; i < spikes.size(); ++i) {
    EXPECT_EQ(spikes[i].exponent, dist.spikes()[i].exponent) << i;
    EXPECT_EQ(spikes[i].prob, dist.spikes()[i].prob) << i;
  }
  EXPECT_EQ(SimilarityDistribution::MassAbove(spikes, 0.5),
            dist.MassAbove(0.5));
  EXPECT_EQ(SimilarityDistribution::WeightedMassAbove(spikes, 0.5),
            dist.WeightedMassAbove(0.5));
  EXPECT_EQ(SimilarityDistribution::EstimateNoDoc(spikes, 0.5, 1000),
            dist.EstimateNoDoc(0.5, 1000));
  EXPECT_EQ(SimilarityDistribution::EstimateAvgSim(spikes, 0.5),
            dist.EstimateAvgSim(0.5));
}

TEST(GeneratingFunctionTest, WorkspaceReuseAcrossExpansionsIsClean) {
  ExpansionWorkspace ws;
  // First expansion: two factors.
  ws.ResetFactors(2);
  ws.factors()[0].spikes.push_back(Spike{0.5, 0.3});
  ws.factors()[1].spikes.push_back(Spike{0.25, 0.4});
  std::span<const Spike> first = SimilarityDistribution::ExpandWith(ws);
  EXPECT_EQ(first.size(), 4u);  // {0.75, 0.5, 0.25, 0}

  // Second expansion on the same workspace: one factor; stale factors and
  // spikes from the first run must be gone.
  ws.ResetFactors(1);
  ws.factors()[0].spikes.push_back(Spike{0.9, 0.1});
  std::span<const Spike> second = SimilarityDistribution::ExpandWith(ws);
  auto expected = SimilarityDistribution::Expand(
      {TermPolynomial{{Spike{0.9, 0.1}}}});
  ASSERT_EQ(second.size(), expected.spikes().size());
  for (std::size_t i = 0; i < second.size(); ++i) {
    EXPECT_EQ(second[i].exponent, expected.spikes()[i].exponent);
    EXPECT_EQ(second[i].prob, expected.spikes()[i].prob);
  }
}

TEST(GeneratingFunctionTest, ResetFactorsKeepsSlotCountExact) {
  ExpansionWorkspace ws;
  ws.ResetFactors(3);
  EXPECT_EQ(ws.factors().size(), 3u);
  ws.factors()[2].spikes.push_back(Spike{1.0, 0.5});
  ws.ResetFactors(2);
  EXPECT_EQ(ws.factors().size(), 2u);
  for (const TermPolynomial& f : ws.factors()) {
    EXPECT_TRUE(f.spikes.empty());
  }
  ws.ResetFactors(5);
  EXPECT_EQ(ws.factors().size(), 5u);
  for (const TermPolynomial& f : ws.factors()) {
    EXPECT_TRUE(f.spikes.empty());
  }
}

TEST(GeneratingFunctionTest, ExpandWithEmptyFactorListIsUnitDistribution) {
  ExpansionWorkspace ws;
  ws.ResetFactors(0);
  std::span<const Spike> spikes = SimilarityDistribution::ExpandWith(ws);
  ASSERT_EQ(spikes.size(), 1u);
  EXPECT_EQ(spikes[0].exponent, 0.0);
  EXPECT_EQ(spikes[0].prob, 1.0);
}

}  // namespace
}  // namespace useful::estimate
