#include "estimate/goodness.h"

#include <gtest/gtest.h>

#include "estimate/basic_estimator.h"
#include "estimate/gloss_estimators.h"

namespace useful::estimate {
namespace {

TEST(GoodnessTest, ProductOfPair) {
  UsefulnessEstimate est{4.0, 0.25};
  EXPECT_DOUBLE_EQ(GoodnessOf(est), 1.0);
  ir::Usefulness truth{8, 0.5};
  EXPECT_DOUBLE_EQ(GoodnessOf(truth), 4.0);
}

TEST(GoodnessTest, ZeroWhenNothingAboveThreshold) {
  EXPECT_EQ(GoodnessOf(UsefulnessEstimate{0.0, 0.0}), 0.0);
  EXPECT_EQ(GoodnessOf(ir::Usefulness{0, 0.0}), 0.0);
}

TEST(GoodnessTest, Example32Goodness) {
  // From the paper's Example 3.2: est_NoDoc(3) = 1.2, est_AvgSim(3) = 4.2;
  // the implied similarity sum is 5*(0.048*5 + 0.192*4) = 5.04.
  represent::Representative rep("ex31", 5,
                                represent::RepresentativeKind::kQuadruplet);
  rep.Put("t1", represent::TermStats{0.6, 2.0, 0.0, 2.0, 3});
  rep.Put("t2", represent::TermStats{0.2, 1.0, 0.0, 1.0, 1});
  rep.Put("t3", represent::TermStats{0.4, 2.0, 0.0, 2.0, 2});
  ir::Query q;
  q.terms = {{"t1", 1.0}, {"t2", 1.0}, {"t3", 1.0}};
  BasicEstimator basic;
  EXPECT_NEAR(GoodnessOf(basic.Estimate(rep, q, 3.0)), 5.04, 1e-9);
}

TEST(GoodnessTest, HighCorrelationSumOnNestedTerms) {
  // df 50 > 30 > 10, weights 0.2 each: layers contribute
  // 10*0.6 + 20*0.4 + 20*0.2 = 18 at T = 0.1.
  represent::Representative rep("e", 100,
                                represent::RepresentativeKind::kQuadruplet);
  rep.Put("a", represent::TermStats{0.5, 0.2, 0.0, 0.2, 50});
  rep.Put("b", represent::TermStats{0.3, 0.2, 0.0, 0.2, 30});
  rep.Put("c", represent::TermStats{0.1, 0.2, 0.0, 0.2, 10});
  ir::Query q;
  q.terms = {{"a", 1.0}, {"b", 1.0}, {"c", 1.0}};
  HighCorrelationEstimator high;
  EXPECT_NEAR(GoodnessOf(high.Estimate(rep, q, 0.1)), 18.0, 1e-9);
  DisjointEstimator disjoint;
  // Disjoint: 90 docs at 0.2 each = 18 as well at this low threshold.
  EXPECT_NEAR(GoodnessOf(disjoint.Estimate(rep, q, 0.1)), 18.0, 1e-9);
  // At T = 0.3 they split: disjoint sees nothing, high-corr sees the two
  // deeper layers (10*0.6 + 20*0.4 = 14).
  EXPECT_NEAR(GoodnessOf(high.Estimate(rep, q, 0.3)), 14.0, 1e-9);
  EXPECT_EQ(GoodnessOf(disjoint.Estimate(rep, q, 0.3)), 0.0);
}

}  // namespace
}  // namespace useful::estimate
