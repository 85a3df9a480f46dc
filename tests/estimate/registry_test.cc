#include "estimate/registry.h"

#include <gtest/gtest.h>

#include "estimate/subrange_estimator.h"

namespace useful::estimate {
namespace {

TEST(RegistryTest, BuildsEveryKnownEstimator) {
  for (const std::string& name : KnownEstimators()) {
    auto est = MakeEstimator(name);
    ASSERT_TRUE(est.ok()) << name;
    EXPECT_NE(est.value(), nullptr) << name;
  }
}

TEST(RegistryTest, SubrangeDefaultUsesPaperConfig) {
  auto est = MakeEstimator("subrange");
  ASSERT_TRUE(est.ok());
  EXPECT_NE(est.value()->name().find("[max]"), std::string::npos);
}

TEST(RegistryTest, SubrangeNoMaxDropsMaxSubrange) {
  auto est = MakeEstimator("subrange-nomax");
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est.value()->name().find("[max]"), std::string::npos);
}

TEST(RegistryTest, SubrangeKParsesCount) {
  auto est = MakeEstimator("subrange-k8");
  ASSERT_TRUE(est.ok());
  auto* sub = dynamic_cast<SubrangeEstimator*>(est.value().get());
  ASSERT_NE(sub, nullptr);
  EXPECT_EQ(sub->options().config.subranges().size(), 8u);
  EXPECT_TRUE(sub->options().config.with_max_subrange());
}

TEST(RegistryTest, SubrangeKRejectsGarbage) {
  EXPECT_FALSE(MakeEstimator("subrange-k").ok());
  EXPECT_FALSE(MakeEstimator("subrange-kx").ok());
  EXPECT_FALSE(MakeEstimator("subrange-k0").ok());
  EXPECT_FALSE(MakeEstimator("subrange-k9z").ok());
  EXPECT_FALSE(MakeEstimator("subrange-k1000").ok());
  // One spelling per estimator: no sign, space or leading zero.
  EXPECT_FALSE(MakeEstimator("subrange-k+3").ok());
  EXPECT_FALSE(MakeEstimator("subrange-k03").ok());
  EXPECT_FALSE(MakeEstimator("subrange-k 3").ok());
}

TEST(RegistryTest, UnknownNameFails) {
  auto est = MakeEstimator("bm25");
  EXPECT_FALSE(est.ok());
  EXPECT_EQ(est.status().code(), Status::Code::kNotFound);
}

TEST(RegistryTest, EstimatorsActuallyEstimate) {
  represent::Representative rep("e", 100,
                                represent::RepresentativeKind::kQuadruplet);
  rep.Put("t", represent::TermStats{0.3, 0.2, 0.05, 0.5, 30});
  ir::Query q;
  q.terms = {{"t", 1.0}};
  for (const std::string& name : KnownEstimators()) {
    auto est = MakeEstimator(name);
    ASSERT_TRUE(est.ok());
    UsefulnessEstimate u = est.value()->Estimate(rep, q, 0.1);
    EXPECT_GE(u.no_doc, 0.0) << name;
  }
}

}  // namespace
}  // namespace useful::estimate
