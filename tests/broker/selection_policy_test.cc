#include "broker/selection_policy.h"

#include <gtest/gtest.h>

namespace useful::broker {
namespace {

std::vector<EngineSelection> Ranked() {
  // Already in broker rank order (descending NoDoc).
  return {
      {"e0", {12.3, 0.4}}, {"e1", {5.6, 0.35}}, {"e2", {1.2, 0.3}},
      {"e3", {0.6, 0.2}},  {"e4", {0.4, 0.25}}, {"e5", {0.0, 0.0}},
  };
}

TEST(ThresholdPolicyTest, KeepsRoundedUsefulEngines) {
  auto kept = ThresholdPolicy().Apply(Ranked());
  // 0.6 rounds to 1 (kept); 0.4 rounds to 0 (dropped).
  ASSERT_EQ(kept.size(), 4u);
  EXPECT_EQ(kept[3].engine, "e3");
}

TEST(ThresholdPolicyTest, HigherMinDocs) {
  auto kept = ThresholdPolicy(5).Apply(Ranked());
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].engine, "e0");
  EXPECT_EQ(kept[1].engine, "e1");
}

TEST(ThresholdPolicyTest, EmptyInput) {
  EXPECT_TRUE(ThresholdPolicy().Apply({}).empty());
}

TEST(TopKPolicyTest, CapsUsefulEngines) {
  auto kept = TopKPolicy(2).Apply(Ranked());
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].engine, "e0");
  EXPECT_EQ(kept[1].engine, "e1");
}

TEST(TopKPolicyTest, FewerUsefulThanK) {
  auto kept = TopKPolicy(100).Apply(Ranked());
  EXPECT_EQ(kept.size(), 4u);  // only the useful ones
}

TEST(TopKPolicyTest, KZeroSelectsNothing) {
  EXPECT_TRUE(TopKPolicy(0).Apply(Ranked()).empty());
}

TEST(PolicyTest, PreservesRankOrder) {
  for (const auto& kept :
       {ThresholdPolicy().Apply(Ranked()), TopKPolicy(3).Apply(Ranked())}) {
    for (std::size_t i = 1; i < kept.size(); ++i) {
      EXPECT_GE(kept[i - 1].estimate.no_doc, kept[i].estimate.no_doc);
    }
  }
}

}  // namespace
}  // namespace useful::broker
