#include "util/flags.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string_view>

namespace useful::util {
namespace {

TEST(ParseUnsignedTest, AcceptsDigitsUpToMax) {
  EXPECT_EQ(ParseUnsigned("0", 10), 0u);
  EXPECT_EQ(ParseUnsigned("7979", 65535), 7979u);
  EXPECT_EQ(ParseUnsigned("65535", 65535), 65535u);
  EXPECT_EQ(ParseUnsigned("007", 65535), 7u);
  EXPECT_EQ(ParseUnsigned("18446744073709551615",
                          std::numeric_limits<std::uint64_t>::max()),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(ParseUnsignedTest, RejectsOutOfRange) {
  EXPECT_FALSE(ParseUnsigned("65536", 65535).has_value());
  EXPECT_FALSE(ParseUnsigned("70000", 65535).has_value());
  EXPECT_FALSE(ParseUnsigned("5", 4).has_value());
  EXPECT_FALSE(ParseUnsigned("1", 0).has_value());
  EXPECT_FALSE(ParseUnsigned("18446744073709551616",
                             std::numeric_limits<std::uint64_t>::max())
                   .has_value());
  EXPECT_FALSE(ParseUnsigned("99999999999999999999999",
                             std::numeric_limits<std::uint64_t>::max())
                   .has_value());
}

TEST(ParseUnsignedTest, RejectsEmptyNonDigitsAndTrailingJunk) {
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "8x", "0x10", "1.5",
                          "1e3", "abc"}) {
    EXPECT_FALSE(ParseUnsigned(bad, 1000).has_value()) << "'" << bad << "'";
  }
}

TEST(ParseFlagTest, ReturnsValueInTypeRange) {
  EXPECT_EQ(ParseFlag<std::uint16_t>("--port", "4464"), 4464);
  EXPECT_EQ(ParseFlag<int>("--backlog", "2048"), 2048);
  EXPECT_EQ(ParseFlag<std::size_t>("--threads", "0"), 0u);
}

TEST(ParseFlagDeathTest, ExitsTwoNamingTheFlag) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(ParseFlag<std::uint16_t>("--port", "70000"),
              ::testing::ExitedWithCode(2), "--port.*70000");
  EXPECT_EXIT(ParseFlag<int>("--idle-timeout-ms", "-5"),
              ::testing::ExitedWithCode(2), "--idle-timeout-ms");
  EXPECT_EXIT(ParseFlag<std::size_t>("--threads", ""),
              ::testing::ExitedWithCode(2), "--threads");
  EXPECT_EXIT(ParseFlag<std::uint32_t>("--trace-sample-rate", "8x"),
              ::testing::ExitedWithCode(2), "--trace-sample-rate");
}

TEST(ParseDoubleTest, AcceptsWholeFiniteNumbers) {
  EXPECT_EQ(ParseDouble("0.2"), 0.2);
  EXPECT_EQ(ParseDouble("0"), 0.0);
  EXPECT_EQ(ParseDouble("-1.5"), -1.5);
  EXPECT_EQ(ParseDouble("+3"), 3.0);
  EXPECT_EQ(ParseDouble(".5"), 0.5);
  EXPECT_EQ(ParseDouble("1e3"), 1000.0);
  EXPECT_EQ(ParseDouble("0x10"), 16.0);
}

TEST(ParseDoubleTest, RejectsEmptyPartialAndNonFinite) {
  for (const char* bad : {"", " 0.2", "0.2 ", "0.2x", "5x", "x", ".", "e3",
                          "1e999", "-1e999", "inf", "-inf", "nan"}) {
    EXPECT_FALSE(ParseDouble(bad).has_value()) << "'" << bad << "'";
  }
  // A view that ends before a terminator is parsed as itself.
  EXPECT_EQ(ParseDouble(std::string_view("0.25x", 4)), 0.25);
}

TEST(ParseDoubleFlagDeathTest, ExitsTwoNamingTheFlag) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EQ(ParseDoubleFlag("--qps", "250"), 250.0);
  EXPECT_EXIT(ParseDoubleFlag("--threshold", "0.2x"),
              ::testing::ExitedWithCode(2), "--threshold.*0.2x");
  EXPECT_EXIT(ParseDoubleFlag("--qps", ""), ::testing::ExitedWithCode(2),
              "--qps");
  EXPECT_EXIT(ParseDoubleFlag("--zipf", "inf"),
              ::testing::ExitedWithCode(2), "--zipf");
}

}  // namespace
}  // namespace useful::util
