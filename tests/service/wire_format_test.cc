// Bit-exactness of the protocol's score wire format. The service promises
// that FormatScore/ParseScore is a lossless pair for every double the
// estimators can produce — including the awkward corners of IEEE 754:
// denormals, signed zeros, and values one ulp from overflow.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "estimate/registry.h"
#include "ir/query.h"
#include "ir/search_engine.h"
#include "represent/builder.h"
#include "service/protocol.h"
#include "text/analyzer.h"
#include "util/random.h"

namespace useful::service {
namespace {

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void ExpectRoundTrips(double value) {
  std::string wire = FormatScore(value);
  auto parsed = ParseScore(wire);
  ASSERT_TRUE(parsed.ok()) << wire;
  EXPECT_EQ(Bits(parsed.value()), Bits(value))
      << wire << " parsed to " << parsed.value();
}

TEST(WireFormatTest, SignedZerosRoundTripBitExactly) {
  ExpectRoundTrips(0.0);
  ExpectRoundTrips(-0.0);
  EXPECT_EQ(FormatScore(-0.0), "-0");  // the sign must survive the wire
}

TEST(WireFormatTest, DenormalsRoundTripBitExactly) {
  ExpectRoundTrips(std::numeric_limits<double>::denorm_min());  // 5e-324
  ExpectRoundTrips(4.9406564584124654e-324);
  ExpectRoundTrips(2.2250738585072011e-308);  // largest denormal
  ExpectRoundTrips(std::numeric_limits<double>::min());  // smallest normal
  ExpectRoundTrips(-std::numeric_limits<double>::denorm_min());
}

TEST(WireFormatTest, ValuesNearDblMaxRoundTripBitExactly) {
  ExpectRoundTrips(DBL_MAX);
  ExpectRoundTrips(std::nextafter(DBL_MAX, 0.0));
  ExpectRoundTrips(-DBL_MAX);
  ExpectRoundTrips(DBL_MAX / 2.0);
}

TEST(WireFormatTest, RepeatingFractionsRoundTripBitExactly) {
  ExpectRoundTrips(1.0 / 3.0);
  ExpectRoundTrips(0.1);
  ExpectRoundTrips(2.0 / 7.0);
  ExpectRoundTrips(1e17 + 1.0);  // needs all 17 significant digits
  ExpectRoundTrips(3.141592653589793);
}

TEST(WireFormatTest, InfinitiesRoundTrip) {
  ExpectRoundTrips(std::numeric_limits<double>::infinity());
  ExpectRoundTrips(-std::numeric_limits<double>::infinity());
}

TEST(WireFormatTest, RandomBitPatternsRoundTrip) {
  Pcg32 rng(2024, 7);
  for (int i = 0; i < 20000; ++i) {
    std::uint64_t bits =
        (static_cast<std::uint64_t>(rng.NextU32()) << 32) | rng.NextU32();
    double value = std::bit_cast<double>(bits);
    if (std::isnan(value)) continue;  // estimators never produce NaN
    ExpectRoundTrips(value);
  }
}

std::string Printf17g(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// FormatScore prints through std::to_chars; its bytes must be printf's
// %.17g for every double: random bit patterns (every exponent, subnormals
// and NaN payloads included), the value shapes estimators produce, and
// each special value.
TEST(WireFormatTest, FormatScorePrintsWhatPrintfPrints) {
  std::vector<double> values = {
      0.0, -0.0, std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      2.2250738585072009e-308, DBL_MIN, DBL_MAX, -DBL_MAX, 1e17 + 1.0,
      1e16, 1e-5, 1e-4, 123456789012345678.0};
  Pcg32 rng(2026, 10);
  for (int i = 0; i < 600'000; ++i) {
    const std::uint64_t bits =
        (static_cast<std::uint64_t>(rng.NextU32()) << 32) | rng.NextU32();
    values.push_back(std::bit_cast<double>(bits));
  }
  for (int i = 0; i < 100'000; ++i) {
    const double u = rng.NextDouble();
    values.push_back(u);
    values.push_back(u * 800.0);
    values.push_back(u * 1e-7);
    values.push_back(std::floor(u * 5000.0));
  }
  // Subnormals: random mantissas under the smallest normal exponent.
  for (int i = 0; i < 100'000; ++i) {
    const std::uint64_t mantissa =
        ((static_cast<std::uint64_t>(rng.NextU32()) << 32) | rng.NextU32()) &
        ((std::uint64_t{1} << 52) - 1);
    values.push_back(std::bit_cast<double>(mantissa));
  }
  ASSERT_GE(values.size(), 1'000'000u);
  std::size_t mismatches = 0;
  for (double value : values) {
    const std::string want = Printf17g(value);
    std::string got = "x";
    AppendScore(&got, value);
    if (FormatScore(value) != want || got != "x" + want) {
      if (++mismatches <= 5) {
        ADD_FAILURE() << "bits " << Bits(value) << ": printf " << want
                      << ", FormatScore " << FormatScore(value);
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(FormatScore(std::numeric_limits<double>::quiet_NaN()), "nan");
  EXPECT_EQ(FormatScore(-std::numeric_limits<double>::infinity()), "-inf");
}

TEST(WireFormatTest, ParseScoreRejectsPartialTokens) {
  EXPECT_FALSE(ParseScore("").ok());
  EXPECT_FALSE(ParseScore("1.5x").ok());
  EXPECT_FALSE(ParseScore("0.2 0.3").ok());
  EXPECT_FALSE(ParseScore("abc").ok());
  EXPECT_TRUE(ParseScore("1e-320").ok());  // denormal text is fine
}

// Every score every registered estimator actually emits must survive the
// wire — the end-to-end version of the synthetic corner cases above.
TEST(WireFormatTest, EveryEstimatorScoreRoundTrips) {
  text::Analyzer analyzer;
  ir::SearchEngine engine("wire", &analyzer);
  ASSERT_TRUE(engine.Add({"d0", "zq0x zq1x zq2x"}).ok());
  ASSERT_TRUE(engine.Add({"d1", "zq0x zq0x zq1x zq3x"}).ok());
  ASSERT_TRUE(engine.Add({"d2", "zq2x zq4x zq4x zq4x"}).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  represent::Representative rep =
      represent::BuildRepresentative(engine).value();

  std::vector<std::string> names = estimate::KnownEstimators();
  names.push_back("subrange-k4");
  for (const std::string& name : names) {
    auto estimator = estimate::MakeEstimator(name).value();
    for (const char* text : {"zq0x", "zq1x zq2x", "zq0x zq1x zq2x zq4x"}) {
      ir::Query q = ir::ParseQuery(analyzer, text);
      for (double t : {0.0, 0.1, 0.25, 0.5, 0.9}) {
        auto est = estimator->Estimate(rep, q, t);
        ExpectRoundTrips(est.no_doc);
        ExpectRoundTrips(est.avg_sim);
      }
    }
  }
}

}  // namespace
}  // namespace useful::service
