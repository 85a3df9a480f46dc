// Robustness of the representative readers against corrupted input: random
// byte flips and truncations must never crash, hang, or allocate absurdly
// — they either fail with Corruption/IOError or (rarely, when the flip
// lands in a numeric payload) yield a structurally valid representative.
// Every input goes through both ReadRepresentative and TermTable::Parse,
// which must agree (see urp1_parity.h).
#include <gtest/gtest.h>

#include <sstream>

#include "represent/serialize.h"
#include "urp1_parity.h"
#include "util/random.h"

namespace useful::represent {
namespace {

std::string SerializedFixture() {
  Representative rep("fuzz-engine", 321, RepresentativeKind::kQuadruplet);
  Pcg32 rng(7);
  for (int i = 0; i < 64; ++i) {
    TermStats ts;
    ts.p = rng.NextDouble();
    ts.avg_weight = rng.NextDouble();
    ts.stddev = rng.NextDouble() * 0.2;
    ts.max_weight = ts.avg_weight + ts.stddev;
    ts.doc_freq = 1 + rng.NextBounded(320);
    rep.Put("term" + std::to_string(i), ts);
  }
  std::stringstream out;
  EXPECT_TRUE(WriteRepresentative(rep, out).ok());
  return out.str();
}

/// Weights as raw tf with cosine normalization gives them: each mw is one
/// of a handful of tf / |d| values, and so is w where df = 1, so the
/// table's records share a few dictionary entries and a flipped byte can
/// land in a weight that other records repeat.
std::string RepeatingWeightsFixture() {
  Representative rep("fuzz-engine", 321, RepresentativeKind::kQuadruplet);
  Pcg32 rng(11);
  const double lengths[] = {3.0, 5.0, 7.0};
  for (int i = 0; i < 64; ++i) {
    TermStats ts;
    ts.doc_freq = 1 + rng.NextBounded(3);
    ts.p = ts.doc_freq / 321.0;
    ts.max_weight = (1 + rng.NextBounded(3)) / lengths[rng.NextBounded(3)];
    ts.avg_weight = ts.doc_freq == 1 ? ts.max_weight : ts.max_weight / 2;
    ts.stddev = ts.doc_freq == 1 ? 0.0 : ts.max_weight / 4;
    rep.Put("term" + std::to_string(i), ts);
  }
  std::stringstream out;
  EXPECT_TRUE(WriteRepresentative(rep, out).ok());
  return out.str();
}

/// `trials` copies of `bytes`, each with one byte xored with a non-zero
/// value, through ReadBoth.
void SingleByteFlips(const std::string& bytes, std::uint64_t seed,
                     int trials) {
  Pcg32 rng(seed);
  for (int trial = 0; trial < trials; ++trial) {
    std::string mutated = bytes;
    std::size_t pos = rng.NextBounded(static_cast<std::uint32_t>(
        mutated.size()));
    mutated[pos] =
        static_cast<char>(mutated[pos] ^ (1 + rng.NextBounded(255)));
    auto r = ReadBoth(mutated);
    if (r.ok()) {
      // A surviving parse must still be structurally sound.
      EXPECT_LE(r.value().num_terms(), 64u);
    } else {
      EXPECT_EQ(r.status().code(), Status::Code::kCorruption);
    }
  }
}

/// `trials` copies of `bytes`, each with 2 to 31 bytes overwritten,
/// through ReadBoth.
void MultiByteScrambles(const std::string& bytes, std::uint64_t seed,
                        int trials) {
  Pcg32 rng(seed);
  for (int trial = 0; trial < trials; ++trial) {
    std::string mutated = bytes;
    int flips = 2 + static_cast<int>(rng.NextBounded(30));
    for (int f = 0; f < flips; ++f) {
      std::size_t pos = rng.NextBounded(static_cast<std::uint32_t>(
          mutated.size()));
      mutated[pos] = static_cast<char>(rng.NextU32());
    }
    auto r = ReadBoth(mutated);
    (void)r;  // any outcome is fine as long as both readers agree
    SUCCEED();
  }
}

class SerializeFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SerializeFuzz, SingleByteFlipsNeverCrash) {
  SingleByteFlips(SerializedFixture(), GetParam(), 200);
}

TEST_P(SerializeFuzz, MultiByteScramblesNeverCrash) {
  MultiByteScrambles(SerializedFixture(), GetParam() ^ 0xfeed, 100);
}

TEST_P(SerializeFuzz, SingleByteFlipsOfRepeatingWeightsNeverCrash) {
  SingleByteFlips(RepeatingWeightsFixture(), GetParam(), 200);
}

TEST_P(SerializeFuzz, MultiByteScramblesOfRepeatingWeightsNeverCrash) {
  MultiByteScrambles(RepeatingWeightsFixture(), GetParam() ^ 0xfeed, 100);
}

TEST_P(SerializeFuzz, RandomTruncationsFailCleanly) {
  const std::string bytes = SerializedFixture();
  Pcg32 rng(GetParam() ^ 0xcafe);
  for (int trial = 0; trial < 100; ++trial) {
    std::size_t cut = rng.NextBounded(
        static_cast<std::uint32_t>(bytes.size()));  // strictly shorter
    auto r = ReadBoth(bytes.substr(0, cut));
    EXPECT_FALSE(r.ok()) << "cut=" << cut;
  }
}

TEST_P(SerializeFuzz, RandomGarbageFailsCleanly) {
  Pcg32 rng(GetParam() ^ 0xdead);
  for (int trial = 0; trial < 100; ++trial) {
    std::string garbage(8 + rng.NextBounded(512), '\0');
    for (char& c : garbage) c = static_cast<char>(rng.NextU32());
    auto r = ReadBoth(garbage);
    EXPECT_FALSE(r.ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeFuzz,
                         ::testing::Values(1, 2, 3, 17, 255));

}  // namespace
}  // namespace useful::represent
