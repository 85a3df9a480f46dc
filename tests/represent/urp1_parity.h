// Parser parity for URP1 tests: every input goes through both
// ReadRepresentative and TermTable::Parse, which must agree on success,
// status code and message, and on success hold bit-identical stats for
// every term.
#pragma once

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>

#include "represent/serialize.h"
#include "represent/term_table.h"

namespace useful::represent {

/// True when the two stats are the same bit patterns field by field.
inline bool BitIdentical(const TermStats& a, const TermStats& b) {
  return a.doc_freq == b.doc_freq &&
         std::memcmp(&a.p, &b.p, sizeof(double)) == 0 &&
         std::memcmp(&a.avg_weight, &b.avg_weight, sizeof(double)) == 0 &&
         std::memcmp(&a.stddev, &b.stddev, sizeof(double)) == 0 &&
         std::memcmp(&a.max_weight, &b.max_weight, sizeof(double)) == 0;
}

/// Checks that `table` holds exactly `rep`'s header fields and terms (as
/// many terms, every one of rep's found with bit-identical stats).
inline void ExpectSameTerms(const Representative& rep,
                            const TermTable& table) {
  EXPECT_EQ(table.engine_name(), rep.engine_name());
  EXPECT_EQ(table.num_docs(), rep.num_docs());
  EXPECT_EQ(table.kind(), rep.kind());
  EXPECT_EQ(table.stale_max(), rep.stale_max());
  ASSERT_EQ(table.num_terms(), rep.num_terms());
  for (const auto& [term, stats] : rep.stats()) {
    std::optional<TermStats> found = table.Find(term);
    ASSERT_TRUE(found.has_value()) << "term '" << term << "'";
    EXPECT_TRUE(BitIdentical(*found, stats)) << "term '" << term << "'";
  }
  for (const char* absent : {"\x01" "absent", "zzzz-not-a-term"}) {
    if (!rep.Find(absent).has_value()) {
      EXPECT_FALSE(table.Find(absent).has_value()) << absent;
    }
  }
}

/// ReadRepresentative over `bytes`, after checking TermTable::Parse
/// agrees with it.
inline Result<Representative> ReadBoth(const std::string& bytes) {
  std::istringstream in(bytes);
  Result<Representative> rep = ReadRepresentative(in);
  Result<TermTable> table = TermTable::Parse(bytes);
  EXPECT_EQ(rep.ok(), table.ok());
  EXPECT_EQ(rep.status().code(), table.status().code());
  EXPECT_EQ(rep.status().message(), table.status().message());
  if (rep.ok() && table.ok()) ExpectSameTerms(rep.value(), table.value());
  return rep;
}

/// ReadBoth over the whole of `stream`'s contents.
inline Result<Representative> ReadBoth(const std::stringstream& stream) {
  return ReadBoth(stream.str());
}

}  // namespace useful::represent
