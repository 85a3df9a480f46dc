#include "cluster/topology.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "util/engine_hash.h"

namespace useful::cluster {
namespace {

TEST(ParseEndpointTest, ParsesHostAndPort) {
  auto ep = ParseEndpoint("127.0.0.1:7979");
  ASSERT_TRUE(ep.ok()) << ep.status().ToString();
  EXPECT_EQ(ep.value().host, "127.0.0.1");
  EXPECT_EQ(ep.value().port, 7979);
  EXPECT_EQ(ep.value().ToString(), "127.0.0.1:7979");
}

TEST(ParseEndpointTest, RejectsMalformedEndpoints) {
  for (const char* bad :
       {"", "host", "host:", ":7979", "host:0", "host:65536", "host:-1",
        "host:7a", "host:port", "host: 79"}) {
    EXPECT_FALSE(ParseEndpoint(bad).ok()) << bad;
  }
}

TEST(ParseClusterSpecTest, ParsesShardsAndReplicas) {
  auto spec = ParseClusterSpec("a:1,b:2|c:3");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_EQ(spec.value().num_shards(), 2u);
  EXPECT_EQ(spec.value().num_replicas(), 3u);
  ASSERT_EQ(spec.value().shards[0].replicas.size(), 2u);
  EXPECT_EQ(spec.value().shards[0].replicas[0], (Endpoint{"a", 1}));
  EXPECT_EQ(spec.value().shards[0].replicas[1], (Endpoint{"b", 2}));
  EXPECT_EQ(spec.value().shards[1].replicas[0], (Endpoint{"c", 3}));
}

TEST(ParseClusterSpecTest, SemicolonIsAShardSeparatorToo) {
  // ';' spares shell users from quoting '|'.
  auto spec = ParseClusterSpec("a:1;b:2");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec.value().num_shards(), 2u);
}

TEST(ParseClusterSpecTest, RejectsEmptySpecAndEmptyShards) {
  EXPECT_FALSE(ParseClusterSpec("").ok());
  EXPECT_FALSE(ParseClusterSpec("a:1|b:x").ok());
  EXPECT_FALSE(ParseClusterSpec("nonsense").ok());
}

TEST(ParseClusterSpecTest, RejectsStrayDelimitersWithPreciseErrors) {
  // A spec that silently dropped a delimiter once meant a typo'd
  // topology booted with the wrong shard count. Every stray delimiter
  // must be rejected at parse time, and the message must name which
  // token was empty so operators can see the typo.
  struct Case {
    const char* spec;
    const char* message_fragment;
  };
  const Case kCases[] = {
      {"", "empty cluster spec"},
      {"a:1,", "empty replica 1 of shard 0 (stray ',')"},
      {",a:1", "empty replica 0 of shard 0 (stray ',')"},
      {"a:1,,b:2", "empty replica 1 of shard 0 (stray ',')"},
      {"a:1,|b:2", "empty replica 1 of shard 0 (stray ',')"},
      {"a:1|", "empty shard 1 (stray '|' or ';')"},
      {"|a:1", "empty shard 0 (stray '|' or ';')"},
      {";a:1", "empty shard 0 (stray '|' or ';')"},
      {"a:1||b:2", "empty shard 1 (stray '|' or ';')"},
      {"a:1;;b:2", "empty shard 1 (stray '|' or ';')"},
      {"a:1|;b:2", "empty shard 1 (stray '|' or ';')"},
  };
  for (const Case& c : kCases) {
    auto spec = ParseClusterSpec(c.spec);
    ASSERT_FALSE(spec.ok()) << "accepted: \"" << c.spec << '"';
    EXPECT_EQ(spec.status().code(), Status::Code::kInvalidArgument) << c.spec;
    EXPECT_NE(spec.status().message().find(c.message_fragment),
              std::string::npos)
        << '"' << c.spec << "\" produced: " << spec.status().ToString();
    if (*c.spec != '\0') {
      // The offending spec is echoed back verbatim.
      EXPECT_NE(spec.status().message().find(c.spec), std::string::npos)
          << spec.status().ToString();
    }
  }
}

TEST(EngineHashTest, IsCanonicalFnv1a64) {
  // The placement hash is a wire format: these constants are the
  // published FNV-1a offset basis / single-byte values and must never
  // change, or every deployed shard's slice is stranded.
  EXPECT_EQ(util::EngineHash(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(util::EngineHash("a"), 0xaf63dc4c8601ec8cull);
}

TEST(ShardForEngineTest, IsStableAndInRange) {
  for (std::size_t shards : {1u, 2u, 3u, 7u}) {
    for (const char* name : {"aurora", "borealis", "cascade", "delta"}) {
      std::size_t s = util::ShardForEngine(name, shards);
      EXPECT_LT(s, shards);
      EXPECT_EQ(s, util::ShardForEngine(name, shards))
          << "unstable: " << name;
    }
  }
}

TEST(ShardForEngineTest, SpreadsEnginesAcrossShards) {
  // Not a distribution-quality proof — just that 64 distinct names do
  // not all pile onto one shard of four.
  std::set<std::size_t> used;
  for (int i = 0; i < 64; ++i) {
    used.insert(util::ShardForEngine("engine" + std::to_string(i), 4));
  }
  EXPECT_EQ(used.size(), 4u);
}

}  // namespace
}  // namespace useful::cluster
