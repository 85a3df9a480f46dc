#include "service/protocol.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace useful::service {
namespace {

TEST(ProtocolTest, ParsesRoute) {
  auto r = ParseRequest("ROUTE subrange 0.2 3 quick brown fox");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().kind, CommandKind::kRoute);
  EXPECT_EQ(r.value().estimator, "subrange");
  EXPECT_DOUBLE_EQ(r.value().threshold, 0.2);
  EXPECT_EQ(r.value().topk, 3u);
  EXPECT_EQ(r.value().query_text, "quick brown fox");
}

TEST(ProtocolTest, ParsesEstimateWithoutTopk) {
  auto r = ParseRequest("ESTIMATE basic 0.35 fox");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().kind, CommandKind::kEstimate);
  EXPECT_EQ(r.value().estimator, "basic");
  EXPECT_DOUBLE_EQ(r.value().threshold, 0.35);
  EXPECT_EQ(r.value().topk, 0u);
  EXPECT_EQ(r.value().query_text, "fox");
}

TEST(ProtocolTest, CollapsesWhitespaceInQuery) {
  auto r = ParseRequest("ROUTE subrange 0.2 0   fox \t dog ");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().query_text, "fox dog");
}

TEST(ProtocolTest, ParsesArgumentFreeCommands) {
  EXPECT_EQ(ParseRequest("STATS").value().kind, CommandKind::kStats);
  EXPECT_EQ(ParseRequest("METRICS").value().kind, CommandKind::kMetrics);
  EXPECT_EQ(ParseRequest("RELOAD").value().kind, CommandKind::kReload);
  EXPECT_EQ(ParseRequest("QUIT").value().kind, CommandKind::kQuit);
}

TEST(ProtocolTest, RejectsArgumentsOnBareCommands) {
  EXPECT_FALSE(ParseRequest("STATS now").ok());
  EXPECT_FALSE(ParseRequest("METRICS all").ok());
  EXPECT_FALSE(ParseRequest("QUIT 1").ok());
}

TEST(ProtocolTest, ParsesSlowlogWithOptionalCount) {
  auto bare = ParseRequest("SLOWLOG");
  ASSERT_TRUE(bare.ok()) << bare.status().ToString();
  EXPECT_EQ(bare.value().kind, CommandKind::kSlowlog);
  EXPECT_EQ(bare.value().slowlog_n, 0u);  // 0 = no cap

  auto counted = ParseRequest("SLOWLOG 5");
  ASSERT_TRUE(counted.ok()) << counted.status().ToString();
  EXPECT_EQ(counted.value().kind, CommandKind::kSlowlog);
  EXPECT_EQ(counted.value().slowlog_n, 5u);
}

TEST(ProtocolTest, RejectsBadSlowlogCounts) {
  EXPECT_FALSE(ParseRequest("SLOWLOG -1").ok());
  EXPECT_FALSE(ParseRequest("SLOWLOG +2").ok());
  EXPECT_FALSE(ParseRequest("SLOWLOG 7abc").ok());
  EXPECT_FALSE(ParseRequest("SLOWLOG 5 extra").ok());
  EXPECT_FALSE(
      ParseRequest("SLOWLOG " + std::to_string(kMaxSlowlogEntries + 1)).ok());
  auto at_cap =
      ParseRequest("SLOWLOG " + std::to_string(kMaxSlowlogEntries));
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  EXPECT_EQ(at_cap.value().slowlog_n, kMaxSlowlogEntries);
}

TEST(ProtocolTest, ParsesChurnVerbsWithOneArgument) {
  auto add = ParseRequest("ADD /packs/extra.urpz");
  ASSERT_TRUE(add.ok()) << add.status().ToString();
  EXPECT_EQ(add.value().kind, CommandKind::kAdd);
  EXPECT_EQ(add.value().argument, "/packs/extra.urpz");

  auto drop = ParseRequest("DROP aurora");
  ASSERT_TRUE(drop.ok()) << drop.status().ToString();
  EXPECT_EQ(drop.value().kind, CommandKind::kDrop);
  EXPECT_EQ(drop.value().argument, "aurora");

  auto update = ParseRequest("UPDATE reps/extra.rep");
  ASSERT_TRUE(update.ok()) << update.status().ToString();
  EXPECT_EQ(update.value().kind, CommandKind::kUpdate);
  EXPECT_EQ(update.value().argument, "reps/extra.rep");

  // Interior whitespace collapses like everywhere in the protocol.
  auto padded = ParseRequest("  DROP \t aurora \r");
  ASSERT_TRUE(padded.ok());
  EXPECT_EQ(padded.value().argument, "aurora");
}

TEST(ProtocolTest, ChurnVerbsNeedExactlyOneArgument) {
  // Spaces can't be escaped in this protocol: "ADD a b" is ambiguous,
  // not a path with a space, so it is rejected instead of re-joined.
  for (const char* bad : {"ADD", "DROP", "UPDATE", "ADD a b", "DROP a b",
                          "UPDATE a b"}) {
    auto r = ParseRequest(bad);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_NE(r.status().message().find("needs exactly one argument"),
              std::string::npos)
        << r.status().ToString();
  }
  // The error names the expected operand kind per verb.
  EXPECT_NE(ParseRequest("DROP").status().message().find("<engine>"),
            std::string::npos);
  EXPECT_NE(ParseRequest("ADD").status().message().find("<path>"),
            std::string::npos);
  EXPECT_NE(ParseRequest("UPDATE").status().message().find("<path>"),
            std::string::npos);
}

TEST(ProtocolTest, RejectsEmptyAndUnknown) {
  EXPECT_FALSE(ParseRequest("").ok());
  EXPECT_FALSE(ParseRequest("   ").ok());
  auto r = ParseRequest("FETCH foo");
  ASSERT_FALSE(r.ok());
  // The error teaches the protocol.
  EXPECT_NE(r.status().message().find("ROUTE"), std::string::npos);
  EXPECT_NE(r.status().message().find("QUIT"), std::string::npos);
}

TEST(ProtocolTest, RejectsBadNumbers) {
  EXPECT_FALSE(ParseRequest("ROUTE subrange nan 0 fox").ok());
  EXPECT_FALSE(ParseRequest("ROUTE subrange -0.1 0 fox").ok());
  EXPECT_FALSE(ParseRequest("ROUTE subrange 0.2 many fox").ok());
  EXPECT_FALSE(ParseRequest("ROUTE subrange 0.2x 0 fox").ok());
}

TEST(ProtocolTest, RejectsSignedAndOverflowingTopk) {
  // strtoul would silently wrap "-1" to 2^64-1; the parser must not.
  EXPECT_FALSE(ParseRequest("ROUTE basic 0.2 -1 q").ok());
  EXPECT_FALSE(ParseRequest("ROUTE basic 0.2 +1 q").ok());
  EXPECT_FALSE(ParseRequest("ROUTE basic 0.2 -0 q").ok());
  // ERANGE overflow (way past 2^64) must be detected, not saturated.
  EXPECT_FALSE(
      ParseRequest("ROUTE basic 0.2 99999999999999999999999999 q").ok());
}

TEST(ProtocolTest, CapsTopkAtSaneBound) {
  auto at_cap = ParseRequest("ROUTE basic 0.2 " + std::to_string(kMaxTopK) +
                             " q");
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  EXPECT_EQ(at_cap.value().topk, kMaxTopK);
  EXPECT_FALSE(
      ParseRequest("ROUTE basic 0.2 " + std::to_string(kMaxTopK + 1) + " q")
          .ok());
}

TEST(ProtocolTest, RejectsMissingQuery) {
  EXPECT_FALSE(ParseRequest("ROUTE subrange 0.2 0").ok());
  EXPECT_FALSE(ParseRequest("ESTIMATE subrange 0.2").ok());
}

TEST(ProtocolTest, ResponseHeaderRoundTrip) {
  auto ok = ParseResponseHeader(FormatOkHeader(17));
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(ok.value().ok);
  EXPECT_EQ(ok.value().payload_lines, 17u);

  auto err = ParseResponseHeader(
      FormatErrorHeader(Status::NotFound("no such thing")));
  ASSERT_TRUE(err.ok());
  EXPECT_FALSE(err.value().ok);
  EXPECT_EQ(err.value().error, "NotFound: no such thing");
}

TEST(ProtocolTest, RejectsMalformedResponseHeaders) {
  EXPECT_FALSE(ParseResponseHeader("").ok());
  EXPECT_FALSE(ParseResponseHeader("OK").ok());
  EXPECT_FALSE(ParseResponseHeader("OK x").ok());
  EXPECT_FALSE(ParseResponseHeader("HELLO 3").ok());
}

TEST(ProtocolTest, RejectsSignedAndOverflowingResponseHeaders) {
  // A corrupt or hostile "OK <n>" header must not drive a client into
  // reading (effectively) forever.
  EXPECT_FALSE(ParseResponseHeader("OK -1").ok());
  EXPECT_FALSE(ParseResponseHeader("OK +2").ok());
  EXPECT_FALSE(ParseResponseHeader("OK  7").ok());  // strtoul ate spaces
  EXPECT_FALSE(ParseResponseHeader("OK 99999999999999999999999999").ok());
  EXPECT_FALSE(ParseResponseHeader(
                   "OK " + std::to_string(kMaxPayloadLines + 1))
                   .ok());
  auto at_cap =
      ParseResponseHeader("OK " + std::to_string(kMaxPayloadLines));
  ASSERT_TRUE(at_cap.ok());
  EXPECT_EQ(at_cap.value().payload_lines, kMaxPayloadLines);
}

/// Every reply `reader` yields for `stream` fed in `chunk`-byte pieces.
std::vector<Reply> ReadInChunks(const std::string& stream,
                                std::size_t chunk) {
  ReplyReader reader;
  std::vector<Reply> replies;
  for (std::size_t pos = 0; pos < stream.size(); pos += chunk) {
    reader.Feed(std::string_view(stream).substr(pos, chunk));
    Reply reply;
    for (;;) {
      Result<bool> next = reader.Next(&reply);
      EXPECT_TRUE(next.ok()) << next.status().ToString();
      if (!next.ok() || !next.value()) break;
      replies.push_back(std::move(reply));
    }
  }
  EXPECT_TRUE(reader.empty());
  return replies;
}

void ExpectSameReply(const Reply& got, const Reply& want) {
  EXPECT_EQ(got.status, want.status) << got.status.ToString();
  EXPECT_EQ(got.payload, want.payload);
  EXPECT_EQ(got.degraded, want.degraded);
}

TEST(ReplyReaderTest, AnySplitOfTheStreamGivesTheSameReplies) {
  std::vector<Reply> want(3);
  want[0].payload = {"alpha 2 0.5", "beta 1 0.25"};
  want[2].payload = {"gamma 3 0.75"};
  want[2].degraded = true;
  // One ERR per error code, then one whose message is empty.
  for (Status status :
       {Status::InvalidArgument("bad threshold: x"),
        Status::NotFound("unknown estimator: nope"),
        Status::OutOfRange("k: too big"),
        Status::FailedPrecondition("not loaded"),
        Status::Corruption("bad magic"), Status::IOError("open: ENOENT"),
        Status::Internal("bug"), Status::DeadlineExceeded("idle timeout"),
        Status::Unavailable("overloaded"), Status::NotFound("")}) {
    Reply err;
    err.status = status;
    want.push_back(err);
  }
  std::set<Status::Code> codes;
  for (const Reply& reply : want) codes.insert(reply.status.code());
  ASSERT_EQ(codes.size(),
            static_cast<std::size_t>(Status::Code::kUnavailable) + 1);
  std::string stream;
  for (const Reply& reply : want) stream += RenderReply(reply);
  ASSERT_EQ(stream.substr(0, 5), "OK 2\n");
  ASSERT_NE(stream.find("\nOK 0\nOK 1 DEGRADED\n"), std::string::npos);
  ASSERT_NE(stream.find("\nERR NotFound\n"), std::string::npos);

  for (std::size_t chunk = 1; chunk <= stream.size(); ++chunk) {
    SCOPED_TRACE("chunk " + std::to_string(chunk));
    std::vector<Reply> got = ReadInChunks(stream, chunk);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ExpectSameReply(got[i], want[i]);
    }
  }
}

TEST(ReplyReaderTest, ReadsBackWhatRenderReplyWrote) {
  Reply ranking;
  ranking.payload = {"borealis 5 0.5", "", "aurora 3 0.75"};
  Reply degraded_empty;
  degraded_empty.degraded = true;
  Reply error;
  error.status = Status::InvalidArgument("MSM 1025: k must be <= 1024");
  for (const Reply& reply : {ranking, degraded_empty, error}) {
    ReplyReader reader;
    const std::string wire = RenderReply(reply);
    reader.Feed(std::string_view(wire).substr(0, wire.size() - 1));
    Reply got;
    Result<bool> next = reader.Next(&got);
    ASSERT_TRUE(next.ok());
    EXPECT_FALSE(next.value());  // the last newline is still missing
    EXPECT_FALSE(reader.empty());
    reader.Feed("\n");
    next = reader.Next(&got);
    ASSERT_TRUE(next.ok());
    ASSERT_TRUE(next.value());
    ExpectSameReply(got, reply);
    EXPECT_TRUE(reader.empty());
  }
}

TEST(ReplyReaderTest, UnknownErrorCodeBecomesUnavailable) {
  ReplyReader reader;
  reader.Feed("ERR Exploded: shard on fire\nERR OK\n");
  Reply got;
  ASSERT_TRUE(reader.Next(&got).value());
  EXPECT_EQ(got.status,
            Status::Unavailable("shard error: Exploded: shard on fire"));
  ASSERT_TRUE(reader.Next(&got).value());
  EXPECT_EQ(got.status, Status::Unavailable("shard error: OK"));
}

TEST(ReplyReaderTest, CorruptStreamsFailWithCorruption) {
  const std::string too_long(kMaxReplyLineBytes + 1, 'x');
  for (const std::string& stream :
       std::vector<std::string>{"OK x\n", "OK 99999999999\n", "HELLO 3\n",
                                too_long, too_long + "\n",
                                "OK 1\n" + too_long + "\n"}) {
    SCOPED_TRACE(stream.substr(0, 16));
    ReplyReader reader;
    reader.Feed(stream);
    Reply got;
    Result<bool> next = reader.Next(&got);
    ASSERT_FALSE(next.ok());
    EXPECT_EQ(next.status().code(), Status::Code::kCorruption)
        << next.status().ToString();
  }
  // A line exactly at the cap is still a line.
  ReplyReader reader;
  reader.Feed("OK 1\n" + std::string(kMaxReplyLineBytes, 'x') + "\n");
  Reply got;
  Result<bool> next = reader.Next(&got);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_TRUE(next.value());
}

TEST(ProtocolTest, CommandNamesAreStable) {
  EXPECT_STREQ(CommandName(CommandKind::kRoute), "route");
  EXPECT_STREQ(CommandName(CommandKind::kEstimate), "estimate");
  EXPECT_STREQ(CommandName(CommandKind::kStats), "stats");
  EXPECT_STREQ(CommandName(CommandKind::kMetrics), "metrics");
  EXPECT_STREQ(CommandName(CommandKind::kSlowlog), "slowlog");
  EXPECT_STREQ(CommandName(CommandKind::kReload), "reload");
  EXPECT_STREQ(CommandName(CommandKind::kAdd), "add");
  EXPECT_STREQ(CommandName(CommandKind::kDrop), "drop");
  EXPECT_STREQ(CommandName(CommandKind::kUpdate), "update");
  EXPECT_STREQ(CommandName(CommandKind::kQuit), "quit");
}

}  // namespace
}  // namespace useful::service
