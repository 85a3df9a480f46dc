#include "testing/protocol_fuzzer.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "ir/search_engine.h"
#include "represent/builder.h"
#include "represent/serialize.h"
#include "service/protocol.h"
#include "util/status.h"

namespace useful::testing {
namespace {

TEST(GenerateFuzzLineTest, DeterministicAndNewlineFree) {
  std::vector<std::string> dictionary = {"subrange", "zq0x"};
  for (std::size_t i = 0; i < 500; ++i) {
    std::string a = GenerateFuzzLine(9, i, dictionary);
    std::string b = GenerateFuzzLine(9, i, dictionary);
    EXPECT_EQ(a, b) << "iteration " << i;
    EXPECT_EQ(a.find('\n'), std::string::npos) << "iteration " << i;
  }
}

TEST(GenerateFuzzLineTest, CoversControlBytesAndValidCommands) {
  std::vector<std::string> dictionary = {"subrange"};
  bool saw_control = false, saw_route = false, saw_nul = false;
  for (std::size_t i = 0; i < 2000; ++i) {
    std::string line = GenerateFuzzLine(1, i, dictionary);
    for (unsigned char c : line) {
      if (c < 0x20 && c != '\t') saw_control = true;
      if (c == '\0') saw_nul = true;
    }
    if (line.rfind("ROUTE ", 0) == 0) saw_route = true;
  }
  EXPECT_TRUE(saw_control);
  EXPECT_TRUE(saw_nul);
  EXPECT_TRUE(saw_route);
}

TEST(GenerateFuzzLineTest, CoversObservabilityVerbs) {
  std::vector<std::string> dictionary = {"subrange"};
  bool saw_metrics = false, saw_slowlog_count = false;
  for (std::size_t i = 0; i < 4000; ++i) {
    std::string line = GenerateFuzzLine(7, i, dictionary);
    if (line.rfind("METRICS", 0) == 0) saw_metrics = true;
    if (line.rfind("SLOWLOG ", 0) == 0) saw_slowlog_count = true;
  }
  EXPECT_TRUE(saw_metrics);
  EXPECT_TRUE(saw_slowlog_count);
}

TEST(EscapeLineTest, EscapesNonPrintableBytes) {
  EXPECT_EQ(EscapeLine("abc"), "\"abc\"");
  EXPECT_EQ(EscapeLine(std::string_view("a\0b", 3)), "\"a\\x00b\"");
  EXPECT_EQ(EscapeLine("say \"hi\""), "\"say \\\"hi\\\"\"");
  EXPECT_EQ(EscapeLine("\xff"), "\"\\xff\"");
}

TEST(ValidateReplyTest, AcceptsWellFormedOkAndErr) {
  service::Reply ok;
  ok.status = Status::OK();
  ok.payload = {"sports 2 0.5"};
  EXPECT_FALSE(ValidateReply("ESTIMATE subrange 0.2 zq0x", ok).has_value());

  service::Reply err;
  err.status = Status::InvalidArgument("bad threshold: x");
  EXPECT_FALSE(ValidateReply("ESTIMATE subrange x", err).has_value());
}

TEST(ValidateReplyTest, FlagsFramingBytesInPayload) {
  service::Reply reply;
  reply.status = Status::OK();
  reply.payload = {"sports 2\n0.5"};
  auto reason = ValidateReply("STATS", reply);
  ASSERT_TRUE(reason.has_value());
  EXPECT_NE(reason->find("framing"), std::string::npos);
}

TEST(ValidateReplyTest, FlagsInternalErrors) {
  service::Reply reply;
  reply.status = Status::Internal("boom");
  auto reason = ValidateReply("STATS", reply);
  ASSERT_TRUE(reason.has_value());
  EXPECT_NE(reason->find("internal"), std::string::npos);
}

TEST(ValidateReplyTest, FlagsSpuriousConnectionClose) {
  service::Reply reply;
  reply.status = Status::OK();
  reply.close_connection = true;
  auto reason = ValidateReply("STATS", reply);
  ASSERT_TRUE(reason.has_value());
  EXPECT_NE(reason->find("non-QUIT"), std::string::npos);

  reply.shutdown_server = true;
  EXPECT_FALSE(ValidateReply("QUIT", reply).has_value());
}

TEST(ValidateReplyTest, ChecksMetricsExpositionLines) {
  service::Reply reply;
  reply.status = Status::OK();
  reply.payload = {"# HELP useful_requests_total Total requests.",
                   "# TYPE useful_requests_total counter",
                   "useful_requests_total 42",
                   "useful_command_latency_seconds_bucket{le=\"0.1\"} 3",
                   "useful_engines 0.25"};
  EXPECT_FALSE(ValidateReply("METRICS", reply).has_value());

  reply.payload.push_back("useful_bogus not-a-number");
  auto reason = ValidateReply("METRICS", reply);
  ASSERT_TRUE(reason.has_value());
  EXPECT_NE(reason->find("metrics"), std::string::npos);
}

TEST(ValidateReplyTest, ChecksSlowlogLines) {
  service::Reply reply;
  reply.status = Status::OK();
  reply.payload = {
      "total_us=140 seq=1 cache_hit=0 engines=2 estimator=subrange "
      "threshold=0.2 stages=parse:3,write:40 query=fox dog"};
  EXPECT_FALSE(ValidateReply("SLOWLOG", reply).has_value());
  EXPECT_FALSE(ValidateReply("SLOWLOG 5", reply).has_value());

  reply.payload = {"surprise line"};
  auto reason = ValidateReply("SLOWLOG", reply);
  ASSERT_TRUE(reason.has_value());
  EXPECT_NE(reason->find("slowlog"), std::string::npos);
}

TEST(ValidateReplyTest, FlagsMalformedSelectionLines) {
  service::Reply reply;
  reply.status = Status::OK();
  reply.payload = {"sports 2"};  // missing the AvgSim column
  auto reason = ValidateReply("ESTIMATE subrange 0.2 zq0x", reply);
  ASSERT_TRUE(reason.has_value());
  EXPECT_NE(reason->find("selection"), std::string::npos);
}

TEST(ShrinkLineTest, DropsTokensThenBytes) {
  auto has_nul = [](const std::string& line) {
    return line.find('\0') != std::string::npos;
  };
  std::string line = "ROUTE subrange 0.2 zq";
  line += '\0';
  line += "x dog";
  std::string shrunk = ShrinkLine(line, has_nul);
  ASSERT_TRUE(has_nul(shrunk));
  EXPECT_EQ(shrunk.size(), 1u);
}

class ProtocolFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("useful_fuzz_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
    std::filesystem::create_directories(dir_);
    ir::SearchEngine engine("fuzzdb", &analyzer_);
    ASSERT_TRUE(engine.Add({"d0", "zq0x zq1x zq2x"}).ok());
    ASSERT_TRUE(engine.Add({"d1", "zq0x zq0x zq3x"}).ok());
    ASSERT_TRUE(engine.Finalize().ok());
    std::string path = (dir_ / "fuzzdb.rep").string();
    ASSERT_TRUE(represent::SaveRepresentative(
                    represent::BuildRepresentative(engine).value(), path)
                    .ok());
    service::ServiceOptions options;
    options.representative_paths = {path};
    auto service = service::Service::Create(&analyzer_, options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    service_ = std::move(service).value();
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  text::Analyzer analyzer_;
  std::filesystem::path dir_;
  std::unique_ptr<service::Service> service_;
};

TEST_F(ProtocolFuzzTest, BoundedRunIsCleanAgainstRealService) {
  FuzzProtocolOptions options;
  options.seed = 42;
  options.iterations = 600;
  options.dictionary = {"subrange", "basic", "zq0x", "zq1x"};
  auto failure = FuzzProtocol(*service_, options);
  EXPECT_FALSE(failure.has_value()) << failure->ToString();
}

}  // namespace
}  // namespace useful::testing
