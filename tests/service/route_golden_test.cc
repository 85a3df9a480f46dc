// Golden pin of ROUTE and ESTIMATE replies over URP1 representative files:
// an in-process Service serves four seeded newsgroup engines (one triplet,
// one whose file carries the stale-max flag) and answers every registry
// estimator at thresholds 0.1/0.2/0.4 for plain and annotated queries
// (`term^w`, `-term`, `MSM k`). Each reply is rendered exactly as the wire
// carries it and must match tests/golden/route_urp1.txt byte for byte, as
// must STATS' representative_stale line. Any change to how URP1 files are
// parsed, held or scored that moves one reply byte fails here.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "corpus/newsgroup_sim.h"
#include "estimate/registry.h"
#include "ir/search_engine.h"
#include "represent/builder.h"
#include "represent/serialize.h"
#include "service/connection.h"
#include "service/service.h"
#include "util/string_util.h"

namespace useful::service {
namespace {

constexpr std::size_t kGroups = 4;

corpus::NewsgroupSimOptions SimOptions() {
  corpus::NewsgroupSimOptions opts;
  opts.num_groups = kGroups;
  opts.vocabulary_size = 3000;
  opts.topical_terms_per_group = 150;
  opts.median_doc_length = 40.0;
  return opts;
}

class RouteGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("useful_route_golden_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::filesystem::path dir_;
};

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  for (std::string_view line : SplitNonEmpty(text, "\n")) {
    lines.emplace_back(line);
  }
  return lines;
}

TEST_F(RouteGoldenTest, RepliesAreByteIdentical) {
  const corpus::NewsgroupSimulator sim(SimOptions());
  text::Analyzer analyzer;
  ServiceOptions options;
  for (std::size_t g = 0; g < kGroups; ++g) {
    const corpus::Collection& group = sim.groups()[g];
    ir::SearchEngine engine(StringPrintf("group%02zu", g), &analyzer);
    ASSERT_TRUE(engine.AddCollection(group).ok());
    ASSERT_TRUE(engine.Finalize().ok());
    auto rep = represent::BuildRepresentative(
        engine, g == 2 ? represent::RepresentativeKind::kTriplet
                       : represent::RepresentativeKind::kQuadruplet);
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    if (g == 3) rep.value().set_stale_max(true);
    std::string path = (dir_ / (engine.name() + ".rep")).string();
    ASSERT_TRUE(represent::SaveRepresentative(rep.value(), path).ok());
    options.representative_paths.push_back(path);
  }
  auto service = Service::Create(&analyzer, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  // Topical terms discriminate between groups; the top background ranks
  // occur in every group.
  const corpus::Vocabulary& vocab = sim.vocabulary();
  auto topical = [&](std::size_t g, std::size_t k) {
    return vocab.word(sim.topical_terms(g)[k]);
  };
  const std::string a = topical(0, 0), b = topical(1, 0), c = topical(2, 1);
  const std::string d = topical(3, 2), common = vocab.word(3);
  const std::vector<std::string> queries = {
      a,
      b + " " + c,
      common + " " + a + " " + d,
      a + "^2.5 " + b,
      common + " -" + c,
      a + " " + b + " " + d + " MSM 2",
      b + "^0.5 " + common + " -" + a + " MSM 1",
  };

  std::vector<std::string> transcript;
  auto run = [&](const std::string& line) {
    transcript.push_back("> " + line);
    for (std::string& reply :
         Lines(RenderReply(service.value()->Execute(line)))) {
      transcript.push_back(std::move(reply));
    }
  };
  for (const std::string& estimator : estimate::KnownEstimators()) {
    for (const char* threshold : {"0.1", "0.2", "0.4"}) {
      for (const std::string& query : queries) {
        run("ROUTE " + estimator + " " + threshold + " 0 " + query);
        run("ESTIMATE " + estimator + " " + threshold + " " + query);
      }
    }
  }
  for (const std::string& line :
       service.value()->Execute("STATS").payload) {
    if (line.rfind("representative_stale ", 0) == 0) {
      transcript.push_back(line);
    }
  }

  std::ifstream in(std::string(USEFUL_GOLDEN_DIR) + "/route_urp1.txt");
  ASSERT_TRUE(in.good()) << "missing golden file route_urp1.txt";
  std::vector<std::string> want;
  for (std::string line; std::getline(in, line);) want.push_back(line);
  std::size_t common_lines = std::min(want.size(), transcript.size());
  for (std::size_t i = 0; i < common_lines; ++i) {
    ASSERT_EQ(want[i], transcript[i]) << "route_urp1.txt line " << i + 1;
  }
  EXPECT_EQ(want.size(), transcript.size());
}

}  // namespace
}  // namespace useful::service
