// useful_route: the broker side. Loads representative files, reads queries
// from stdin (one per line), and prints the engines each query should be
// routed to under a chosen estimator and threshold — without touching any
// document data, exactly as the paper's metasearch engine operates.
//
//   useful_route [--estimator NAME] [--threshold T] [--topk K] <rep>...
//   echo "fox dog" | useful_route --threshold 0.2 a.rep b.rep
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "broker/metasearcher.h"
#include "broker/selection_policy.h"
#include "estimate/registry.h"
#include "represent/term_table.h"
#include "util/flags.h"
#include "util/string_util.h"

int main(int argc, char** argv) {
  using namespace useful;
  std::string estimator_name = "subrange";
  double threshold = 0.2;
  std::size_t topk = 0;  // 0: paper rule only
  std::vector<std::string> rep_paths;

  for (int i = 1; i < argc; ++i) {
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    // Parses the flag's value strictly into `*out`, within its type's range.
    auto need_number = [&](const char* flag, auto* out) {
      *out = util::ParseFlag<std::remove_pointer_t<decltype(out)>>(
          flag, need_value(flag));
    };
    if (std::strcmp(argv[i], "--estimator") == 0) {
      estimator_name = need_value("--estimator");
    } else if (std::strcmp(argv[i], "--threshold") == 0) {
      threshold =
          util::ParseDoubleFlag("--threshold", need_value("--threshold"));
    } else if (std::strcmp(argv[i], "--topk") == 0) {
      need_number("--topk", &topk);
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    } else {
      rep_paths.push_back(argv[i]);
    }
  }
  if (rep_paths.empty()) {
    std::fprintf(stderr,
                 "usage: useful_route [--estimator NAME] [--threshold T] "
                 "[--topk K] <rep-file>...\n");
    return 2;
  }

  auto estimator = estimate::MakeEstimator(estimator_name);
  if (!estimator.ok()) {
    std::fprintf(stderr, "%s\nregistered estimators: %s (plus the "
                 "subrange-k<N> pattern)\n",
                 estimator.status().ToString().c_str(),
                 Join(estimate::KnownEstimators(), ", ").c_str());
    return 2;
  }

  text::Analyzer analyzer;
  broker::Metasearcher broker(&analyzer);
  for (const std::string& path : rep_paths) {
    auto table = represent::TermTable::Load(path);
    if (!table.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   table.status().ToString().c_str());
      return 1;
    }
    std::printf("loaded %s: engine \"%s\", %zu terms, n=%zu\n", path.c_str(),
                table.value().engine_name().c_str(), table.value().num_terms(),
                table.value().num_docs());
    if (Status s = broker.RegisterTable(
            std::make_shared<const represent::TermTable>(
                std::move(table).value()));
        !s.ok()) {
      std::fprintf(stderr, "register: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  std::printf("routing with estimator=%s threshold=%.3f%s\n\n",
              estimator_name.c_str(), threshold,
              topk > 0 ? " (top-k capped)" : "");

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    ir::Query q = ir::ParseQuery(analyzer, line);
    if (q.empty()) {
      std::printf("%s -> (no content terms)\n", line.c_str());
      continue;
    }
    auto ranked = broker.RankEngines(q, threshold, *estimator.value());
    std::vector<broker::EngineSelection> selected;
    if (topk > 0) {
      selected = broker::TopKPolicy(topk).Apply(std::move(ranked));
    } else {
      selected = broker::ThresholdPolicy().Apply(std::move(ranked));
    }
    std::printf("%s ->", line.c_str());
    if (selected.empty()) std::printf(" (no useful engine)");
    for (const broker::EngineSelection& sel : selected) {
      std::printf(" %s(NoDoc~%.1f,AvgSim~%.3f)", sel.engine.c_str(),
                  sel.estimate.no_doc, sel.estimate.avg_sim);
    }
    std::printf("\n");
  }
  return 0;
}
