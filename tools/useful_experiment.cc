// useful_experiment: run the paper's evaluation on any collection + query
// log from disk, with any set of estimators — the general form of the
// bench_tables_* binaries, for experimenting with real corpora.
//
//   useful_experiment --db D.trec --queries q.tsv
//       [--methods subrange,adaptive,high-correlation]
//       [--thresholds 0.1,0.2,...] [--triplet] [--quantize]
//       [--threads N]   (default 0: the CPUs this process may run on;
//                        1 = serial)
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "corpus/io.h"
#include "estimate/registry.h"
#include "eval/experiment.h"
#include "eval/table.h"
#include "ir/search_engine.h"
#include "represent/builder.h"
#include "represent/quantized.h"
#include "util/flags.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace {

void Usage() {
  std::fprintf(
      stderr,
      "usage: useful_experiment --db <collection.trec> --queries <log.tsv>\n"
      "         [--methods m1,m2,...] [--thresholds t1,t2,...]\n"
      "         [--triplet] [--quantize] [--threads N]\n"
      "--threads: query-parallel evaluation; default 0, one thread per CPU\n"
      "           this process may run on; 1 preserves the serial path\n"
      "           (tables identical either way)\n"
      "methods: subrange (default), subrange-nomax, subrange-k<N>, basic,\n"
      "         adaptive, high-correlation, disjoint\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace useful;
  std::string db_path, query_path;
  std::string methods_arg = "high-correlation,adaptive,subrange";
  std::string thresholds_arg = "0.1,0.2,0.3,0.4,0.5,0.6";
  bool triplet = false, quantize = false;
  std::size_t threads = 0;  // 0: the CPUs this process may run on

  for (int i = 1; i < argc; ++i) {
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--db") == 0) {
      db_path = need_value("--db");
    } else if (std::strcmp(argv[i], "--queries") == 0) {
      query_path = need_value("--queries");
    } else if (std::strcmp(argv[i], "--methods") == 0) {
      methods_arg = need_value("--methods");
    } else if (std::strcmp(argv[i], "--thresholds") == 0) {
      thresholds_arg = need_value("--thresholds");
    } else if (std::strcmp(argv[i], "--triplet") == 0) {
      triplet = true;
    } else if (std::strcmp(argv[i], "--quantize") == 0) {
      quantize = true;
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      threads =
          util::ParseFlag<std::size_t>("--threads", need_value("--threads"));
    } else {
      Usage();
      return 2;
    }
  }
  if (db_path.empty() || query_path.empty()) {
    Usage();
    return 2;
  }

  auto collection = corpus::LoadCollection(db_path);
  if (!collection.ok()) {
    std::fprintf(stderr, "db: %s\n", collection.status().ToString().c_str());
    return 1;
  }
  auto queries = corpus::LoadQueryLog(query_path);
  if (!queries.ok()) {
    std::fprintf(stderr, "queries: %s\n",
                 queries.status().ToString().c_str());
    return 1;
  }

  text::Analyzer analyzer;
  ir::SearchEngine engine(collection.value().name(), &analyzer);
  if (!engine.AddCollection(collection.value()).ok() ||
      !engine.Finalize().ok()) {
    std::fprintf(stderr, "indexing failed\n");
    return 1;
  }
  auto rep = represent::BuildRepresentative(
      engine, triplet ? represent::RepresentativeKind::kTriplet
                      : represent::RepresentativeKind::kQuadruplet);
  if (!rep.ok()) {
    std::fprintf(stderr, "rep: %s\n", rep.status().ToString().c_str());
    return 1;
  }
  represent::Representative working = std::move(rep).value();
  if (quantize) {
    auto q = represent::QuantizeRepresentative(working);
    if (!q.ok()) {
      std::fprintf(stderr, "quantize: %s\n", q.status().ToString().c_str());
      return 1;
    }
    working = std::move(q).value().representative;
  }

  std::vector<std::unique_ptr<estimate::UsefulnessEstimator>> estimators;
  std::vector<eval::MethodUnderTest> methods;
  for (std::string_view name : SplitNonEmpty(methods_arg, ",")) {
    auto est = estimate::MakeEstimator(std::string(name));
    if (!est.ok()) {
      std::fprintf(stderr, "%s\nregistered estimators: %s (plus the "
                   "subrange-k<N> pattern)\n",
                   est.status().ToString().c_str(),
                   Join(estimate::KnownEstimators(), ", ").c_str());
      return 2;
    }
    estimators.push_back(std::move(est).value());
    methods.push_back(eval::MethodUnderTest{estimators.back().get(),
                                            &working, std::string(name)});
  }

  eval::ExperimentConfig config;
  config.thresholds.clear();
  for (std::string_view t : SplitNonEmpty(thresholds_arg, ",")) {
    config.thresholds.push_back(util::ParseDoubleFlag("--thresholds", t));
  }
  if (config.thresholds.empty()) {
    std::fprintf(stderr, "no thresholds\n");
    return 2;
  }
  config.threads = util::ThreadPool::ResolveThreads(threads);

  std::printf("db=%s (%zu docs, %zu terms)  queries=%zu  rep=%s%s  "
              "threads=%zu\n\n",
              engine.name().c_str(), engine.num_docs(), engine.num_terms(),
              queries.value().size(), triplet ? "triplet" : "quadruplet",
              quantize ? "+1byte" : "", config.threads);
  auto rows = eval::RunExperiment(engine, queries.value(), methods, config);
  std::printf("%s\n%s", eval::RenderMatchTable(rows).c_str(),
              eval::RenderErrorTable(rows).c_str());
  return 0;
}
