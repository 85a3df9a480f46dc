// useful_corpusgen: materializes the synthetic testbed to disk — the 53
// newsgroup collections (TREC-like tagged text), the D1/D2/D3 databases,
// and the 6,234-query log — so external tooling (or a re-run with real
// data swapped in) can consume the exact experimental inputs.
//
//   useful_corpusgen <output-dir> [--groups N] [--queries N] [--seed S]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <type_traits>

#include "corpus/io.h"
#include "corpus/newsgroup_sim.h"
#include "corpus/query_log.h"
#include "util/flags.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: useful_corpusgen <output-dir> [--groups N] "
               "[--queries N] [--seed S]\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace useful;
  if (argc < 2) {
    Usage();
    return 2;
  }
  std::filesystem::path out_dir = argv[1];
  corpus::NewsgroupSimOptions sim_opts;
  corpus::QueryLogOptions query_opts;
  for (int i = 2; i < argc; ++i) {
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
    if (std::strcmp(argv[i], "--groups") == 0) {
      need_number("--groups", &sim_opts.num_groups);
    } else if (std::strcmp(argv[i], "--queries") == 0) {
      need_number("--queries", &query_opts.num_queries);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      need_number("--seed", &sim_opts.seed);
      query_opts.seed = sim_opts.seed + 1;
    } else {
      Usage();
      return 2;
    }
  }

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", out_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  std::printf("generating %zu newsgroups (seed %llu)...\n",
              sim_opts.num_groups,
              static_cast<unsigned long long>(sim_opts.seed));
  corpus::NewsgroupSimulator sim(sim_opts);

  auto save = [&](const corpus::Collection& c) {
    std::string path = (out_dir / (c.name() + ".trec")).string();
    Status s = corpus::SaveCollection(c, path);
    if (!s.ok()) {
      std::fprintf(stderr, "save %s: %s\n", path.c_str(),
                   s.ToString().c_str());
      std::exit(1);
    }
    std::printf("  %-12s %6zu docs -> %s\n", c.name().c_str(), c.size(),
                path.c_str());
  };
  for (const corpus::Collection& group : sim.groups()) save(group);
  if (sim.groups().size() >= 26) {
    save(sim.BuildD1());
    save(sim.BuildD2());
    save(sim.BuildD3());
  }

  std::vector<corpus::Query> queries =
      corpus::QueryLogGenerator(query_opts).Generate(sim);
  std::string qpath = (out_dir / "queries.tsv").string();
  if (Status s = corpus::SaveQueryLog(queries, qpath); !s.ok()) {
    std::fprintf(stderr, "save queries: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("  %zu queries -> %s\n", queries.size(), qpath.c_str());
  return 0;
}
