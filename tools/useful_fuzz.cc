// useful_fuzz: the randomized correctness harness. For each seed it
// generates a synthetic corpus, checks the inverted-index engine and the
// representative builder against the brute-force oracle, runs the
// property/invariant suite over every registered estimator, and fuzzes
// the service line protocol byte-level — against a single-process
// Service AND against the cluster front-end over fake shards whose
// replicas die and revive mid-run — all deterministically, so any
// failure is replayable from its printed seed.
//
// The generated workload uses the full annotated grammar — weighted
// (`term^2.5`), negated (`-term`), and min-should-match (`MSM k`)
// queries — so every invariant and oracle check covers the extended
// semantics, and the protocol fuzzer's templates mutate the annotations
// themselves (dangling '-', malformed weights, out-of-range k).
//
//   useful_fuzz [--seed S] [--seed-count N]
//               [--mode all|oracle|invariants|protocol]
//               [--queries N] [--protocol-iters N]
//               [--soak] [--inject-bug] [--inject-bug-negation]
//               [--workdir DIR]
//
//   useful_fuzz --seed-count 500           # the PR's acceptance run
//   useful_fuzz --soak                     # run until killed or failing
//   useful_fuzz --inject-bug               # demo: must exit nonzero with
//                                          # a shrunk off-by-one repro
//   useful_fuzz --inject-bug-negation      # demo: negation sign flip is
//                                          # caught and shrunk to -term
//
// Failures print the violated property, the shrunk repro (a <=3-term
// query or a minimal protocol line), and the exact replay command; the
// exit code is 1. A clean run prints per-mode counts and exits 0.
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "cluster/frontend.h"
#include "cluster/topology.h"
#include "estimate/registry.h"
#include "ir/search_engine.h"
#include "represent/builder.h"
#include "represent/serialize.h"
#include "service/service.h"
#include "testing/fake_shard.h"
#include "testing/injected_bug.h"
#include "testing/invariants.h"
#include "testing/oracle.h"
#include "testing/protocol_fuzzer.h"
#include "testing/synthetic.h"
#include "text/analyzer.h"
#include "util/flags.h"

namespace {

using namespace useful;

struct FuzzArgs {
  std::uint64_t seed = 1;
  std::size_t seed_count = 20;
  std::string mode = "all";
  std::size_t queries = 12;
  std::size_t protocol_iters = 100;
  bool soak = false;
  bool inject_bug = false;
  bool inject_bug_negation = false;
  std::string workdir;
};

struct Counters {
  std::size_t seeds = 0;
  std::size_t queries = 0;
  std::size_t estimator_checks = 0;
  std::size_t protocol_lines = 0;
};

int Fail(const FuzzArgs& args, std::uint64_t seed, const std::string& mode,
         const std::string& report) {
  std::fprintf(stderr, "FAIL seed=%llu mode=%s\n%s\n",
               static_cast<unsigned long long>(seed), mode.c_str(),
               report.c_str());
  std::fprintf(stderr,
               "replay: useful_fuzz --seed %llu --seed-count 1 --mode %s%s%s\n",
               static_cast<unsigned long long>(seed), mode.c_str(),
               args.inject_bug ? " --inject-bug" : "",
               args.inject_bug_negation ? " --inject-bug-negation" : "");
  return 1;
}

/// One seed's worth of checking. Returns 0 or the process exit code.
int RunSeed(const FuzzArgs& args, std::uint64_t seed, Counters& counters) {
  const bool do_oracle = args.mode == "all" || args.mode == "oracle";
  const bool do_invariants = args.mode == "all" || args.mode == "invariants";
  const bool do_protocol = args.mode == "all" || args.mode == "protocol";

  testing::SyntheticCorpusOptions corpus_options = testing::VaryForSeed(seed);
  corpus::Collection collection = testing::MakeSyntheticCollection(
      corpus_options, "fuzz" + std::to_string(seed));

  text::Analyzer analyzer;
  ir::SearchEngine engine(collection.name(), &analyzer);
  if (Status s = engine.AddCollection(collection); !s.ok()) {
    return Fail(args, seed, args.mode, "engine add: " + s.ToString());
  }
  if (Status s = engine.Finalize(); !s.ok()) {
    return Fail(args, seed, args.mode, "engine finalize: " + s.ToString());
  }

  testing::ExactOracle oracle(analyzer, collection);

  testing::SyntheticQueryOptions query_options;
  query_options.count = args.queries;
  // The workload exercises the full annotated grammar; the generator
  // guarantees every text parses (consistent per-term signs, in-range k).
  query_options.annotate = true;
  std::vector<ir::Query> queries;
  for (const std::string& text :
       testing::MakeSyntheticQueryTexts(corpus_options, query_options, seed)) {
    Result<ir::Query> q = ir::ParseAnnotatedQuery(analyzer, text);
    if (!q.ok()) {
      return Fail(args, seed, args.mode,
                  "generated query failed to parse: \"" + text +
                      "\": " + q.status().ToString());
    }
    if (!q.value().empty()) queries.push_back(std::move(q).value());
  }
  counters.queries += queries.size();

  auto quad = represent::BuildRepresentative(
      engine, represent::RepresentativeKind::kQuadruplet);
  auto trip = represent::BuildRepresentative(
      engine, represent::RepresentativeKind::kTriplet);
  if (!quad.ok() || !trip.ok()) {
    return Fail(args, seed, args.mode, "BuildRepresentative failed");
  }

  if (do_oracle) {
    if (auto f = testing::CheckEngineAgainstOracle(engine, oracle, queries)) {
      return Fail(args, seed, "oracle", f->ToString());
    }
    if (auto f = testing::CheckRepresentativeAgainstOracle(quad.value(), oracle)) {
      return Fail(args, seed, "oracle", f->ToString());
    }
    if (auto f = testing::CheckRepresentativeAgainstOracle(trip.value(), oracle)) {
      return Fail(args, seed, "oracle", f->ToString());
    }
  }

  if (do_invariants) {
    std::vector<std::string> names = estimate::KnownEstimators();
    names.push_back("subrange-k3");  // cover the parametrized family
    // (registry key, estimator): the key drives which invariants apply —
    // decorated name() strings are ambiguous (subrange vs subrange-nomax
    // differ only by a "[max]" marker).
    std::vector<std::pair<std::string,
                          std::unique_ptr<estimate::UsefulnessEstimator>>>
        estimators;
    for (const std::string& name : names) {
      auto made = estimate::MakeEstimator(name);
      if (!made.ok()) {
        return Fail(args, seed, "invariants",
                    "MakeEstimator(" + name + "): " + made.status().ToString());
      }
      estimators.emplace_back(name, std::move(made).value());
    }
    if (args.inject_bug) {
      estimators.emplace_back("subrange",
                              testing::MakeOffByOneSubrangeEstimator());
    }
    if (args.inject_bug_negation) {
      estimators.emplace_back("subrange",
                              testing::MakeNegationSignFlipEstimator());
    }

    for (const auto& [key, estimator] : estimators) {
      testing::InvariantOptions options;
      // The gGlOSS disjoint baseline double-counts across terms by
      // design; the paper discards it for exactly this reason.
      options.nodoc_upper_bound = key != "disjoint";
      // The paper's single-term guarantee needs a stored max weight and a
      // max subrange: the subrange family except -nomax (the injected
      // mutant registers under "subrange" so the guarantee hunts it).
      options.check_single_term_exact =
          key == "subrange" || key.rfind("subrange-k", 0) == 0;
      // Adaptive re-solves lambda = (T/r)/u per threshold, so doubling
      // one term's weight legitimately moves every term's truncation
      // point — NoDoc is not monotone in a single weight there.
      options.check_weight_monotone = key != "adaptive";

      for (const represent::Representative* rep :
           {&quad.value(), &trip.value()}) {
        counters.estimator_checks += queries.size();
        if (auto f = testing::CheckEstimator(*estimator, *rep, &oracle,
                                             queries, options)) {
          return Fail(args, seed, "invariants", f->ToString());
        }
      }
    }
  }

  if (do_protocol) {
    std::filesystem::path dir = args.workdir.empty()
        ? std::filesystem::temp_directory_path() /
              ("useful_fuzz_" + std::to_string(::getpid()))
        : std::filesystem::path(args.workdir);
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    std::string quad_path = (dir / "fuzz_quad.rep").string();
    std::string trip_path = (dir / "fuzz_trip.rep").string();
    // The service wants distinct engine names per representative file.
    represent::Representative trip_named = oracle.BuildRepresentative(
        "fuzzB", represent::RepresentativeKind::kTriplet);
    if (Status s = represent::SaveRepresentative(quad.value(), quad_path);
        !s.ok()) {
      return Fail(args, seed, "protocol", "save rep: " + s.ToString());
    }
    if (Status s = represent::SaveRepresentative(trip_named, trip_path);
        !s.ok()) {
      return Fail(args, seed, "protocol", "save rep: " + s.ToString());
    }

    service::ServiceOptions service_options;
    service_options.representative_paths = {quad_path, trip_path};
    auto service = service::Service::Create(&analyzer, service_options);
    if (!service.ok()) {
      return Fail(args, seed, "protocol",
                  "Service::Create: " + service.status().ToString());
    }

    testing::FuzzProtocolOptions fuzz_options;
    fuzz_options.seed = seed;
    fuzz_options.iterations = args.protocol_iters;
    fuzz_options.dictionary = estimate::KnownEstimators();
    fuzz_options.dictionary.push_back("subrange-k3");
    for (std::size_t r = 0; r < 4; ++r) {
      fuzz_options.dictionary.push_back(testing::SyntheticTerm(r));
    }
    counters.protocol_lines += fuzz_options.iterations;
    if (auto f = testing::FuzzProtocol(*service.value(), fuzz_options)) {
      return Fail(args, seed, "protocol", f->ToString());
    }

    // Same grammar through the cluster front-end: 2 shards x 2 replicas
    // of in-process fakes, with replicas dying (and reviving) mid-run.
    // Every reply must stay well-formed — failover within shard 0 first,
    // then the whole shard down (DEGRADED replies), then recovery; a
    // leaked kInternal or a torn frame anywhere fails the seed.
    service::ServiceOptions shard1_options;
    shard1_options.representative_paths = {trip_path};
    auto shard1 = service::Service::Create(&analyzer, shard1_options);
    if (!shard1.ok()) {
      return Fail(args, seed, "protocol",
                  "shard Service::Create: " + shard1.status().ToString());
    }
    service::Service* shard_services[2] = {service.value().get(),
                                           shard1.value().get()};
    std::atomic<bool> killed[2][2] = {{{false}, {false}}, {{false}, {false}}};

    auto spec = cluster::ParseClusterSpec("a:1,a:2|b:1,b:2");
    if (!spec.ok()) {
      return Fail(args, seed, "protocol",
                  "cluster spec: " + spec.status().ToString());
    }
    cluster::FrontendOptions frontend_options;
    frontend_options.probe_backoff_ms = 1;  // re-probe killed fakes eagerly
    cluster::Frontend frontend(
        std::move(spec).value(), frontend_options,
        [&](const cluster::Endpoint&, std::size_t shard, std::size_t replica) {
          return std::make_unique<testing::FakeShardBackend>(
              shard_services[shard], &killed[shard][replica]);
        });

    testing::FuzzProtocolOptions cluster_fuzz = fuzz_options;
    const std::size_t iters = cluster_fuzz.iterations;
    cluster_fuzz.on_iteration = [&](std::size_t i) {
      if (i == iters / 4) {
        killed[0][0].store(true);  // preferred replica dies -> failover
      } else if (i == iters / 2) {
        killed[0][1].store(true);  // whole shard 0 down -> DEGRADED
      } else if (i == (3 * iters) / 4) {
        killed[0][0].store(false);  // shard restarts -> recovery
        killed[0][1].store(false);
      }
    };
    counters.protocol_lines += cluster_fuzz.iterations;
    if (auto f = testing::FuzzProtocol(frontend, cluster_fuzz)) {
      return Fail(args, seed, "protocol", "[cluster] " + f->ToString());
    }

    if (args.workdir.empty()) std::filesystem::remove_all(dir, ec);
  }

  ++counters.seeds;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  FuzzArgs args;
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
      *out = useful::util::ParseFlag<std::remove_pointer_t<decltype(out)>>(
          flag, need_value(flag));
    };
    if (std::strcmp(argv[i], "--seed") == 0) {
      need_number("--seed", &args.seed);
    } else if (std::strcmp(argv[i], "--seed-count") == 0) {
      need_number("--seed-count", &args.seed_count);
    } else if (std::strcmp(argv[i], "--mode") == 0) {
      args.mode = need_value("--mode");
    } else if (std::strcmp(argv[i], "--queries") == 0) {
      need_number("--queries", &args.queries);
    } else if (std::strcmp(argv[i], "--protocol-iters") == 0) {
      need_number("--protocol-iters", &args.protocol_iters);
    } else if (std::strcmp(argv[i], "--soak") == 0) {
      args.soak = true;
    } else if (std::strcmp(argv[i], "--inject-bug") == 0) {
      args.inject_bug = true;
    } else if (std::strcmp(argv[i], "--inject-bug-negation") == 0) {
      args.inject_bug_negation = true;
    } else if (std::strcmp(argv[i], "--workdir") == 0) {
      args.workdir = need_value("--workdir");
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  if (args.mode != "all" && args.mode != "oracle" &&
      args.mode != "invariants" && args.mode != "protocol") {
    std::fprintf(stderr, "--mode must be all|oracle|invariants|protocol\n");
    return 2;
  }

  Counters counters;
  std::uint64_t seed = args.seed;
  for (std::size_t i = 0; args.soak || i < args.seed_count; ++i, ++seed) {
    if (int rc = RunSeed(args, seed, counters); rc != 0) return rc;
    if ((i + 1) % 50 == 0 || args.soak) {
      std::printf("... %zu seeds clean (last: %llu)\n", counters.seeds,
                  static_cast<unsigned long long>(seed));
      std::fflush(stdout);
    }
  }

  std::printf(
      "OK: %zu seeds, %zu queries, %zu estimator checks, %zu protocol lines "
      "-- zero oracle mismatches, zero invariant violations, zero protocol "
      "failures\n",
      counters.seeds, counters.queries, counters.estimator_checks,
      counters.protocol_lines);
  return 0;
}
