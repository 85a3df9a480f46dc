// useful_bench: the end-to-end serving benchmark's load program.
//
//   useful_bench --prepare DIR
//   useful_bench --workload NAME --seed N --seconds S --trace 0|1
//                --bin DIR --testbed DIR [--out DIR]
//   useful_bench --selftest --bin DIR --testbed DIR [--out DIR]
//
// --prepare builds the testbed files once (testbed.h). A run starts the
// workload's real server processes from --bin (useful_served,
// useful_frontend), drives them from this one process (the generator
// thread plus, under churn, an admin thread; at most four connections),
// and checks every reply byte-for-byte. --trace 0 measures the end-to-end
// metrics (endtoend.cc), --trace 1 the per-layer ones (traced.cc), and
// --selftest checks the generator itself. A run prints one
// "metric workload value unit [n=samples]" line per number, writes
// <out>/<workload>/seed<N>-trace<T>.json, and ends its standard output
// with one JSON object {"correct", "attempted", "failed", "metrics"}. Any
// failure to run exits 1 without that line.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "runs.h"

namespace useful::e2e {
namespace {

struct Args {
  std::string workload;
  int trace = 0;
  std::string bin;
  std::string testbed;
  std::string prepare;
  bool selftest = false;
  RunArgs run{.seed = 1, .seconds = 25, .out = "bench-out"};
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Fail(std::string(argv[i]) + " needs a value");
      return argv[++i];
    };
    const std::string flag = argv[i];
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.run.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.run.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value().c_str());
    } else if (flag == "--bin") {
      args.bin = value();
    } else if (flag == "--testbed") {
      args.testbed = value();
    } else if (flag == "--out") {
      args.run.out = value();
    } else if (flag == "--prepare") {
      args.prepare = value();
    } else if (flag == "--selftest") {
      args.selftest = true;
    } else {
      Fail("unknown argument " + flag);
    }
  }
  return args;
}

std::string JsonMetrics(const MetricList& metrics, bool with_details) {
  std::string json = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    char buf[256];
    // %.17g: every digit as measured.
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"",
                  i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    json += buf;
    if (with_details) {
      json += ", \"samples\": " + std::to_string(m.samples) +
              ", \"better\": \"" + (m.higher_is_better ? "higher" : "lower") +
              '"';
    }
    json += '}';
  }
  return json + '}';
}

void Report(const WorkloadSpec& spec, const Args& args, const Outcome& out) {
  for (const MetricList* list : {&out.metrics, &out.info}) {
    for (const Metric& m : *list) {
      std::printf("%s %s %.6g %s", m.name.c_str(), spec.name, m.value,
                  m.unit.c_str());
      if (m.samples > 0) std::printf(" n=%zu", m.samples);
      std::printf("\n");
    }
  }
  const std::string head =
      std::string("{\"correct\": ") + (out.failed == 0 ? "true" : "false") +
      ", \"attempted\": " + std::to_string(out.attempted) +
      ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": ";

  // The stored copy adds sample counts, directions, the info lines, and
  // the run's identity, for compare.py.
  const std::string dir = args.run.out + "/" + spec.name;
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/seed" + std::to_string(args.run.seed) +
                           "-trace" + std::to_string(args.trace) + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Fail("cannot write " + path);
  std::string series = "{";
  for (const auto& [name, values] : out.series) {
    series += (series.size() > 1 ? ", \"" : "\"") + name + "\": [";
    for (std::size_t i = 0; i < values.size(); ++i) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%s%.17g", i == 0 ? "" : ", ",
                    values[i]);
      series += buf;
    }
    series += ']';
  }
  series += '}';
  std::fprintf(f,
               "%s%s, \"info\": %s, \"series\": %s, \"workload\": \"%s\", "
               "\"seed\": %llu, \"trace\": %d, \"seconds\": %.17g}\n",
               head.c_str(), JsonMetrics(out.metrics, true).c_str(),
               JsonMetrics(out.info, true).c_str(), series.c_str(), spec.name,
               static_cast<unsigned long long>(args.run.seed), args.trace,
               args.run.seconds);
  if (std::fclose(f) != 0) Fail("cannot write " + path);

  std::printf("%s%s}\n", head.c_str(),
              JsonMetrics(out.metrics, false).c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace useful::e2e

int main(int argc, char** argv) {
  using namespace useful::e2e;
  const Args args = ParseArgs(argc, argv);
  if (!args.prepare.empty()) {
    PrepareTestbed(args.prepare);
    return 0;
  }
  if (args.bin.empty() || args.testbed.empty()) {
    Fail("usage: useful_bench --workload NAME --seed N --seconds S "
         "--trace 0|1 --bin DIR --testbed DIR [--out DIR] | --prepare DIR "
         "| --selftest --bin DIR --testbed DIR [--out DIR]");
  }
  const Testbed tb = LoadTestbed(args.testbed);
  const Binaries bin{args.bin + "/useful_served",
                     args.bin + "/useful_frontend"};
  if (args.selftest) return SelfTest(tb, bin, args.run);

  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) Fail("unknown workload '" + args.workload + "'");
  if (args.run.seconds <= 0 || (args.trace != 0 && args.trace != 1)) {
    Fail("--seconds must be positive and --trace 0 or 1");
  }
  Report(*spec, args,
         args.trace == 1 ? RunTraced(*spec, tb, bin, args.run)
                         : RunEndToEnd(*spec, tb, bin, args.run));
  return 0;
}
