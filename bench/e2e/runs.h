// useful_bench's measuring modes. Each returns what it counted and
// measured; main.cc prints and stores it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "fleet.h"
#include "testbed.h"
#include "workload.h"

namespace useful::e2e {

/// The tail percentile reported and held to the latency limit. p95, not
/// p99: on the shared calibration box the host preempts a vCPU for about
/// 10 ms at a time, often enough (0.5-1% steal) that p99 lands in those
/// stalls in some runs and not in others (see README.md).
inline constexpr double kTailPct = 95.0;

struct RunArgs {
  std::uint64_t seed = 1;
  double seconds = 25;
  /// Output directory: server logs and port files go to <out>/run, the
  /// span file of a traced run to <out>/<workload>.trace.json.
  std::string out;
};

struct Outcome {
  /// Requests (and admin verbs, setup probes, replayed requests) issued.
  std::size_t attempted = 0;
  /// Of those: error replies, wrong bytes, missing replies, DEGRADED
  /// replies, and replay mismatches.
  std::size_t failed = 0;
  MetricList metrics;  // the result object's metrics
  MetricList info;     // printed for people, not part of the result object
  /// Per-segment (or per-start) values behind some of the numbers, kept in
  /// the run's stored file only.
  std::vector<std::pair<std::string, std::vector<double>>> series;
};

/// --trace 0: the end-to-end metrics with server tracing off.
Outcome RunEndToEnd(const WorkloadSpec& spec, const Testbed& tb,
                    const Binaries& bin, const RunArgs& args);

/// --trace 1: the per-layer metrics, and the span file.
Outcome RunTraced(const WorkloadSpec& spec, const Testbed& tb,
                  const Binaries& bin, const RunArgs& args);

/// The generator self-test: against hot-route's server at 250 requests/s
/// over 4 connections, p95 must stay below half the 16 ms per-connection
/// send interval. Returns the process exit code.
int SelfTest(const Testbed& tb, const Binaries& bin, const RunArgs& args);

}  // namespace useful::e2e
