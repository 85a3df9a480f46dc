// Decomposed in-process replay: the traced run's per-layer costs, timed
// by spans in this file around calls into each module's public functions.
//
// Each replayed request goes through the serving pipeline one layer at a
// time — service::ParseRequest, ir::ParseAnnotatedQuery,
// service::QueryCache MakeKey/Get/Put, broker::Metasearcher::EstimateEngine
// on misses, a sort by broker::RankedBefore, ThresholdPolicy/TopKPolicy,
// and service::FormatScore — and the bytes it renders must equal both
// service::Service::Execute on the same line and the pool's precomputed
// reply. Around that, the replay times per-engine estimation and term
// lookup for every engine, the cluster merge of the reply split by shard,
// the churn verbs on an in-process service, and representative loading.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common.h"
#include "spans.h"
#include "testbed.h"
#include "workload.h"

namespace useful::e2e {

struct ReplayReport {
  std::size_t requests = 0;
  /// Requests whose decomposed bytes, Service::Execute bytes, and the
  /// precomputed reply were not all equal (must be 0).
  std::size_t mismatches = 0;
  /// Mean in-process Service::Execute time, µs: the layers' self times
  /// plus service.self, per request.
  double exec_mean_us = 0.0;
  MetricList metrics;
};

/// Replays `requests` requests drawn from `pool` with `seed` (after as
/// many untimed warm-up requests), recording spans into `spans`.
ReplayReport Replay(const WorkloadSpec& spec, const Testbed& tb,
                    const RequestPool& pool, std::uint64_t seed,
                    std::size_t requests, SpanLog* spans);

}  // namespace useful::e2e
