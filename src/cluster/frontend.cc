#include "cluster/frontend.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iterator>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <utility>

#include "cluster/merge.h"
#include "cluster/shard_client.h"
#include "service/protocol.h"
#include "service/query_cache.h"
#include "util/clock.h"
#include "util/flags.h"
#include "util/string_util.h"

namespace useful::cluster {

namespace {

using service::CommandKind;
using service::Reply;
using service::Request;
using util::MicrosSince;

std::int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The "key value" lines of a downstream payload (STATS or an admin
/// verb's reply) whose value is an unsigned integer, in order.
std::vector<std::pair<std::string, std::uint64_t>> ParseKeyValues(
    const std::vector<std::string>& payload) {
  std::vector<std::pair<std::string, std::uint64_t>> pairs;
  for (const std::string& line : payload) {
    std::vector<std::string_view> tokens = SplitNonEmpty(line, " \t");
    if (tokens.size() != 2) continue;
    const std::optional<std::uint64_t> value =
        util::ParseUnsigned(tokens[1], UINT64_MAX);
    if (value.has_value()) pairs.emplace_back(std::string(tokens[0]), *value);
  }
  return pairs;
}

/// The engine count key of STATS and of the admin verbs' replies.
constexpr char kEnginesKey[] = "engines";

/// Cap on an ejected replica's doubling re-probe delay.
constexpr int kMaxProbeBackoffMs = 8'000;

using enum service::MetricKind;
using enum service::Aggregation;

enum ClusterSource : int {
  kShards,
  kReplicas,
  kStaleShards,
  kLiveReplicas,  // per shard
  kDegradedReplies,
  kRerouted,
  kShardErrors,
  kRoundtrip,           // per shard
  kDownstreamRequests,  // per shard
  kDownstreamErrors,    // per shard
};

/// The front-end's own health metrics, rendered after its service::Stats
/// rows. No front-end fans out to another, so none of them aggregates.
constexpr service::MetricRow kClusterRows[] = {
    {"cluster_shards", "useful_cluster_shards", kGauge, kNone, kShards,
     "Shards in the cluster spec."},
    {"cluster_replicas", nullptr, kGauge, kNone, kReplicas, nullptr},
    {"stale_shards", "useful_cluster_stale_shards", kGauge, kNone,
     kStaleShards, "Shards whose last fan-out found no live replica."},
    {"shard%s_live_replicas", "useful_cluster_live_replicas", kGauge, kNone,
     kLiveReplicas, "Replicas currently eligible for routing, per shard.",
     "shard"},
    {"degraded_replies", "useful_cluster_degraded_replies_total", kCounter,
     kNone, kDegradedReplies,
     "Replies served with one or more shards missing."},
    {"rerouted", "useful_cluster_rerouted_total", kCounter, kNone, kRerouted,
     "Shard legs that failed over to another replica."},
    {"shard_errors", "useful_cluster_shard_errors_total", kCounter, kNone,
     kShardErrors, "Replica transport failures observed by the front-end."},
    {nullptr, "useful_shard_roundtrip_seconds", kHistogram, kNone,
     kRoundtrip,
     "Round trip of each shard's leg of a fan-out, from the send to the "
     "replica that answered until its reply is read.",
     "shard"},
    {nullptr, "useful_cluster_downstream_requests_total", kGauge, kNone,
     kDownstreamRequests,
     "requests_total reported by each shard at this scrape.", "shard"},
    {nullptr, "useful_cluster_downstream_errors_total", kGauge, kNone,
     kDownstreamErrors, "errors_total reported by each shard at this scrape.",
     "shard"},
};

}  // namespace

/// One STATS fan-out: the per-shard request/error totals and the agg_
/// values of every declared downstream key (std::map keeps the agg_
/// lines in a deterministic order).
struct Frontend::StatsFan {
  std::map<std::string, std::uint64_t> agg;
  std::uint64_t engines = 0;
  std::vector<std::uint64_t> requests;
  std::vector<std::uint64_t> errors;
  std::size_t answered = 0;
};

Frontend::Frontend(ClusterSpec spec, FrontendOptions options,
                   BackendFactory factory)
    : spec_(std::move(spec)),
      options_(std::move(options)),
      factory_(std::move(factory)) {
  if (factory_ == nullptr) {
    factory_ = [tcp = options_.tcp](const Endpoint& endpoint, std::size_t,
                                    std::size_t) {
      return std::make_unique<TcpShardBackend>(endpoint, tcp);
    };
  }
  stats_.sampler()->set_rate(options_.trace_sample_rate);
  stats_.slowlog()->Reset(options_.slowlog_size);
  shards_.reserve(spec_.shards.size());
  for (std::size_t s = 0; s < spec_.shards.size(); ++s) {
    auto shard = std::make_unique<Shard>();
    shard->replicas.reserve(spec_.shards[s].replicas.size());
    for (std::size_t r = 0; r < spec_.shards[s].replicas.size(); ++r) {
      auto replica = std::make_unique<Replica>();
      replica->endpoint = spec_.shards[s].replicas[r];
      shard->replicas.push_back(std::move(replica));
    }
    shards_.push_back(std::move(shard));
  }
}

Frontend::~Frontend() = default;

bool Frontend::ReplicaLive(const Replica& r) const {
  if (r.consecutive_failures.load(std::memory_order_relaxed) <
      options_.eject_failures) {
    return true;
  }
  return NowMs() >= r.retry_at_ms.load(std::memory_order_relaxed);
}

void Frontend::OnReplicaFailure(Replica* r) {
  shard_errors_.fetch_add(1, std::memory_order_relaxed);
  int failures =
      r->consecutive_failures.fetch_add(1, std::memory_order_relaxed) + 1;
  if (failures < options_.eject_failures) return;
  int backoff = r->backoff_ms.load(std::memory_order_relaxed);
  backoff = backoff == 0 ? options_.probe_backoff_ms
                         : std::min(backoff * 2, kMaxProbeBackoffMs);
  r->backoff_ms.store(backoff, std::memory_order_relaxed);
  r->retry_at_ms.store(NowMs() + backoff, std::memory_order_relaxed);
}

void Frontend::SendLeg(const std::string& line, Leg* leg) {
  Shard& s = *shards_[leg->shard];
  while (leg->tried < leg->candidates.size()) {
    std::size_t index = leg->candidates[leg->tried++];
    Replica* replica = s.replicas[index].get();
    {
      std::lock_guard<std::mutex> lock(replica->idle_mu);
      if (!replica->idle.empty()) {
        leg->conn = std::move(replica->idle.back());
        replica->idle.pop_back();
      }
    }
    if (leg->conn == nullptr) {
      leg->conn = factory_(replica->endpoint, leg->shard, index);
    }
    leg->sent = std::chrono::steady_clock::now();
    if (leg->conn->Send(line).ok()) return;
    leg->conn.reset();
    OnReplicaFailure(replica);
  }
}

void Frontend::ReceiveLeg(const std::string& line, Leg* leg) {
  while (leg->conn != nullptr) {
    Replica* replica =
        shards_[leg->shard]->replicas[leg->candidates[leg->tried - 1]].get();
    if (leg->conn->Receive(&leg->reply).ok()) {
      leg->roundtrip_us = MicrosSince(leg->sent);
      replica->consecutive_failures.store(0, std::memory_order_relaxed);
      replica->backoff_ms.store(0, std::memory_order_relaxed);
      replica->retry_at_ms.store(0, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(replica->idle_mu);
      replica->idle.push_back(std::move(leg->conn));
      leg->reached = true;
      return;
    }
    leg->conn.reset();
    OnReplicaFailure(replica);
    // Fail over at once: no lock is held, and requests are idempotent
    // reads, so re-sending the whole line to the next candidate is safe.
    SendLeg(line, leg);
  }
}

std::vector<Frontend::Leg> Frontend::FanOut(const std::string& line) {
  std::vector<Leg> legs(shards_.size());
  // Scatter: send on one replica per shard. Candidate order: live
  // replicas by preference, then ejected ones — an all-ejected shard
  // still gets probed, so a restarted shard recovers on the next request
  // instead of waiting out its backoff.
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const auto& replicas = shards_[i]->replicas;
    Leg& leg = legs[i];
    leg.shard = i;
    leg.candidates.resize(replicas.size());
    std::iota(leg.candidates.begin(), leg.candidates.end(), 0);
    std::stable_partition(
        leg.candidates.begin(), leg.candidates.end(),
        [&](std::size_t r) { return ReplicaLive(*replicas[r]); });
    SendLeg(line, &leg);
  }
  // Gather: receive each shard's reply in turn.
  for (Leg& leg : legs) ReceiveLeg(line, &leg);

  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (legs[i].reached) shards_[i]->roundtrip.Record(legs[i].roundtrip_us);
    shards_[i]->down.store(!legs[i].reached, std::memory_order_relaxed);
    if (legs[i].reached && legs[i].tried > 1) {
      rerouted_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return legs;
}

std::size_t Frontend::stale_shards() const {
  std::size_t stale = 0;
  for (const auto& shard : shards_) {
    if (shard->down.load(std::memory_order_relaxed)) ++stale;
  }
  return stale;
}

Reply Frontend::Execute(std::string_view line, obs::Trace* trace) {
  auto start = std::chrono::steady_clock::now();
  Result<Request> parsed = [&] {
    obs::Trace::Span span = obs::Trace::StartSpan(trace, obs::Stage::kParse);
    return service::ParseRequest(line);
  }();
  if (!parsed.ok()) {
    stats_.RecordParseError();
    Reply reply;
    reply.status = parsed.status();
    return reply;
  }
  const Request& request = parsed.value();

  Reply reply;
  switch (request.kind) {
    case CommandKind::kRoute:
    case CommandKind::kEstimate:
      reply = DoRank(request, trace);
      break;
    case CommandKind::kStats:
      reply = DoStats();
      break;
    case CommandKind::kMetrics:
      reply = DoMetrics();
      break;
    case CommandKind::kSlowlog:
      reply = DoSlowlog(request);
      break;
    case CommandKind::kReload:
      reply = DoAdminFan("RELOAD", nullptr, /*tolerate_not_found=*/false);
      break;
    case CommandKind::kAdd:
      reply = DoAdminFan("ADD " + request.argument, "added",
                         /*tolerate_not_found=*/false);
      break;
    case CommandKind::kDrop:
      reply = DoAdminFan("DROP " + request.argument, "dropped",
                         /*tolerate_not_found=*/true);
      break;
    case CommandKind::kUpdate:
      reply = DoAdminFan("UPDATE " + request.argument, "updated",
                         /*tolerate_not_found=*/false);
      break;
    case CommandKind::kQuit:
      // Shuts down the front-end only; the shards it fronts are other
      // processes' lifecycles.
      reply.close_connection = true;
      reply.shutdown_server = true;
      break;
    case CommandKind::kCount_:
      reply.status = Status::InvalidArgument("bad command kind");
      break;
  }
  if (reply.degraded) {
    degraded_replies_.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t micros = MicrosSince(start);
  stats_.RecordCommand(request.kind, micros, reply.status.ok());
  trace->SetTotalMicros(micros);
  return reply;
}

Reply Frontend::DoRank(const Request& request, obs::Trace* trace) {
  Reply reply;
  trace->SetQuery(request.query_text);
  trace->SetEstimator(request.estimator);
  trace->SetThreshold(request.threshold);

  // Downstream, ROUTE drops the top-k cap (each shard applies only the
  // paper's threshold rule to its slice); the global cap applies after
  // the merge. %.17g keeps the forwarded threshold bit-identical to the
  // one this request parsed.
  const bool route = request.kind == CommandKind::kRoute;
  std::string downstream = (route ? "ROUTE " : "ESTIMATE ") +
                           request.estimator + ' ' +
                           service::FormatScore(request.threshold) +
                           (route ? " 0 " : " ") + request.query_text;

  std::vector<Leg> legs;
  {
    obs::Trace::Span span =
        obs::Trace::StartSpan(trace, obs::Stage::kFanout);
    legs = FanOut(downstream);
  }

  // A downstream protocol error (bad estimator, empty query, ...) is the
  // same error every shard would produce — pass the first one through.
  for (const Leg& leg : legs) {
    if (leg.reached && !leg.reply.status.ok()) {
      reply.status = leg.reply.status;
      return reply;
    }
  }

  std::vector<RankedLine> merged;
  std::size_t shards_answered = 0;
  bool downstream_degraded = false;
  for (const Leg& leg : legs) {
    if (!leg.reached) continue;
    std::vector<RankedLine> parsed_lines;
    Status st = ParseRankingPayload(leg.reply.payload, &parsed_lines);
    if (!st.ok()) {
      // A framed but garbled payload: treat the shard as lost for this
      // request rather than surfacing a corruption the client can't act
      // on — its engines are simply missing (degraded).
      shard_errors_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    ++shards_answered;
    downstream_degraded |= leg.reply.degraded;
    merged.insert(merged.end(),
                  std::make_move_iterator(parsed_lines.begin()),
                  std::make_move_iterator(parsed_lines.end()));
  }
  if (shards_answered == 0) {
    reply.status = Status::Unavailable("no shard reachable");
    return reply;
  }

  {
    obs::Trace::Span span = obs::Trace::StartSpan(trace, obs::Stage::kRank);
    SortRanking(&merged);
  }
  if (route && request.topk > 0 && merged.size() > request.topk) {
    merged.resize(request.topk);
  }
  trace->SetEnginesSelected(merged.size());

  obs::Trace::Span span =
      obs::Trace::StartSpan(trace, obs::Stage::kSerialize);
  reply.payload.reserve(merged.size());
  for (const RankedLine& ranked_line : merged) {
    reply.payload.push_back(FormatRankedLine(ranked_line));
  }
  reply.degraded =
      shards_answered < shards_.size() || downstream_degraded;
  return reply;
}

Frontend::StatsFan Frontend::FanStats() {
  std::vector<Leg> legs = FanOut("STATS");
  StatsFan fan;
  fan.requests.resize(shards_.size());
  fan.errors.resize(shards_.size());
  const std::string_view requests_key =
      service::Stats::KeyOf(service::Stats::kRequests);
  const std::string_view errors_key =
      service::Stats::KeyOf(service::Stats::kErrors);
  for (std::size_t i = 0; i < legs.size(); ++i) {
    if (!legs[i].reached || !legs[i].reply.status.ok()) continue;
    ++fan.answered;
    for (const auto& [key, value] : ParseKeyValues(legs[i].reply.payload)) {
      if (key == requests_key) fan.requests[i] = value;
      if (key == errors_key) fan.errors[i] = value;
      // A key the service table does not declare is not aggregated.
      std::optional<service::Aggregation> agg =
          service::Stats::AggregationOf(key);
      if (agg == kSum) fan.agg[key] += value;
      if (agg == kMax) fan.agg[key] = std::max(fan.agg[key], value);
    }
  }
  auto engines = fan.agg.find(kEnginesKey);
  if (engines != fan.agg.end()) fan.engines = engines->second;
  return fan;
}

service::MetricReader Frontend::ClusterReader(const StatsFan& fan) const {
  return [this, &fan](int source) {
    auto one = [](std::uint64_t value) {
      return std::vector<service::MetricSeries>{{"", value}};
    };
    switch (source) {
      case kShards: return one(shards_.size());
      case kReplicas: return one(spec_.num_replicas());
      case kStaleShards: return one(stale_shards());
      case kDegradedReplies: return one(degraded_replies());
      case kRerouted: return one(rerouted());
      case kShardErrors: return one(shard_errors());
    }
    std::vector<service::MetricSeries> series(shards_.size());
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      series[i].label = std::to_string(i);
      if (source == kLiveReplicas) {
        for (const auto& replica : shards_[i]->replicas) {
          if (ReplicaLive(*replica)) ++series[i].value;
        }
      } else if (source == kRoundtrip) {
        series[i].histogram = &shards_[i]->roundtrip;
      } else {
        series[i].value = source == kDownstreamRequests ? fan.requests[i]
                                                        : fan.errors[i];
      }
    }
    return series;
  };
}

std::span<const service::MetricRow> Frontend::MetricTable() {
  return kClusterRows;
}

Reply Frontend::DoStats() {
  StatsFan fan = FanStats();
  Reply reply;
  reply.payload =
      stats_.Render(service::QueryCache::Counters{}, fan.engines);
  for (std::string& line :
       service::RenderStatsRows(kClusterRows, ClusterReader(fan))) {
    reply.payload.push_back(std::move(line));
  }
  for (const auto& [key, value] : fan.agg) {
    reply.payload.push_back("agg_" + key + ' ' + std::to_string(value));
  }
  reply.degraded = fan.answered < shards_.size();
  return reply;
}

Reply Frontend::DoMetrics() {
  // Sample downstream totals by fanning the cheap key-value STATS, not
  // METRICS: re-exposing another process's Prometheus series verbatim
  // would collide with this process's own.
  StatsFan fan = FanStats();
  Reply reply;
  reply.payload =
      stats_.RenderMetrics(service::QueryCache::Counters{}, fan.engines);
  for (std::string& line :
       service::RenderMetricsRows(kClusterRows, ClusterReader(fan))) {
    reply.payload.push_back(std::move(line));
  }
  reply.degraded = fan.answered < shards_.size();
  return reply;
}

Reply Frontend::DoAdminFan(const std::string& line, const char* count_key,
                           bool tolerate_not_found) {
  Reply reply;
  // Every replica holds its own snapshot, so the snapshot-mutating verbs
  // fan to ALL of them, not one per shard. A shard where no replica
  // applied the verb fails the whole command — otherwise a later
  // failover could silently time-travel to a pre-mutation snapshot.
  std::uint64_t engines = 0;
  std::uint64_t counted = 0;
  bool any_replica_failed = false;
  bool any_shard_not_found = false;
  Status not_found;  // the first NotFound a replica answered
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    std::size_t successes = 0;
    std::size_t not_founds = 0;
    Status first_error;
    std::uint64_t shard_engines = 0;
    std::uint64_t shard_count = 0;
    for (std::size_t r = 0; r < shards_[s]->replicas.size(); ++r) {
      Leg leg;
      leg.shard = s;
      leg.candidates = {r};
      SendLeg(line, &leg);
      ReceiveLeg(line, &leg);
      if (!leg.reached) {
        any_replica_failed = true;
        continue;
      }
      const Status& status = leg.reply.status;
      if (!status.ok()) {
        if (tolerate_not_found && status.code() == Status::Code::kNotFound) {
          // DROP on a shard that doesn't own the engine: a correct "not
          // mine", not a failure.
          ++not_founds;
          if (not_found.ok()) not_found = status;
          continue;
        }
        // The replica is alive but the verb failed (e.g. a bad rep
        // file); remember the error without ejecting the replica.
        if (first_error.ok()) first_error = status;
        any_replica_failed = true;
        continue;
      }
      ++successes;
      // "engines <n>" / "<count_key> <k>" — every replica of a shard
      // reports the same slice, so last-wins within the shard is fine.
      for (const auto& [key, value] : ParseKeyValues(leg.reply.payload)) {
        if (key == kEnginesKey) shard_engines = value;
        if (count_key != nullptr && key == count_key) shard_count = value;
      }
    }
    shards_[s]->down.store(successes == 0 && not_founds == 0,
                           std::memory_order_relaxed);
    if (successes == 0 && not_founds == 0) {
      reply.status =
          first_error.ok()
              ? Status::Unavailable(StringPrintf(
                    "shard %zu: %s reached no replica", s, line.c_str()))
              : first_error;
      return reply;
    }
    if (successes == 0) {
      any_shard_not_found = true;  // a reached non-owner shard
      continue;
    }
    engines += shard_engines;
    counted += shard_count;
  }
  if (tolerate_not_found && counted == 0 && any_shard_not_found) {
    reply.status = not_found;
    return reply;
  }
  if (count_key != nullptr) {
    reply.payload.push_back(StringPrintf(
        "%s %llu", count_key, static_cast<unsigned long long>(counted)));
  }
  if (!any_shard_not_found) {
    // Non-owner shards answered ERR and never reported their engine
    // count, so a partial sum would lie; omit the line instead.
    reply.payload.push_back(StringPrintf(
        "%s %llu", kEnginesKey, static_cast<unsigned long long>(engines)));
  }
  reply.degraded = any_replica_failed;
  return reply;
}

Reply Frontend::DoSlowlog(const Request& request) {
  Reply reply;
  reply.payload = stats_.RenderSlowlog(request.slowlog_n);
  return reply;
}

}  // namespace useful::cluster
