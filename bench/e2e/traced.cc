// --trace 1: the per-layer metrics.
//
// The same low-rate phase runs twice, on servers started with
// --trace-sample-rate 0 and then 1; the second records a client span per
// request, and METRICS/STATS are scraped around it for the servers' own
// counters and stage histograms. Then a one-at-a-time probe times the
// backend round trip, admin verbs are timed over the wire, the servers
// stop, and the decomposed in-process replay (replay.h) times the layers
// one by one. The spans go to <out>/<workload>.trace.json.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "churn.h"
#include "replay.h"
#include "runs.h"
#include "spans.h"
#include "wire.h"

namespace useful::e2e {

namespace {

/// In-process replay size.
constexpr std::size_t kReplayRequests = 1000;

/// Prometheus exposition lines as series -> value.
using Scrape = std::map<std::string, double>;

Scrape ParseMetrics(const std::string& reply) {
  Scrape out;
  for (const std::string& line : PayloadLines(reply)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    out[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

/// The servers' counters at one instant: the entry process's METRICS,
/// the cache owners' METRICS summed, and each replica's command count.
struct Snapshot {
  Scrape entry;
  Scrape caches;
  std::vector<std::vector<double>> replica_requests;  // [shard][replica]
  double cpu_s = 0.0;
  std::int64_t at_ns = 0;
};

Snapshot Take(const WorkloadSpec& spec, const Fleet& fleet) {
  Snapshot snap;
  snap.entry = ParseMetrics(Client(fleet.entry_port()).Call("METRICS"));
  if (spec.topology != Topology::kCluster) snap.caches = snap.entry;
  for (const std::vector<std::uint16_t>& shard : fleet.shard_ports()) {
    snap.replica_requests.emplace_back();
    for (std::uint16_t port : shard) {
      Client client(port);
      for (const auto& [key, value] : ParseMetrics(client.Call("METRICS"))) {
        snap.caches[key] += value;
      }
      double requests = 0.0;
      for (const std::string& line : PayloadLines(client.Call("STATS"))) {
        if (line.rfind("cmd_route_count ", 0) == 0 ||
            line.rfind("cmd_estimate_count ", 0) == 0) {
          requests += std::strtod(line.c_str() + line.find(' ') + 1, nullptr);
        }
      }
      snap.replica_requests.back().push_back(requests);
    }
  }
  snap.cpu_s = fleet.CpuSeconds();
  snap.at_ns = NowNs();
  return snap;
}

double Delta(const Scrape& a, const Scrape& b, const std::string& key) {
  auto value = [&key](const Scrape& s) {
    auto it = s.find(key);
    return it == s.end() ? 0.0 : it->second;
  };
  return value(b) - value(a);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Mean(const std::vector<double>& v) {
  return Ratio(std::accumulate(v.begin(), v.end(), 0.0),
               static_cast<double>(v.size()));
}

/// Mean µs of a Prometheus histogram series between two scrapes.
double MeanUs(const Scrape& a, const Scrape& b, const std::string& name,
              const std::string& labels) {
  return 1e6 * Ratio(Delta(a, b, name + "_sum" + labels),
                     Delta(a, b, name + "_count" + labels));
}

/// The `q` quantile (0-1), µs, of an unlabelled Prometheus histogram
/// between two scrapes, interpolated linearly inside its bucket as
/// Prometheus's histogram_quantile does.
double QuantileUs(const Scrape& a, const Scrape& b, const std::string& name,
                  double q) {
  const std::string prefix = name + "_bucket{le=\"";
  std::vector<std::pair<double, double>> buckets;  // upper bound, count
  for (auto it = b.lower_bound(prefix);
       it != b.end() && it->first.rfind(prefix, 0) == 0; ++it) {
    const double le = std::strtod(it->first.c_str() + prefix.size(), nullptr);
    buckets.emplace_back(le, Delta(a, b, it->first));
  }
  std::sort(buckets.begin(), buckets.end());
  if (buckets.empty() || buckets.back().second <= 0) return 0.0;
  const double rank = q * buckets.back().second;
  double lower = 0.0, below = 0.0;
  for (const auto& [le, count] : buckets) {
    if (count >= rank) {
      // The +Inf bucket has no upper bound: report its lower one.
      if (std::isinf(le)) return lower * 1e6;
      return 1e6 * (lower + (le - lower) * Ratio(rank - below, count - below));
    }
    lower = le;
    below = count;
  }
  return lower * 1e6;
}

void Account(const PhaseResult& r, Outcome* out) {
  out->attempted += r.sent;
  out->failed += r.failed();
}

/// What the traced run measures over the wire.
struct Wire {
  double untraced_p50_us = 0.0;
  PhaseResult traced;      // the low-rate phase with server tracing on
  Snapshot before, after;  // the servers' counters around `traced`
  PhaseResult rtt;         // one-at-a-time backend round trips
  std::vector<std::vector<double>> rtt_us_by_shard;  // cluster only
  std::vector<double> admin_ms;
};

Wire MeasureWire(const WorkloadSpec& spec, const Testbed& tb,
                 const Binaries& bin, const RequestPool& pool,
                 const RunArgs& args, SpanLog* spans, Outcome* out) {
  Wire wire;
  std::uint64_t phase_seed = args.seed * 1000;
  for (std::uint32_t trace_rate : {0u, 1u}) {
    Fleet fleet(spec, tb, bin, args.out + "/run", trace_rate);
    {
      Generator gen(&pool, fleet.entry_port(), spec.read_conns);
      std::unique_ptr<ChurnLoop> churn;
      if (spec.churn) {
        churn = std::make_unique<ChurnLoop>(tb, fleet.entry_port());
      }
      Account(gen.OpenLoop(spec.high_qps, args.seconds * 0.1, ++phase_seed),
              out);
      if (trace_rate == 0) {
        const PhaseResult base =
            gen.OpenLoop(spec.low_qps, args.seconds * 0.2, ++phase_seed);
        Account(base, out);
        wire.untraced_p50_us = Percentile(base.latency_us, 50);
      } else {
        wire.before = Take(spec, fleet);
        wire.traced = gen.OpenLoop(spec.low_qps, args.seconds * 0.25,
                                   ++phase_seed, spans);
        wire.after = Take(spec, fleet);
        Account(wire.traced, out);
      }
      if (churn) {
        churn->Stop();
        out->attempted += churn->ops();
        out->failed += churn->failed();
      }
    }
    if (trace_rate == 0) continue;

    // Backend round trip, one request at a time: each shard's preferred
    // replica directly, or the single server itself.
    if (spec.topology == Topology::kCluster) {
      for (std::size_t s = 0; s < kShards; ++s) {
        const RequestPool shard_pool = ShardPool(pool, s);
        Generator probe(&shard_pool, fleet.shard_ports()[s][0], 1);
        const PhaseResult r =
            probe.ClosedLoop(1, args.seconds * 0.05, ++phase_seed);
        wire.rtt_us_by_shard.push_back(r.latency_us);
        wire.rtt.Absorb(r);
      }
    } else {
      Generator probe(&pool, fleet.entry_port(), 1);
      wire.rtt.Absorb(probe.ClosedLoop(1, args.seconds * 0.1, ++phase_seed));
    }
    Account(wire.rtt, out);

    // Admin verbs over the wire (through the front-end on the cluster).
    const bool packed = spec.topology == Topology::kPacked;
    std::vector<std::string> lines;
    for (std::size_t k = 0; k < 6; ++k) {
      lines.push_back("UPDATE " + (packed ? tb.SinglePackPath(tb.engines[k])
                                          : tb.RepPath(tb.engines[k])));
    }
    for (int k = 0; k < 2; ++k) {
      lines.push_back("ADD " +
                      (packed ? tb.ExtraPackPath() : tb.ExtraRepPath()));
      lines.push_back(std::string("DROP ") + Testbed::kExtraEngine);
    }
    Client admin(fleet.entry_port());
    for (const std::string& line : lines) {
      const std::int64_t t0 = NowNs();
      const std::string reply = admin.Call(line);
      wire.admin_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
      ++out->attempted;
      if (reply.rfind("OK ", 0) != 0) ++out->failed;
    }
  }
  return wire;
}

}  // namespace

Outcome RunTraced(const WorkloadSpec& spec, const Testbed& tb,
                  const Binaries& bin, const RunArgs& args) {
  const RequestPool pool = BuildPool(spec, tb, args.seed);
  PinClient();
  Outcome out;
  SpanLog spans;
  // MeasureWire stops the servers before the replay runs.
  const Wire wire = MeasureWire(spec, tb, bin, pool, args, &spans, &out);
  const ReplayReport replay =
      Replay(spec, tb, pool, args.seed, kReplayRequests, &spans);
  out.attempted += replay.requests;
  out.failed += replay.mismatches;
  const std::string trace_path = args.out + "/" + spec.name + ".trace.json";
  if (!spans.WriteJson(trace_path, spec.name)) {
    Fail("cannot write " + trace_path);
  }

  const Scrape& e0 = wire.before.entry;
  const Scrape& e1 = wire.after.entry;
  const Scrape& c0 = wire.before.caches;
  const Scrape& c1 = wire.after.caches;
  const double requests =
      Delta(e0, e1, "useful_command_requests_total{command=\"route\"}") +
      Delta(e0, e1, "useful_command_requests_total{command=\"estimate\"}");
  const std::string verb_label =
      std::string("{command=\"") +
      (spec.verb[0] == 'R' ? "route" : "estimate") + "\"}";
  const double exec_us =
      MeanUs(e0, e1, "useful_command_latency_seconds", verb_label);
  // Means, not medians, where parts are summed: means add up. The
  // transport is what the wire time leaves after the generator's lag and
  // the server's execution: kernel, reactor, offload queue, socket write.
  const PhaseResult& traced = wire.traced;
  const double wire_mean = Mean(traced.latency_us);
  const double lag_mean = Mean(traced.lag_us);
  const double transport_us = wire_mean - lag_mean - exec_us;
  const double hits = Delta(c0, c1, "useful_cache_hits_total");
  const double misses = Delta(c0, c1, "useful_cache_misses_total");
  double primary = 0.0, others = 0.0;
  for (std::size_t s = 0; s < wire.before.replica_requests.size(); ++s) {
    for (std::size_t r = 0; r < wire.before.replica_requests[s].size(); ++r) {
      (r == 0 ? primary : others) += wire.after.replica_requests[s][r] -
                                     wire.before.replica_requests[s][r];
    }
  }
  const PhaseResult& rtt = wire.rtt;
  // What the entry process waits on beneath its own work: the slowest
  // shard's round trip on the cluster, the in-process execution otherwise.
  double backend_us = replay.exec_mean_us;
  if (spec.topology == Topology::kCluster) {
    backend_us = 0.0;
    for (const std::vector<double>& shard : wire.rtt_us_by_shard) {
      backend_us = std::max(backend_us, Mean(shard));
    }
  }

  out.metrics = {
      {"client.send_lag_p95_us", Percentile(traced.lag_us, kTailPct), "us",
       traced.lag_us.size()},
      {"client.wire_p50_us", Percentile(traced.latency_us, 50), "us",
       traced.latency_us.size()},
      {"server.offload_wait_mean_us",
       MeanUs(e0, e1, "useful_offload_wait_seconds", ""), "us"},
      {"server.offload_wait_p50_us",
       QuantileUs(e0, e1, "useful_offload_wait_seconds", 0.50), "us"},
      {"server.offload_wait_p99_us",
       QuantileUs(e0, e1, "useful_offload_wait_seconds", 0.99), "us"},
      {"server.lines_per_dispatch",
       Ratio(Delta(e0, e1, "useful_dispatched_lines_total"),
             Delta(e0, e1, "useful_dispatches_total")),
       "count"},
      {"server.wakeups_per_req",
       Ratio(Delta(e0, e1, "useful_epoll_wakeups_total"), requests), "count"},
      {"server.write_mean_us",
       MeanUs(e0, e1, "useful_stage_latency_seconds", "{stage=\"write\"}"),
       "us"},
      {"server.exec_mean_us", exec_us, "us"},
      {"server.transport_us", transport_us, "us"},
      {"server.cpu_util",
       Ratio(wire.after.cpu_s - wire.before.cpu_s,
             static_cast<double>(wire.after.at_ns - wire.before.at_ns) / 1e9),
       "cores"},
      {"cache.hit_ratio", Ratio(hits, hits + misses), "ratio"},
      {"cache.evictions_per_req",
       Ratio(Delta(c0, c1, "useful_cache_evictions_total"), requests),
       "count"},
      {"estimate.engines_per_req", Ratio(misses, requests), "count"},
      {"cluster.shard_rtt_p50_us", Percentile(rtt.latency_us, 50), "us",
       rtt.latency_us.size()},
      {"cluster.shard_rtt_p99_us", Percentile(rtt.latency_us, 99), "us",
       rtt.latency_us.size()},
      {"cluster.frontend_self_us", exec_us - backend_us, "us"},
      {"cluster.replica_share", Ratio(others, primary + others), "ratio"},
      {"admin.rtt_p50_ms", Median(wire.admin_ms), "ms",
       wire.admin_ms.size()},
  };
  out.metrics.insert(out.metrics.end(), replay.metrics.begin(),
                     replay.metrics.end());
  out.metrics.push_back(
      {"trace.coverage",
       Ratio(lag_mean + transport_us + replay.exec_mean_us, wire_mean),
       "ratio"});
  out.metrics.push_back(
      {"trace.overhead",
       Ratio(Percentile(traced.latency_us, 50), wire.untraced_p50_us),
       "ratio"});
  out.info.push_back({"replay.mismatches",
                      static_cast<double>(replay.mismatches), "count",
                      replay.requests});
  return out;
}

}  // namespace useful::e2e
