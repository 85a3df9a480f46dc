// --trace 0: the end-to-end metrics, with server tracing off.
//
// A run starts the workload's servers kFleets times to carry the load,
// light before heavy:
//   1. one low-rate warm-up segment (fills the caches), then kLowRounds
//      low-rate segments;
//   2. a warm-up at the high rate, then kRounds pairs of a high-rate
//      segment and a closed-loop segment (4 connections x window 32);
// and after the last start's rounds,
//   3. a kBisectSteps-step bisection between the high rate and max_qps for
//      the highest rate whose p95 stays within 10 ms (slo_qps).
// Each number is the median over its segments. Before the first loaded
// start, and after every low-rate segment and every pair, another start of
// the servers is timed from spawn to the first correct reply and stopped
// at once; these give setup_s.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "churn.h"
#include "runs.h"
#include "wire.h"

namespace useful::e2e {

namespace {

/// The latency limit of slo_qps, on the kTailPct percentile.
constexpr double kLatencyLimitUs = 10'000.0;
/// A rate passes only if the generator kept its schedule: send lag at
/// kTailPct within this.
constexpr double kLagLimitUs = 1'000.0;
/// Starts that carry the load, so no one server instance's thread
/// placement decides the result.
constexpr int kFleets = 2;
/// Segments per loaded start. One bad second on the shared box moves one
/// segment, not the median. Each segment is followed by a cold start.
constexpr int kLowRounds = 4;
constexpr int kRounds = 6;
/// Timed starts per set-up time: one before the first loaded start and
/// one after each low-rate segment and pair give 1 + kFleets * (kLowRounds
/// + kRounds) = 21 starts, 3 set-up times.
constexpr std::size_t kStartsPerSetup = 7;
constexpr std::size_t kClosedWindow = 32;
constexpr int kBisectSteps = 4;
/// Shares of --seconds: one segment of the low, high, and closed-loop
/// phases, the heavy warm-up, and one bisection step.
constexpr double kLowShare = 0.02;
constexpr double kWarmShare = 0.04;
constexpr double kHighShare = 0.02;
constexpr double kClosedShare = 0.02;
constexpr double kStepShare = 0.04;
static_assert(kFleets * ((1 + kLowRounds) * kLowShare + kWarmShare +
                         kRounds * (kHighShare + kClosedShare)) +
                      kBisectSteps * kStepShare <
                  0.93,
              "the phases must fit in --seconds, with room for the starts");

/// `stat(segment)` of every segment.
template <typename Stat>
std::vector<double> Each(const std::vector<PhaseResult>& segments, Stat stat) {
  std::vector<double> values;
  for (const PhaseResult& r : segments) values.push_back(stat(r));
  return values;
}

/// The median over segments of `stat(segment)`.
template <typename Stat>
double MedianOf(const std::vector<PhaseResult>& segments, Stat stat) {
  return Median(Each(segments, stat));
}

/// The median over segments of the `pct` latency percentile, µs. This is
/// both what is reported and what the latency limit is held to.
double LatencyUs(const std::vector<PhaseResult>& segments, double pct) {
  return MedianOf(segments, [pct](const PhaseResult& r) {
    return Percentile(r.latency_us, pct);
  });
}

/// The median over segments of the `pct` send-lag percentile, µs.
double LagUs(const std::vector<PhaseResult>& segments, double pct) {
  return MedianOf(segments, [pct](const PhaseResult& r) {
    return Percentile(r.lag_us, pct);
  });
}

bool MeetsSlo(const std::vector<PhaseResult>& segments) {
  for (const PhaseResult& r : segments) {
    if (r.failed() != 0 || r.latency_us.empty()) return false;
  }
  return LatencyUs(segments, kTailPct) <= kLatencyLimitUs &&
         LagUs(segments, kTailPct) <= kLagLimitUs;
}

std::size_t Samples(const std::vector<PhaseResult>& segments) {
  std::size_t n = 0;
  for (const PhaseResult& r : segments) n += r.latency_us.size();
  return n;
}

double QpsOf(const PhaseResult& r) {
  return static_cast<double>(r.correct_in_window) / r.seconds;
}

}  // namespace

Outcome RunEndToEnd(const WorkloadSpec& spec, const Testbed& tb,
                    const Binaries& bin, const RunArgs& args) {
  const RequestPool pool = BuildPool(spec, tb, args.seed);
  PinClient();
  Outcome out;
  PhaseResult all;  // every load request, for the failure count
  std::vector<PhaseResult> low, high, closed;
  std::vector<double> start_s, rss_mib, peak_rss_mib, cpu_ms_per_kreq,
      admin_ms;
  double max_qps = 0.0, slo_qps = 0.0;
  std::uint64_t phase_seed = args.seed * 1000;
  // One start of the workload's servers, checked with one request.
  auto start = [&](const std::string& dir) {
    auto fleet = std::make_unique<Fleet>(spec, tb, bin, dir, 0);
    const std::string reply = Client(fleet->entry_port()).Call(pool.Line(0));
    ++out.attempted;
    if (!pool.Matches(0, reply)) ++out.failed;
    return fleet;
  };
  // A start timed from spawn to the first correct reply and stopped at
  // once. These run between the loaded fleet's segments, so their times
  // span the whole run rather than one stretch of it.
  auto cold_start = [&] {
    const std::int64_t t0 = NowNs();
    const std::unique_ptr<Fleet> fleet = start(args.out + "/run/cold");
    start_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  };

  cold_start();
  for (int f = 0; f < kFleets; ++f) {
    const std::unique_ptr<Fleet> fleet = start(args.out + "/run/load");
    Generator gen(&pool, fleet->entry_port(), spec.read_conns);
    std::unique_ptr<ChurnLoop> churn;
    if (spec.churn) {
      churn = std::make_unique<ChurnLoop>(tb, fleet->entry_port());
    }
    // Resident memory is sampled after every segment; rss_mb is the
    // median sample. The peak (rss_peak_mb) is one extreme, set under
    // churn by which snapshot replacements happened to overlap.
    auto open = [&](double rate, double share) {
      PhaseResult r = gen.OpenLoop(rate, args.seconds * share, ++phase_seed);
      all.Absorb(r);
      rss_mib.push_back(fleet->RssMiB());
      return r;
    };
    // Light load first, and the heavy segments after a heavy warm-up: a
    // thread that wakes after a light stretch runs slower for a while.
    open(spec.low_qps, kLowShare);  // fills the caches
    for (int round = 0; round < kLowRounds; ++round) {
      low.push_back(open(spec.low_qps, kLowShare));
      cold_start();
    }
    open(spec.high_qps, kWarmShare);
    for (int round = 0; round < kRounds; ++round) {
      const double cpu0 = fleet->CpuSeconds();
      high.push_back(open(spec.high_qps, kHighShare));
      cpu_ms_per_kreq.push_back((fleet->CpuSeconds() - cpu0) * 1e3 /
                                (static_cast<double>(high.back().sent) / 1e3));
      closed.push_back(gen.ClosedLoop(
          kClosedWindow, args.seconds * kClosedShare, ++phase_seed));
      all.Absorb(closed.back());
      rss_mib.push_back(fleet->RssMiB());
      cold_start();
    }
    if (f == kFleets - 1) {
      max_qps = MedianOf(closed, QpsOf);
      // The high rate is calibrated to pass; if it does not, search
      // between the low and the high rate, and report 0 if even the low
      // rate misses the limit.
      double lo = spec.high_qps, hi = max_qps;
      if (!MeetsSlo(high)) {
        lo = spec.low_qps;
        hi = spec.high_qps;
      }
      if (MeetsSlo(high) || MeetsSlo(low)) {
        for (int step = 0; step < kBisectSteps; ++step) {
          const double mid = (lo + hi) / 2;
          (MeetsSlo({open(mid, kStepShare)}) ? lo : hi) = mid;
        }
        slo_qps = lo;
      }
    }
    peak_rss_mib.push_back(fleet->PeakRssMiB());
    if (churn) {
      churn->Stop();
      out.attempted += churn->ops();
      out.failed += churn->failed();
      admin_ms.insert(admin_ms.end(), churn->rtt_ms().begin(),
                      churn->rtt_ms().end());
    }
  }
  out.attempted += all.sent;
  out.failed += all.failed();

  // Single starts are bimodal on the shared calibration box: a start
  // runs about 1.4 times slower when the host gives its CPU less (a
  // neighbour's burst), and the share of slow starts drifts from run to
  // run. Their median jumps between the two modes as that share crosses
  // one half. So each set-up time is the fastest of kStartsPerSetup
  // consecutive starts, and setup_s is the median of those (README.md).
  std::vector<double> setup_s;
  for (std::size_t i = 0; i + kStartsPerSetup <= start_s.size();
       i += kStartsPerSetup) {
    setup_s.push_back(*std::min_element(start_s.begin() + i,
                                        start_s.begin() + i + kStartsPerSetup));
  }
  out.metrics = {
      {"setup_s", Median(setup_s), "s", setup_s.size()},
      {"rss_mb", Median(rss_mib), "MiB", rss_mib.size()},
  };
  out.info = {
      {"p50_ms.low", LatencyUs(low, 50) / 1e3, "ms", Samples(low)},
      {"p95_ms.low", LatencyUs(low, kTailPct) / 1e3, "ms", Samples(low)},
      {"p50_ms.high", LatencyUs(high, 50) / 1e3, "ms", Samples(high)},
      {"p95_ms.high", LatencyUs(high, kTailPct) / 1e3, "ms", Samples(high)},
      {"max_qps", max_qps, "1/s", closed.size(), true},
      {"slo_qps", slo_qps, "1/s", 0, true},
      {"cpu_ms_per_kreq", Median(cpu_ms_per_kreq), "ms",
       cpu_ms_per_kreq.size()},
      {"p99_ms.low", LatencyUs(low, 99) / 1e3, "ms", Samples(low)},
      {"p99_ms.high", LatencyUs(high, 99) / 1e3, "ms", Samples(high)},
      // The generator's own validity check: lag must stay far below the
      // latencies it is charged to.
      {"send_lag_p95_us.low", LagUs(low, kTailPct), "us", Samples(low)},
      {"send_lag_p95_us.high", LagUs(high, kTailPct), "us", Samples(high)},
      {"rss_peak_mb", Median(peak_rss_mib), "MiB", peak_rss_mib.size()},
      {"fail_ratio",
       static_cast<double>(out.failed) / static_cast<double>(out.attempted),
       "ratio", out.attempted},
  };
  if (spec.churn) {
    out.info.push_back(
        {"admin_p50_ms", Median(admin_ms), "ms", admin_ms.size()});
  }
  auto pct = [](double p) {
    return [p](const PhaseResult& r) { return Percentile(r.latency_us, p); };
  };
  out.series = {
      {"start_s", start_s},
      {"rss_mb", rss_mib},
      {"p50_us.low", Each(low, pct(50))},
      {"p50_us.high", Each(high, pct(50))},
      {"p95_us.high", Each(high, pct(kTailPct))},
      {"closed_qps", Each(closed, QpsOf)},
      {"cpu_ms_per_kreq", cpu_ms_per_kreq},
  };
  return out;
}

int SelfTest(const Testbed& tb, const Binaries& bin, const RunArgs& args) {
  const WorkloadSpec& spec = *FindWorkload("hot-route");
  const RequestPool pool = BuildPool(spec, tb, args.seed);
  PinClient();
  Fleet fleet(spec, tb, bin, args.out + "/run", 0);
  Generator gen(&pool, fleet.entry_port(), 4);
  gen.OpenLoop(spec.high_qps, 1.0, 1);
  const PhaseResult r = gen.OpenLoop(250, 4.0, 2);
  const double p95_ms = Percentile(r.latency_us, 95) / 1e3;
  std::printf("selftest p95_ms %.4f n=%zu failed=%zu "
              "(per-connection send interval 16 ms)\n",
              p95_ms, r.latency_us.size(), r.failed());
  // A generator that reads replies only when it next sends reports about
  // the send interval itself; half of it leaves room for a slow host.
  return r.failed() == 0 && p95_ms < 8.0 ? 0 : 1;
}

}  // namespace useful::e2e
