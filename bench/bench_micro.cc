// Microbenchmarks (google-benchmark): the systems costs behind the paper's
// architecture — representative construction, estimator latency per
// (query, threshold), generating-function expansion scaling, and broker
// selection across 53 engines.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "broker/metasearcher.h"
#include "common.h"
#include "service/service.h"
#include "estimate/adaptive_estimator.h"
#include "estimate/basic_estimator.h"
#include "estimate/gloss_estimators.h"
#include "estimate/resolved_query.h"
#include "estimate/subrange_estimator.h"
#include "eval/experiment.h"
#include "estimate/generating_function.h"
#include "represent/builder.h"
#include "represent/quantized.h"
#include "represent/serialize.h"
#include "represent/store.h"

#include <sstream>

namespace {

using namespace useful;

struct D1Fixture {
  std::unique_ptr<ir::SearchEngine> engine;
  represent::Representative rep;
  std::vector<ir::Query> queries;
};

const D1Fixture& GetD1() {
  static const D1Fixture* fixture = [] {
    auto* f = new D1Fixture();
    const auto& tb = bench::GetTestbed();
    f->engine = bench::BuildEngine(tb.sim->BuildD1());
    f->rep = std::move(represent::BuildRepresentative(*f->engine)).value();
    for (std::size_t i = 0; i < 512; ++i) {
      const corpus::Query& q = tb.queries[i];
      f->queries.push_back(ir::ParseQuery(tb.analyzer, q.text, q.id));
    }
    return f;
  }();
  return *fixture;
}

void BM_IndexD1(benchmark::State& state) {
  const auto& tb = bench::GetTestbed();
  corpus::Collection d1 = tb.sim->BuildD1();
  for (auto _ : state) {
    ir::SearchEngine engine("D1", &tb.analyzer);
    benchmark::DoNotOptimize(engine.AddCollection(d1));
    benchmark::DoNotOptimize(engine.Finalize());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(d1.size()));
}
BENCHMARK(BM_IndexD1)->Unit(benchmark::kMillisecond);

void BM_BuildRepresentative(benchmark::State& state) {
  const auto& f = GetD1();
  for (auto _ : state) {
    auto rep = represent::BuildRepresentative(*f.engine);
    benchmark::DoNotOptimize(rep);
  }
}
BENCHMARK(BM_BuildRepresentative)->Unit(benchmark::kMillisecond);

template <typename Estimator>
void BM_Estimator(benchmark::State& state) {
  const auto& f = GetD1();
  Estimator est;
  std::size_t i = 0;
  for (auto _ : state) {
    const ir::Query& q = f.queries[i++ % f.queries.size()];
    auto u = est.Estimate(f.rep, q, 0.2);
    benchmark::DoNotOptimize(u);
  }
}
BENCHMARK(BM_Estimator<estimate::SubrangeEstimator>);
BENCHMARK(BM_Estimator<estimate::BasicEstimator>);
BENCHMARK(BM_Estimator<estimate::AdaptiveEstimator>);
BENCHMARK(BM_Estimator<estimate::HighCorrelationEstimator>);
BENCHMARK(BM_Estimator<estimate::DisjointEstimator>);

// The paper's evaluation scores every query at 6 thresholds. Scalar sweep:
// 6 independent Estimate calls (re-resolving terms and re-expanding each
// time). Batch sweep: one ResolvedQuery + one EstimateBatch through a
// reused workspace. The ratio of these two is the single-thread win of the
// batched pipeline.
const std::vector<double>& SweepThresholds() {
  static const std::vector<double> thresholds = {0.1, 0.2, 0.3,
                                                 0.4, 0.5, 0.6};
  return thresholds;
}

template <typename Estimator>
void BM_EstimatorScalarSweep(benchmark::State& state) {
  const auto& f = GetD1();
  Estimator est;
  std::size_t i = 0;
  for (auto _ : state) {
    const ir::Query& q = f.queries[i++ % f.queries.size()];
    for (double threshold : SweepThresholds()) {
      auto u = est.Estimate(f.rep, q, threshold);
      benchmark::DoNotOptimize(u);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(SweepThresholds().size()));
}
BENCHMARK(BM_EstimatorScalarSweep<estimate::SubrangeEstimator>);
BENCHMARK(BM_EstimatorScalarSweep<estimate::BasicEstimator>);
BENCHMARK(BM_EstimatorScalarSweep<estimate::AdaptiveEstimator>);

template <typename Estimator>
void BM_EstimatorBatchSweep(benchmark::State& state) {
  const auto& f = GetD1();
  Estimator est;
  estimate::ExpansionWorkspace ws;
  std::vector<estimate::UsefulnessEstimate> out(SweepThresholds().size());
  std::size_t i = 0;
  for (auto _ : state) {
    const ir::Query& q = f.queries[i++ % f.queries.size()];
    estimate::ResolvedQuery rq(f.rep, q);
    est.EstimateBatch(rq, SweepThresholds(), ws,
                      std::span<estimate::UsefulnessEstimate>(out));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(SweepThresholds().size()));
}
BENCHMARK(BM_EstimatorBatchSweep<estimate::SubrangeEstimator>);
BENCHMARK(BM_EstimatorBatchSweep<estimate::BasicEstimator>);
BENCHMARK(BM_EstimatorBatchSweep<estimate::AdaptiveEstimator>);

// --- Packed representative store (URPZ) --------------------------------

// Encode cost plus the headline size comparison: the same engine as a
// quantized URP1 file versus one engine inside a packed URPZ image.
void BM_PackStoreEncode(benchmark::State& state) {
  const auto& f = GetD1();
  std::vector<const represent::Representative*> reps = {&f.rep};
  std::size_t urpz_bytes = 0;
  for (auto _ : state) {
    auto image = represent::EncodeStore(reps);
    benchmark::DoNotOptimize(image);
    urpz_bytes = image.value().size();
  }
  auto quant = represent::QuantizeRepresentative(f.rep);
  std::ostringstream urp1;
  (void)represent::WriteRepresentative(quant.value().representative, urp1);
  state.counters["urpz_bytes_per_engine"] =
      static_cast<double>(urpz_bytes);
  state.counters["urp1_quantized_bytes_per_engine"] =
      static_cast<double>(urp1.str().size());
}
BENCHMARK(BM_PackStoreEncode)->Unit(benchmark::kMillisecond);

// Shard warm-up: what a RELOAD pays per store — open, mmap, validate the
// image, and take the first zero-copy lookup.
void BM_StoreWarmup(benchmark::State& state) {
  const auto& f = GetD1();
  std::vector<const represent::Representative*> reps = {&f.rep};
  std::filesystem::path path =
      std::filesystem::temp_directory_path() / "bench_micro_store.urpz";
  if (!represent::PackStoreToFile(reps, path.string()).ok()) {
    state.SkipWithError("PackStoreToFile failed");
    return;
  }
  const std::string probe = f.queries[0].terms.empty()
                                ? std::string("missing")
                                : f.queries[0].terms[0].term;
  for (auto _ : state) {
    auto store = represent::StoreView::Open(path.string());
    benchmark::DoNotOptimize(store.value()->engine(0).Find(probe));
  }
  std::filesystem::remove(path);
}
BENCHMARK(BM_StoreWarmup)->Unit(benchmark::kMicrosecond);

// The serving path over the mapping: view-backed ResolvedQuery +
// EstimateBatch, the exact loop Metasearcher runs for store-backed
// engines. Compare against BM_EstimatorBatchSweep (map-backed).
template <typename Estimator>
void BM_EstimatorViewSweep(benchmark::State& state) {
  const auto& f = GetD1();
  static const std::shared_ptr<const represent::StoreView>* store = [] {
    const auto& fixture = GetD1();
    std::vector<const represent::Representative*> reps = {&fixture.rep};
    auto image = represent::EncodeStore(reps);
    auto view = represent::StoreView::FromBuffer(std::move(image).value());
    return new std::shared_ptr<const represent::StoreView>(
        std::move(view).value());
  }();
  const represent::RepresentativeView& view = (*store)->engine(0);
  Estimator est;
  estimate::ExpansionWorkspace ws;
  std::vector<estimate::UsefulnessEstimate> out(SweepThresholds().size());
  std::size_t i = 0;
  for (auto _ : state) {
    const ir::Query& q = f.queries[i++ % f.queries.size()];
    estimate::ResolvedQuery rq(view, q);
    est.EstimateBatch(rq, SweepThresholds(), ws,
                      std::span<estimate::UsefulnessEstimate>(out));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(SweepThresholds().size()));
}
BENCHMARK(BM_EstimatorViewSweep<estimate::SubrangeEstimator>);
BENCHMARK(BM_EstimatorViewSweep<estimate::BasicEstimator>);
BENCHMARK(BM_EstimatorViewSweep<estimate::AdaptiveEstimator>);

void BM_ExactEvaluation(benchmark::State& state) {
  const auto& f = GetD1();
  std::size_t i = 0;
  for (auto _ : state) {
    const ir::Query& q = f.queries[i++ % f.queries.size()];
    auto u = f.engine->TrueUsefulness(q, 0.2);
    benchmark::DoNotOptimize(u);
  }
}
BENCHMARK(BM_ExactEvaluation);

void BM_ExpansionScaling(benchmark::State& state) {
  // r query terms x s subranges each: cost of the polynomial product.
  const auto r = static_cast<std::size_t>(state.range(0));
  const auto s = static_cast<std::size_t>(state.range(1));
  std::vector<estimate::TermPolynomial> factors(r);
  for (std::size_t f = 0; f < r; ++f) {
    for (std::size_t k = 0; k < s; ++k) {
      factors[f].spikes.push_back(estimate::Spike{
          0.05 + 0.9 * static_cast<double>(f * s + k) /
                     static_cast<double>(r * s),
          0.8 / static_cast<double>(s)});
    }
  }
  for (auto _ : state) {
    auto dist = estimate::SimilarityDistribution::Expand(factors);
    benchmark::DoNotOptimize(dist);
  }
}
BENCHMARK(BM_ExpansionScaling)
    ->Args({1, 6})
    ->Args({3, 6})
    ->Args({6, 6})
    ->Args({6, 10})
    ->Args({10, 6});

void BM_BrokerSelection53Engines(benchmark::State& state) {
  static const auto* setup = [] {
    const auto& tb = bench::GetTestbed();
    auto* s = new std::pair<std::vector<std::unique_ptr<ir::SearchEngine>>,
                            std::unique_ptr<broker::Metasearcher>>();
    s->second = std::make_unique<broker::Metasearcher>(&tb.analyzer);
    for (const corpus::Collection& g : tb.sim->groups()) {
      s->first.push_back(bench::BuildEngine(g));
      if (!s->second->RegisterEngine(s->first.back().get()).ok()) std::abort();
    }
    return s;
  }();
  const auto& f = GetD1();
  estimate::SubrangeEstimator est;
  std::size_t i = 0;
  for (auto _ : state) {
    const ir::Query& q = f.queries[i++ % f.queries.size()];
    auto selected = setup->second->SelectEngines(q, 0.2, est);
    benchmark::DoNotOptimize(selected);
  }
}
BENCHMARK(BM_BrokerSelection53Engines);

// Thread scaling of the full experiment runner (512 queries x 6
// thresholds x subrange) — the eval-side parallel reduction. The work runs
// on pool threads while the calling thread waits, so the rows are timed by
// the wall clock, not by the caller's CPU time.
void BM_ExperimentRunnerThreads(benchmark::State& state) {
  const auto& f = GetD1();
  estimate::SubrangeEstimator est;
  std::vector<eval::MethodUnderTest> methods = {{&est, &f.rep, ""}};
  eval::ExperimentConfig config;
  config.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto rows = eval::RunExperimentParsed(*f.engine, f.queries, methods,
                                          config);
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.queries.size()));
}
BENCHMARK(BM_ExperimentRunnerThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// --- Serving layer ---------------------------------------------------------
// Cached ROUTE latency through service::Service (socket-free): the
// steady-state repeat-query path. Serving over sockets, cached and
// uncached, is measured by bench/e2e.

struct ServiceFixture {
  std::filesystem::path dir;
  std::vector<std::string> rep_paths;
  std::vector<std::string> route_lines;
};

const ServiceFixture& GetServiceFixture() {
  static const ServiceFixture* fixture = [] {
    auto* f = new ServiceFixture();
    const auto& tb = bench::GetTestbed();
    f->dir = std::filesystem::temp_directory_path() / "useful_bench_service";
    std::filesystem::create_directories(f->dir);
    std::size_t count = 0;
    for (const corpus::Collection& g : tb.sim->groups()) {
      if (count == 8) break;
      auto engine = bench::BuildEngine(g);
      auto rep = represent::BuildRepresentative(*engine);
      std::string path =
          (f->dir / ("engine" + std::to_string(count) + ".rep")).string();
      if (!rep.ok() ||
          !represent::SaveRepresentative(rep.value(), path).ok()) {
        std::abort();
      }
      f->rep_paths.push_back(std::move(path));
      ++count;
    }
    // Keep only queries that survive analysis, so every benchmark
    // iteration measures a real ranking, not an error reply.
    service::ServiceOptions probe_options;
    probe_options.representative_paths = f->rep_paths;
    auto probe = service::Service::Create(&tb.analyzer, probe_options);
    if (!probe.ok()) std::abort();
    for (std::size_t i = 0; i < 256 && f->route_lines.size() < 64; ++i) {
      std::string line = "ROUTE subrange 0.2 0 " + tb.queries[i].text;
      if (probe.value()->Execute(line).status.ok()) {
        f->route_lines.push_back(std::move(line));
      }
    }
    if (f->route_lines.size() < 2) std::abort();
    return f;
  }();
  return *fixture;
}

void BM_ServiceRouteCached(benchmark::State& state) {
  const auto& f = GetServiceFixture();
  const auto& tb = bench::GetTestbed();
  service::ServiceOptions options;
  options.representative_paths = f.rep_paths;
  auto service = service::Service::Create(&tb.analyzer, options);
  if (!service.ok()) std::abort();
  for (auto _ : state) {
    auto reply = service.value()->Execute(f.route_lines[0]);
    benchmark::DoNotOptimize(reply.payload.data());
  }
}
BENCHMARK(BM_ServiceRouteCached);

// Tracing overhead control: identical to BM_ServiceRouteCached except
// request sampling is disabled outright (rate 0), so no iteration ever
// reads a clock or touches the slowlog. The cached row above runs at the
// default 1/256 sampling; its delta against this row is the total
// observability cost on the hottest path and must stay under 3%.
void BM_ServiceRouteCachedTraceOff(benchmark::State& state) {
  const auto& f = GetServiceFixture();
  const auto& tb = bench::GetTestbed();
  service::ServiceOptions options;
  options.representative_paths = f.rep_paths;
  options.trace_sample_rate = 0;
  auto service = service::Service::Create(&tb.analyzer, options);
  if (!service.ok()) std::abort();
  for (auto _ : state) {
    auto reply = service.value()->Execute(f.route_lines[0]);
    benchmark::DoNotOptimize(reply.payload.data());
  }
}
BENCHMARK(BM_ServiceRouteCachedTraceOff);

}  // namespace

BENCHMARK_MAIN();
