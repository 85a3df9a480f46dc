#include "replay.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <random>
#include <string>

#include "broker/metasearcher.h"
#include "broker/selection_policy.h"
#include "cluster/merge.h"
#include "estimate/registry.h"
#include "ir/query.h"
#include "represent/serialize.h"
#include "represent/store.h"
#include "service/connection.h"
#include "service/protocol.h"
#include "service/query_cache.h"
#include "service/service.h"
#include "text/analyzer.h"
#include "util/engine_hash.h"
#include "util/string_util.h"
#include "wire.h"

namespace useful::e2e {

namespace {

/// Times one layer call: a span under `parent`, its duration added to
/// `*sum` (the request's decomposed total).
class Step {
 public:
  Step(SpanLog* log, std::uint64_t id, const char* name, int parent,
       std::int64_t* sum)
      : log_(log), handle_(log->Begin(id, name, parent)), sum_(sum) {}
  ~Step() {
    log_->End(handle_);
    *sum_ += log_->DurationNs(handle_);
  }
  Step(const Step&) = delete;
  Step& operator=(const Step&) = delete;

 private:
  SpanLog* log_;
  int handle_;
  std::int64_t* sum_;
};

/// The workload's engines registered the way Service::LoadSnapshot does.
struct Registry {
  std::unique_ptr<broker::Metasearcher> broker;
  std::shared_ptr<const represent::StoreView> store;  // packed only
};

Registry Load(const text::Analyzer* analyzer, Topology topology,
              const Testbed& tb) {
  Registry reg;
  reg.broker = std::make_unique<broker::Metasearcher>(analyzer);
  for (const std::string& path : ServedPaths(topology, tb)) {
    if (topology == Topology::kPacked) {
      reg.store = Check(represent::StoreView::Open(path), path);
      Check(reg.broker->RegisterStore(reg.store), path);
    } else {
      Check(reg.broker->RegisterRepresentative(
                Check(represent::LoadRepresentative(path), path)),
            path);
    }
  }
  return reg;
}

/// The cache key layout of service::Service: engine, generation, query.
std::string EngineKey(std::string_view engine, std::uint64_t gen,
                      const std::string& query_key) {
  std::string key;
  key.reserve(engine.size() + query_key.size() + 24);
  key.append(engine);
  key.push_back('\x1f');
  key.append(StringPrintf("%llu", static_cast<unsigned long long>(gen)));
  key.push_back('\x1f');
  key.append(query_key);
  return key;
}

/// The fixed context of one replay.
struct Pipeline {
  const text::Analyzer* analyzer;
  const Registry* reg;
  const estimate::UsefulnessEstimator* estimator;
  service::QueryCache* cache;
};

/// One request, one layer at a time; returns the rendered reply and adds
/// the layers' time to *layers_ns.
std::string Decomposed(const Pipeline& p, std::string_view line,
                       SpanLog* log, std::uint64_t id,
                       std::int64_t* layers_ns) {
  const int root = log->Begin(id, "replay.request");
  Result<service::Request> parsed = [&] {
    Step step(log, id, "protocol.parse", root, layers_ns);
    return service::ParseRequest(line);
  }();
  const service::Request request = Check(std::move(parsed), "parse");
  Result<ir::Query> analyzed = [&] {
    Step step(log, id, "ir.analyze", root, layers_ns);
    return ir::ParseAnnotatedQuery(*p.analyzer, request.query_text);
  }();
  const ir::Query query = Check(std::move(analyzed), "analyze");

  const broker::Metasearcher& broker = *p.reg->broker;
  std::vector<broker::EngineSelection> ranked;
  ranked.reserve(broker.num_engines());
  std::vector<std::size_t> misses;
  std::vector<std::string> miss_keys;
  {
    Step step(log, id, "cache.lookup", root, layers_ns);
    std::string query_key = service::QueryCache::MakeKey(
        request.estimator, request.threshold, query);
    for (std::size_t i = 0; i < broker.num_engines(); ++i) {
      std::string key = EngineKey(broker.engine_name(i), i, query_key);
      if (auto hit = p.cache->Get(key)) {
        ranked.push_back({std::string(broker.engine_name(i)), *hit});
      } else {
        misses.push_back(i);
        miss_keys.push_back(std::move(key));
      }
    }
  }
  std::vector<estimate::UsefulnessEstimate> computed(misses.size());
  for (std::size_t k = 0; k < misses.size(); ++k) {
    Step step(log, id, "estimate.engine", root, layers_ns);
    computed[k] = broker.EstimateEngine(misses[k], query, request.threshold,
                                        *p.estimator);
  }
  if (!misses.empty()) {
    Step step(log, id, "cache.put", root, layers_ns);
    for (std::size_t k = 0; k < misses.size(); ++k) {
      p.cache->Put(miss_keys[k], computed[k], 0);
    }
  }
  for (std::size_t k = 0; k < misses.size(); ++k) {
    ranked.push_back(
        {std::string(broker.engine_name(misses[k])), computed[k]});
  }
  {
    Step step(log, id, "broker.rank", root, layers_ns);
    std::sort(ranked.begin(), ranked.end(), broker::RankedBefore);
  }
  std::vector<broker::EngineSelection> selected;
  {
    Step step(log, id, "broker.policy", root, layers_ns);
    if (request.kind == service::CommandKind::kRoute) {
      selected = broker::ThresholdPolicy().Apply(std::move(ranked));
      if (request.topk > 0) {
        selected = broker::TopKPolicy(request.topk).Apply(std::move(selected));
      }
    } else {
      selected = std::move(ranked);
    }
  }
  std::string rendered;
  {
    Step step(log, id, "protocol.serialize", root, layers_ns);
    service::Reply reply;
    reply.payload.reserve(selected.size());
    for (const broker::EngineSelection& sel : selected) {
      reply.payload.push_back(sel.engine + ' ' +
                              service::FormatScore(sel.estimate.no_doc) +
                              ' ' +
                              service::FormatScore(sel.estimate.avg_sim));
    }
    rendered = service::RenderReply(reply);
  }
  log->End(root);
  return rendered;
}

/// The front-end's merge of `expected` split by shard; true when it
/// reassembles the same payload.
bool Merge(const std::string& expected, SpanLog* log, std::uint64_t id) {
  std::vector<std::string> lines = PayloadLines(expected);
  std::vector<std::vector<std::string>> parts(kShards);
  for (const std::string& line : lines) {
    std::string engine = line.substr(0, line.find(' '));
    parts[util::ShardForEngine(engine, kShards)].push_back(line);
  }
  std::vector<std::string> merged_lines;
  const int h = log->Begin(id, "cluster.merge");
  std::vector<cluster::RankedLine> merged;
  for (const std::vector<std::string>& part : parts) {
    Check(cluster::ParseRankingPayload(part, &merged), "merge parse");
  }
  cluster::SortRanking(&merged);
  for (const cluster::RankedLine& line : merged) {
    merged_lines.push_back(cluster::FormatRankedLine(line));
  }
  log->End(h);
  return merged_lines == lines;
}

double SumUs(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

double MedianMs(const std::vector<std::int64_t>& ns) {
  std::vector<double> ms;
  for (std::int64_t v : ns) ms.push_back(static_cast<double>(v) / 1e6);
  return Median(ms);
}

}  // namespace

ReplayReport Replay(const WorkloadSpec& spec, const Testbed& tb,
                    const RequestPool& pool, std::uint64_t seed,
                    std::size_t requests, SpanLog* spans) {
  ReplayReport report;
  report.requests = requests;
  text::Analyzer analyzer;

  // Representative loading, as a server start pays it.
  std::vector<std::int64_t> load_ns, open_ns;
  for (int r = 0; r < 3; ++r) {
    const int h = spans->Begin(spans->NewRequest(), "represent.load");
    for (const std::string& path : tb.AllRepPaths()) {
      Check(represent::LoadRepresentative(path), path);
    }
    spans->End(h);
    load_ns.push_back(spans->DurationNs(h));
  }
  for (int r = 0; r < 5; ++r) {
    const int h = spans->Begin(spans->NewRequest(), "represent.store_open");
    Check(represent::StoreView::Open(tb.PackedPath()), tb.PackedPath());
    spans->End(h);
    open_ns.push_back(spans->DurationNs(h));
  }

  const Registry reg = Load(&analyzer, spec.topology, tb);
  const service::Request first =
      Check(service::ParseRequest(pool.Line(0)), "parse");
  const auto estimator = Check(estimate::MakeEstimator(first.estimator),
                               "estimator");
  service::QueryCache cache;
  const Pipeline pipeline{&analyzer, &reg, estimator.get(), &cache};
  service::ServiceOptions options;
  options.representative_paths = ServedPaths(spec.topology, tb);
  options.trace_sample_rate = 0;
  auto service = Check(service::Service::Create(&analyzer, options),
                       "in-process service");

  std::mt19937_64 rng(seed ^ 0x7e91a7ULL);
  // Warm both caches with the workload's own mix, untimed.
  SpanLog scratch;
  for (std::size_t n = 0; n < requests; ++n) {
    std::size_t index = pool.Sample(rng);
    std::int64_t ignored = 0;
    Decomposed(pipeline, pool.Line(index), &scratch, 0, &ignored);
    service->Execute(pool.Line(index));
  }

  std::vector<double> self_us;
  std::vector<std::size_t> sampled;
  for (std::size_t n = 0; n < requests; ++n) {
    const std::size_t index = pool.Sample(rng);
    sampled.push_back(index);
    const std::uint64_t id = spans->NewRequest();
    std::int64_t layers_ns = 0, exec_ns = 0;
    std::string mine, theirs;
    auto run_service = [&] {
      const int h = spans->Begin(id, "service.execute");
      theirs = service::RenderReply(service->Execute(pool.Line(index)));
      spans->End(h);
      exec_ns = spans->DurationNs(h);
    };
    auto run_mine = [&] {
      mine = Decomposed(pipeline, pool.Line(index), spans, id, &layers_ns);
    };
    // Alternate which path runs second on warm CPU caches.
    if (n % 2 == 0) {
      run_mine();
      run_service();
    } else {
      run_service();
      run_mine();
    }
    if (mine != theirs || mine != pool.expected[index]) ++report.mismatches;
    if (!Merge(pool.expected[index], spans, id)) ++report.mismatches;
    self_us.push_back(static_cast<double>(exec_ns - layers_ns) / 1e3);
  }

  // Estimation, cache insertion, and term lookup for every engine, hit
  // or miss, so each has samples even where the cache absorbs them all.
  std::size_t terms_looked_up = 0;
  const broker::Metasearcher& broker = *reg.broker;
  service::QueryCache probe_cache;
  for (std::size_t n = 0; n < std::min<std::size_t>(requests, 300); ++n) {
    const service::Request request =
        Check(service::ParseRequest(pool.Line(sampled[n])), "parse");
    const ir::Query query = Check(
        ir::ParseAnnotatedQuery(analyzer, request.query_text), "analyze");
    const std::string query_key = service::QueryCache::MakeKey(
        request.estimator, request.threshold, query);
    const std::uint64_t id = spans->NewRequest();
    for (std::size_t i = 0; i < broker.num_engines(); ++i) {
      int h = spans->Begin(id, "estimate.probe");
      const estimate::UsefulnessEstimate estimate =
          broker.EstimateEngine(i, query, request.threshold, *estimator);
      spans->End(h);
      const std::string key = EngineKey(broker.engine_name(i), n, query_key);
      h = spans->Begin(id, "cache.put_probe");
      probe_cache.Put(key, estimate, 0);
      spans->End(h);
    }
    for (std::size_t i = 0; i < broker.num_engines(); ++i) {
      const int h = spans->Begin(id, "represent.find");
      for (const ir::QueryTerm& term : query.terms) {
        if (reg.store != nullptr) {
          reg.store->engine(i).Find(term.term);
        } else {
          Check(broker.FindRepresentative(broker.engine_name(i)), "find")
              ->Find(term.term);
        }
      }
      spans->End(h);
      terms_looked_up += query.terms.size();
    }
  }

  // The churn verbs against the warmed in-process service.
  const bool packed = spec.topology == Topology::kPacked;
  std::vector<std::int64_t> update_ns, add_ns, drop_ns;
  std::uint64_t expired_before = service->cache().counters().expired;
  const int kUpdates = 5;
  for (int k = 0; k < kUpdates; ++k) {
    const std::string& engine = tb.engines[k % tb.engines.size()];
    const int h = spans->Begin(spans->NewRequest(), "service.update");
    Check(service->UpdateEngines(
              packed ? tb.SinglePackPath(engine) : tb.RepPath(engine), nullptr),
          "update");
    spans->End(h);
    update_ns.push_back(spans->DurationNs(h));
  }
  const double expired = static_cast<double>(
      service->cache().counters().expired - expired_before);
  for (int k = 0; k < 3; ++k) {
    int h = spans->Begin(spans->NewRequest(), "service.add");
    Check(service->AddEngines(packed ? tb.ExtraPackPath() : tb.ExtraRepPath(),
                              nullptr),
          "add");
    spans->End(h);
    add_ns.push_back(spans->DurationNs(h));
    h = spans->Begin(spans->NewRequest(), "service.drop");
    Check(service->DropEngine(Testbed::kExtraEngine), "drop");
    spans->End(h);
    drop_ns.push_back(spans->DurationNs(h));
  }

  std::map<std::string, std::vector<double>> self = spans->SelfTimesUs();
  auto median = [&](const char* name) { return Median(self[name]); };
  report.exec_mean_us = SumUs(self["service.execute"]) /
                        static_cast<double>(requests);
  const std::size_t probes = self["estimate.probe"].size();
  report.metrics = {
      {"protocol.parse_us", median("protocol.parse"), "us", requests},
      {"ir.analyze_us", median("ir.analyze"), "us", requests},
      {"cache.lookup_us_per_req", median("cache.lookup"), "us", requests},
      {"cache.put_us", median("cache.put_probe"), "us",
       self["cache.put_probe"].size()},
      {"broker.rank_us", median("broker.rank"), "us", requests},
      {"broker.policy_us", median("broker.policy"), "us", requests},
      {"protocol.serialize_us", median("protocol.serialize"), "us",
       requests},
      {"service.self_us", Median(self_us), "us", requests},
      {"estimate.engine_p50_us", Percentile(self["estimate.probe"], 50), "us",
       probes},
      {"estimate.engine_p99_us", Percentile(self["estimate.probe"], 99), "us",
       probes},
      {"represent.find_us_per_term",
       SumUs(self["represent.find"]) /
           static_cast<double>(std::max<std::size_t>(terms_looked_up, 1)),
       "us"},
      {"cluster.merge_us", median("cluster.merge"), "us", requests},
      {"service.update_ms", MedianMs(update_ns), "ms", update_ns.size()},
      {"service.add_ms", MedianMs(add_ns), "ms", add_ns.size()},
      {"service.drop_ms", MedianMs(drop_ns), "ms", drop_ns.size()},
      {"cache.expired_per_update", expired / kUpdates, "count"},
      {"represent.load_ms", MedianMs(load_ns), "ms", load_ns.size()},
      {"represent.store_open_ms", MedianMs(open_ns), "ms", open_ns.size()},
  };
  return report;
}

}  // namespace useful::e2e
