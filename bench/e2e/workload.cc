#include "workload.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>

#include "common.h"
#include "service/connection.h"
#include "service/protocol.h"
#include "service/service.h"
#include "text/analyzer.h"
#include "util/engine_hash.h"
#include "util/string_util.h"

namespace useful::e2e {

// The high rates sit at 35-50% of each workload's closed-loop ceiling on
// the calibration box, where p95 stays well under the 10 ms limit.
const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {.name = "hot-route",
       .topology = Topology::kSingle,
       .verb = "ROUTE subrange 0.2 0",
       .distinct = 64,
       .zipf = 0.99,
       .annotated = false,
       .read_conns = 4,
       .churn = false,
       .low_qps = 3000,
       .high_qps = 20000},
      {.name = "cold-route",
       .topology = Topology::kSingle,
       .verb = "ROUTE subrange 0.2 0",
       .distinct = 0,
       .zipf = 0.0,
       .annotated = false,
       .read_conns = 4,
       .churn = false,
       .low_qps = 1000,
       .high_qps = 3000},
      {.name = "cluster-2x2",
       .topology = Topology::kCluster,
       .verb = "ROUTE subrange 0.2 0",
       .distinct = 4096,
       .zipf = 0.99,
       .annotated = false,
       .read_conns = 4,
       .churn = false,
       .low_qps = 1000,
       .high_qps = 2000},
      {.name = "churn-packed",
       .topology = Topology::kPacked,
       .verb = "ESTIMATE subrange 0.2",
       .distinct = 1024,
       .zipf = 0.99,
       .annotated = true,
       .read_conns = 3,
       .churn = true,
       .low_qps = 1000,
       .high_qps = 4500},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> ServedFlags() {
  return {"--threads", "2", "--reactor-threads", "1"};
}

std::vector<std::string> ShardFlags(std::size_t shard) {
  return {"--threads",    "1", "--reactor-threads", "1",
          "--num-shards", std::to_string(kShards),
          "--shard-index", std::to_string(shard)};
}

std::vector<std::string> FrontendFlags() {
  return {"--threads", "2", "--reactor-threads", "1"};
}

std::size_t RequestPool::Sample(std::mt19937_64& rng) const {
  double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return it == cdf.end() ? cdf.size() - 1
                         : static_cast<std::size_t>(it - cdf.begin());
}

bool RequestPool::Matches(std::size_t index, std::string_view reply) const {
  return reply == expected[index] ||
         (!expected_alt.empty() && reply == expected_alt[index]);
}

std::vector<std::string> ServedPaths(Topology topology, const Testbed& tb) {
  if (topology == Topology::kPacked) return {tb.PackedPath()};
  return tb.AllRepPaths();
}

std::vector<std::string> ShardPaths(std::size_t shard, const Testbed& tb) {
  std::vector<std::string> paths;
  for (const std::string& engine : tb.engines) {
    if (util::ShardForEngine(engine, kShards) == shard) {
      paths.push_back(tb.RepPath(engine));
    }
  }
  return paths;
}

namespace {

/// Seeded annotations in the grammar of ir::ParseAnnotatedQuery: some
/// terms weighted, at most one negated (never the only positive one), and
/// sometimes an MSM bound no larger than the positive term count.
std::string Annotate(const std::string& text, std::mt19937_64& rng) {
  std::vector<std::string_view> terms = SplitNonEmpty(text, " ");
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  static const char* kWeights[] = {"0.5", "1.5", "2", "3"};
  std::size_t negated = terms.size();
  if (terms.size() >= 2 && coin(rng) < 0.3) negated = rng() % terms.size();
  std::string out;
  for (std::size_t i = 0; i < terms.size(); ++i) {
    if (!out.empty()) out.push_back(' ');
    if (i == negated) out.push_back('-');
    out += terms[i];
    if (coin(rng) < 0.3) {
      out.push_back('^');
      out += kWeights[rng() % 4];
    }
  }
  std::size_t positives = terms.size() - (negated < terms.size() ? 1 : 0);
  if (positives >= 2 && coin(rng) < 0.3) {
    out += " MSM " + std::to_string(1 + rng() % positives);
  }
  return out;
}

std::vector<std::string> Render(service::Service* service,
                                const std::vector<std::string>& lines) {
  std::vector<std::string> replies(lines.size());
  // The replies are pure functions of (line, representatives), so the
  // precomputation splits across threads; it is not part of any timing.
  const std::size_t threads = 4;
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = t; i < lines.size(); i += threads) {
        std::string_view line(lines[i]);
        line.remove_suffix(1);  // the '\n'
        replies[i] = service::RenderReply(service->Execute(line));
      }
    });
  }
  for (std::thread& th : pool) th.join();
  return replies;
}

std::unique_ptr<service::Service> MakeService(
    const text::Analyzer* analyzer, std::vector<std::string> paths) {
  service::ServiceOptions options;
  options.representative_paths = std::move(paths);
  options.trace_sample_rate = 0;
  return Check(service::Service::Create(analyzer, std::move(options)),
               "in-process service");
}

}  // namespace

RequestPool BuildPool(const WorkloadSpec& spec, const Testbed& tb,
                      std::uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 0x5eed);
  std::vector<std::size_t> order(tb.queries.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);

  text::Analyzer analyzer;
  auto service = MakeService(&analyzer, ServedPaths(spec.topology, tb));
  std::unique_ptr<service::Service> alt_service;
  if (spec.churn) {
    std::vector<std::string> paths = ServedPaths(spec.topology, tb);
    paths.push_back(tb.ExtraPackPath());
    alt_service = MakeService(&analyzer, std::move(paths));
  }

  RequestPool pool;
  const std::size_t want = spec.distinct == 0 ? order.size() : spec.distinct;
  std::size_t next = 0;
  while (pool.lines.size() < want && next < order.size()) {
    std::vector<std::string> batch;
    for (std::size_t n = want - pool.lines.size();
         n > 0 && next < order.size(); --n, ++next) {
      const std::string& text = tb.queries[order[next]];
      batch.push_back(std::string(spec.verb) + ' ' +
                      (spec.annotated ? Annotate(text, rng) : text) + '\n');
    }
    std::vector<std::string> replies = Render(service.get(), batch);
    std::vector<std::string> alt_replies;
    if (alt_service) alt_replies = Render(alt_service.get(), batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      // A rejected query (say, one that analyzes to nothing) would be a
      // failure the server is right to report; leave it out of the mix.
      if (replies[i].rfind("OK ", 0) != 0) continue;
      if (alt_service && alt_replies[i].rfind("OK ", 0) != 0) continue;
      pool.lines.push_back(std::move(batch[i]));
      pool.expected.push_back(std::move(replies[i]));
      if (alt_service) pool.expected_alt.push_back(std::move(alt_replies[i]));
    }
  }
  if (pool.lines.empty() ||
      (spec.distinct != 0 && pool.lines.size() < want)) {
    Fail("too few servable queries in the log");
  }

  double total = 0.0;
  for (std::size_t r = 0; r < pool.lines.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), spec.zipf);
    pool.cdf.push_back(total);
  }
  for (double& c : pool.cdf) c /= total;
  return pool;
}

RequestPool ShardPool(const RequestPool& pool, std::size_t shard) {
  RequestPool out;
  out.cdf = pool.cdf;
  for (std::size_t i = 0; i < pool.lines.size(); ++i) {
    auto request = service::ParseRequest(pool.Line(i));
    if (!request.ok()) Fail("unparseable pool line");
    const service::Request& r = request.value();
    const bool route = r.kind == service::CommandKind::kRoute;
    // The front-end's downstream form (cluster/frontend.cc DoRank).
    out.lines.push_back((route ? "ROUTE " : "ESTIMATE ") + r.estimator + ' ' +
                        service::FormatScore(r.threshold) +
                        (route ? " 0 " : " ") + r.query_text + '\n');
    std::vector<std::string> kept;
    const std::string& full = pool.expected[i];
    std::size_t pos = full.find('\n') + 1;  // past the OK header
    while (pos < full.size()) {
      std::size_t eol = full.find('\n', pos);
      std::string payload = full.substr(pos, eol - pos);
      std::string engine = payload.substr(0, payload.find(' '));
      if (util::ShardForEngine(engine, kShards) == shard) {
        kept.push_back(std::move(payload));
      }
      pos = eol + 1;
    }
    service::Reply reply;
    reply.payload = std::move(kept);
    out.expected.push_back(service::RenderReply(reply));
  }
  return out;
}

}  // namespace useful::e2e
