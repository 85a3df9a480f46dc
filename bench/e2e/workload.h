// The four workloads, frozen: topology, request mix, connections, and the
// fixed low/high arrival rates. Changing any value here changes what the
// benchmark measures, so it needs a new baseline (see README.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "testbed.h"

namespace useful::e2e {

enum class Topology {
  kSingle,   // one useful_served over the 53 URP1 .rep files
  kCluster,  // useful_frontend over 2 shards x 2 replicas of useful_served
  kPacked,   // one useful_served over the single 53-engine URPZ store
};

struct WorkloadSpec {
  const char* name;
  Topology topology;
  /// Request prefix; the query text follows after one space.
  const char* verb;
  /// Distinct queries drawn from the log by seed; 0 takes the whole log.
  std::size_t distinct;
  /// Zipf exponent over the pool; 0 samples it uniformly.
  double zipf;
  /// Seeded weights, negations, and MSM on the queries.
  bool annotated;
  /// Read-traffic connections (all on the generator's one thread).
  std::size_t read_conns;
  /// A separate admin connection issues UPDATE/ADD/DROP while reads run.
  bool churn;
  /// Open-loop Poisson arrival rates, requests/s.
  double low_qps;
  double high_qps;
};

const std::vector<WorkloadSpec>& Workloads();
/// Null when `name` is unknown.
const WorkloadSpec* FindWorkload(std::string_view name);

/// Shards and replicas of the cluster topology.
inline constexpr std::size_t kShards = 2;
inline constexpr std::size_t kReplicas = 2;

/// Per-role server flags, the same for every workload.
std::vector<std::string> ServedFlags();
std::vector<std::string> ShardFlags(std::size_t shard);
std::vector<std::string> FrontendFlags();

/// The requests of one run and the exact bytes a correct server answers.
struct RequestPool {
  /// Wire lines, each ending in '\n'.
  std::vector<std::string> lines;
  /// Rendered replies of an in-process service::Service over the same
  /// representatives.
  std::vector<std::string> expected;
  /// Churn only: the replies with the extra engine registered.
  std::vector<std::string> expected_alt;
  /// Cumulative sampling distribution over `lines`.
  std::vector<double> cdf;

  std::size_t Sample(std::mt19937_64& rng) const;
  bool Matches(std::size_t index, std::string_view reply) const;
  /// Request `index` without its newline.
  std::string_view Line(std::size_t index) const {
    return std::string_view(lines[index]).substr(0, lines[index].size() - 1);
  }
};

/// Draws the workload's queries from the log with `seed`, renders the
/// request lines, and precomputes every reply in-process. Queries the
/// service rejects are skipped, so no request of a run is meant to fail.
RequestPool BuildPool(const WorkloadSpec& spec, const Testbed& testbed,
                      std::uint64_t seed);

/// The representative files a single server of `topology` loads.
std::vector<std::string> ServedPaths(Topology topology, const Testbed& tb);
/// The URP1 files shard `shard` of the cluster loads.
std::vector<std::string> ShardPaths(std::size_t shard, const Testbed& tb);

/// The same requests as the front-end forwards them to shard `shard`,
/// with the replies that shard owes (its engines' lines of the full
/// ranking). Cluster only.
RequestPool ShardPool(const RequestPool& pool, std::size_t shard);

}  // namespace useful::e2e
