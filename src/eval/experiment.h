// The experiment driver that reproduces the paper's tables: runs a set of
// estimation methods against one database's ground truth over a query log
// and a threshold sweep.
#pragma once

#include <vector>

#include "corpus/query_log.h"
#include "estimate/estimator.h"
#include "eval/metrics.h"
#include "ir/search_engine.h"
#include "represent/representative.h"

namespace useful::eval {

/// Sweep configuration; defaults to the paper's thresholds.
struct ExperimentConfig {
  std::vector<double> thresholds = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
  /// Worker threads for the per-query fan-out. 1 (default) is fully
  /// serial; 0 means the CPUs this process may run on. The tables are
  /// bit-identical at every setting: each query's ground truth and
  /// estimates are computed independently, stored at the query's index,
  /// and folded into the accumulators in query order on the calling
  /// thread.
  std::size_t threads = 1;
};

/// One method under test: an estimator paired with the representative it
/// reads (so quantized/triplet variants can be compared side by side
/// against the same ground truth).
struct MethodUnderTest {
  const estimate::UsefulnessEstimator* estimator = nullptr;
  const represent::Representative* representative = nullptr;
  /// Table column label; falls back to estimator->name() when empty.
  std::string label;
};

/// Runs the sweep. `engine` supplies exact ground truth; queries are parsed
/// with the engine's own analyzer. Ground-truth similarities are computed
/// once per query and reused across thresholds.
std::vector<ThresholdRow> RunExperiment(
    const ir::SearchEngine& engine,
    const std::vector<corpus::Query>& queries,
    const std::vector<MethodUnderTest>& methods,
    const ExperimentConfig& config = {});

/// Pre-parsed variant for callers that already hold ir::Query objects.
std::vector<ThresholdRow> RunExperimentParsed(
    const ir::SearchEngine& engine, const std::vector<ir::Query>& queries,
    const std::vector<MethodUnderTest>& methods,
    const ExperimentConfig& config = {});

}  // namespace useful::eval
