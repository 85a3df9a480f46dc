// Common interface of all usefulness estimators.
//
// An estimator sees only a database's Representative (never its documents)
// plus the query and threshold, and predicts the usefulness pair
// (NoDoc, AvgSim). The evaluation harness compares these predictions with
// the exact values computed by ir::SearchEngine.
//
// Every estimator scores in one place, EstimateBatch: a query resolved
// once against a representative, term table or store view, scored at a
// sweep of thresholds the way the paper's tables score every method. The
// scalar Estimate is that call at one threshold.
#pragma once

#include <span>
#include <string>

#include "estimate/generating_function.h"
#include "estimate/resolved_query.h"
#include "ir/query.h"
#include "represent/representative.h"

namespace useful::estimate {

/// An estimated usefulness pair. `no_doc` is the *expected* count (a real
/// number); the paper rounds it to an integer before comparison, which the
/// eval module does via RoundNoDoc.
struct UsefulnessEstimate {
  double no_doc = 0.0;
  double avg_sim = 0.0;
};

/// Rounds an expected document count the way the paper does before the
/// match/mismatch and d-N comparisons ("all estimated usefulnesses are
/// rounded to integers").
long RoundNoDoc(double no_doc);

/// Interface implemented by the subrange method and every baseline.
class UsefulnessEstimator {
 public:
  virtual ~UsefulnessEstimator() = default;

  /// Human-readable method name for tables and logs.
  virtual std::string name() const = 0;

  /// Scores one resolved (query, representative) pair at every threshold
  /// in `thresholds`, writing `out[i]` for `thresholds[i]`
  /// (`out.size() >= thresholds.size()`). `ws` supplies reusable
  /// expansion scratch; it must be private to the calling thread. An
  /// override may amortize expansion work over the sweep, never change
  /// values: `out[i]` is bit-identical to Estimate(rq, thresholds[i]),
  /// whatever `ws` held before the call.
  virtual void EstimateBatch(const ResolvedQuery& rq,
                             std::span<const double> thresholds,
                             ExpansionWorkspace& ws,
                             std::span<UsefulnessEstimate> out) const = 0;

  /// EstimateBatch at the one threshold `threshold`, with a fresh
  /// workspace.
  UsefulnessEstimate Estimate(const ResolvedQuery& rq,
                              double threshold) const;

  /// Resolves `q` against `rep` and estimates the usefulness of the
  /// database it summarizes at similarity threshold `threshold`.
  UsefulnessEstimate Estimate(const represent::Representative& rep,
                              const ir::Query& q, double threshold) const;
};

}  // namespace useful::estimate
