// Common interface of all usefulness estimators.
//
// An estimator sees only a database's Representative (never its documents)
// plus the query and threshold, and predicts the usefulness pair
// (NoDoc, AvgSim). The evaluation harness compares these predictions with
// the exact values computed by ir::SearchEngine.
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

  /// Estimates the usefulness of the database summarized by `rep` for
  /// query `q` at similarity threshold `threshold`.
  virtual UsefulnessEstimate Estimate(const represent::Representative& rep,
                                      const ir::Query& q,
                                      double threshold) const = 0;

  /// Batched form of Estimate: one already-resolved (query, representative)
  /// pair scored at every threshold in `thresholds`, writing `out[i]` for
  /// `thresholds[i]` (`out.size() >= thresholds.size()`). `ws` supplies
  /// reusable expansion scratch; it must be private to the calling thread.
  ///
  /// Contract: bit-identical to calling Estimate(rq.representative(),
  /// rq.query(), thresholds[i]) for each i — overrides exist purely to
  /// amortize term resolution and expansion work, never to change values.
  /// The default implementation is that scalar loop; it aborts on a query
  /// resolved from a term table or store view (no representative()), so
  /// an estimator served by a broker must override this.
  virtual void EstimateBatch(const ResolvedQuery& rq,
                             std::span<const double> thresholds,
                             ExpansionWorkspace& ws,
                             std::span<UsefulnessEstimate> out) const;
};

}  // namespace useful::estimate
