// The gGlOSS baselines (Gravano & Garcia-Molina, VLDB'95 + tech report),
// adapted — as in the paper's §2/§4 — to estimate the (NoDoc, AvgSim)
// usefulness measure rather than gGlOSS's similarity-sum goodness.
//
// Both rest on an extreme assumption about term co-occurrence:
//
//  * high-correlation: if query term j appears in at least as many
//    documents as query term k, every document containing k also contains
//    j. Sorting the query terms by descending document frequency
//    df_(1) >= ... >= df_(r) yields nested document sets, so exactly
//    df_(j) - df_(j+1) documents contain precisely the top-j terms and
//    score sim_j = sum_{i<=j} u_(i) * w_(i)  (df_(r+1) := 0).
//
//  * disjoint: the document sets of distinct query terms are disjoint, so
//    df_i documents score exactly u_i * w_i and nothing scores more.
//
// The paper reports only the high-correlation baseline in its tables
// (having shown in [15] that disjoint underperforms it); we implement both.
#pragma once

#include "estimate/estimator.h"

namespace useful::estimate {

/// gGlOSS high-correlation estimator.
class HighCorrelationEstimator : public UsefulnessEstimator {
 public:
  std::string name() const override { return "high-correlation"; }

  /// Sorts the matched terms and forms the nested-layer prefix sums once
  /// for the whole threshold sweep.
  void EstimateBatch(const ResolvedQuery& rq,
                     std::span<const double> thresholds,
                     ExpansionWorkspace& ws,
                     std::span<UsefulnessEstimate> out) const override;
};

/// gGlOSS disjoint estimator.
class DisjointEstimator : public UsefulnessEstimator {
 public:
  std::string name() const override { return "disjoint"; }

  /// Resolves the matched terms once for the whole threshold sweep.
  void EstimateBatch(const ResolvedQuery& rq,
                     std::span<const double> thresholds,
                     ExpansionWorkspace& ws,
                     std::span<UsefulnessEstimate> out) const override;
};

}  // namespace useful::estimate
