// Reconstruction of the paper's "our previous method" — Meng et al.,
// "Determining Text Databases to Search in the Internet", VLDB 1998.
//
// The ICDE'99 paper describes it as "similar to the basic method ... except
// that it also utilizes the standard deviation of the weights of each term
// ... to dynamically adjust the average weight and probability of each
// query term according to the threshold used for the query". No further
// spec is public, so we reconstruct the adjustment with the natural
// truncated-normal rule (documented in DESIGN.md):
//
//   For threshold T and a query with r matching terms, a document can only
//   clear T if, on average, each term contributes T/r. Under the normal
//   weight model N(w, sigma^2), restrict each term to the containing
//   documents whose weight reaches lambda = (T/r)/u:
//
//     z  = (lambda - w) / sigma
//     p' = p * P(Z >= z)                      (tail probability)
//     w' = w + sigma * E[Z | Z >= z]          (truncated mean)
//
//   and run the basic generating function on (p', w'). As T -> 0 the rule
//   degenerates to the basic method; at large T it models "only the
//   heavy-weight documents count", which is exactly the behaviour the
//   ICDE'99 paper attributes to its predecessor.
#pragma once

#include "estimate/estimator.h"
#include "estimate/generating_function.h"

namespace useful::estimate {

/// Threshold-adaptive generating-function estimator (VLDB'98 baseline).
class AdaptiveEstimator : public UsefulnessEstimator {
 public:
  explicit AdaptiveEstimator(ExpandOptions expand = {}) : expand_(expand) {}

  std::string name() const override { return "adaptive-vldb98"; }

  /// The (p, w) adjustment is threshold-dependent, so each threshold still
  /// expands its own distribution; the batch form amortizes term
  /// resolution and reuses the workspace's spike buffers.
  void EstimateBatch(const ResolvedQuery& rq,
                     std::span<const double> thresholds,
                     ExpansionWorkspace& ws,
                     std::span<UsefulnessEstimate> out) const override;

 private:
  ExpandOptions expand_;
};

}  // namespace useful::estimate
