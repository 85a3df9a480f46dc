// The basic generating-function method (Proposition 1): every document
// containing a term is assumed to carry the term's *average* weight, so
// each query term contributes the two-spike factor p*X^(u*w) + (1-p).
// This is the uniform-weight baseline the subrange decomposition improves
// upon; it is also the starting point of the VLDB'98 adaptive method.
#pragma once

#include "estimate/estimator.h"
#include "estimate/generating_function.h"

namespace useful::estimate {

/// Uniform-weight generating-function estimator.
class BasicEstimator : public UsefulnessEstimator {
 public:
  explicit BasicEstimator(ExpandOptions expand = {}) : expand_(expand) {}

  std::string name() const override { return "basic"; }

  /// Threshold-independent factors: resolves once, expands once, then reads
  /// every threshold off the same distribution.
  void EstimateBatch(const ResolvedQuery& rq,
                     std::span<const double> thresholds,
                     ExpansionWorkspace& ws,
                     std::span<UsefulnessEstimate> out) const override;

 private:
  ExpandOptions expand_;
};

}  // namespace useful::estimate
