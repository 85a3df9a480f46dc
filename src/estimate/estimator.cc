#include "estimate/estimator.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace useful::estimate {

long RoundNoDoc(double no_doc) {
  if (no_doc <= 0.0) return 0;
  return std::lround(no_doc);
}

void UsefulnessEstimator::EstimateBatch(
    const ResolvedQuery& rq, std::span<const double> thresholds,
    ExpansionWorkspace& ws, std::span<UsefulnessEstimate> out) const {
  (void)ws;  // the scalar fallback has no scratch to reuse
  if (!rq.has_representative()) {
    // A view- or table-backed query has no Representative to hand the
    // scalar API; dereferencing one would be undefined behaviour.
    std::fprintf(stderr,
                 "estimator %s does not override EstimateBatch, so it "
                 "cannot score a query resolved without a Representative\n",
                 name().c_str());
    std::abort();
  }
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    out[i] = Estimate(rq.representative(), rq.query(), thresholds[i]);
  }
}

}  // namespace useful::estimate
