#include "estimate/estimator.h"

#include <cmath>

namespace useful::estimate {

long RoundNoDoc(double no_doc) {
  if (no_doc <= 0.0) return 0;
  return std::lround(no_doc);
}

UsefulnessEstimate UsefulnessEstimator::Estimate(const ResolvedQuery& rq,
                                                 double threshold) const {
  ExpansionWorkspace ws;
  UsefulnessEstimate est;
  EstimateBatch(rq, std::span<const double>(&threshold, 1), ws,
                std::span<UsefulnessEstimate>(&est, 1));
  return est;
}

UsefulnessEstimate UsefulnessEstimator::Estimate(
    const represent::Representative& rep, const ir::Query& q,
    double threshold) const {
  return Estimate(ResolvedQuery(rep, q), threshold);
}

}  // namespace useful::estimate
