// The gGlOSS goodness measure and its estimators (paper §2).
//
// gGlOSS ranks databases by Goodness(T,q,D) = sum of sim(q,d) over
// documents with sim(q,d) > T — a similarity *sum*, less informative than
// the paper's (NoDoc, AvgSim) pair but historically important. The paper
// notes that for this sum measure the two gGlOSS estimators bracket the
// truth ("the estimates produced by the two methods in gGlOSS form lower
// and upper bounds to the true similarity sum"), a relationship that no
// longer holds once the measure is the document count — the bench
// empirically reproduces both halves of that observation.
//
// Every estimator in this library yields the sum measure for free:
// Goodness = est_NoDoc * est_AvgSim.
#pragma once

#include "estimate/estimator.h"
#include "ir/search_engine.h"

namespace useful::estimate {

/// Similarity-sum goodness implied by a usefulness estimate.
inline double GoodnessOf(const UsefulnessEstimate& est) {
  return est.no_doc * est.avg_sim;
}

/// Exact goodness from ground truth.
inline double GoodnessOf(const ir::Usefulness& truth) {
  return static_cast<double>(truth.no_doc) * truth.avg_sim;
}

}  // namespace useful::estimate
