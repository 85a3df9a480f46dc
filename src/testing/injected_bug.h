// A deliberately broken estimator used to demonstrate that the harness
// catches real bugs: a classic off-by-one in the subrange coefficients.
//
// The wrapper rebuilds each term's containment probability as
// p = (df + 1) / n instead of df / n before delegating to the genuine
// SubrangeEstimator — the kind of mistake a from-scratch implementation
// of Expression (8) makes when it confuses document frequency with a
// 1-based rank. The invariant suite catches it two independent ways:
// a term occurring in every document gets p > 1, pushing NoDoc past n
// (nodoc-range), and a single-term query's NoDoc at T = 0 lands on
// df + 1 instead of df (single-term-nodoc-df). Both shrink to a
// one-term repro.
//
// Both mutants decorate the genuine estimator's EstimateBatch: each
// rebuilds the resolved query with its bug in it and passes that on, so
// they score whatever a broker scores, representative, term table or
// store view alike.
#pragma once

#include <memory>

#include "estimate/estimator.h"

namespace useful::testing {

/// The off-by-one subrange estimator; registers as
/// "subrange[injected-df-off-by-one]".
std::unique_ptr<estimate::UsefulnessEstimator> MakeOffByOneSubrangeEstimator();

/// A sign flip in the negation factor: the wrapper drops every negated
/// flag before delegating, so negated terms *reward* containing engines
/// instead of penalizing them — the exact mistake a port of the annotated
/// grammar makes when it forgets to negate the spike exponents. Caught by
/// negation-all-negated (the all-negated subquery suddenly has mass above
/// T = 0) and shrunk to a single `-term` repro. Registers as
/// "subrange[injected-negation-sign-flip]".
std::unique_ptr<estimate::UsefulnessEstimator>
MakeNegationSignFlipEstimator();

}  // namespace useful::testing
