// The paper's contribution: the subrange-based usefulness estimator.
//
// For each query term the estimator replaces the single-weight factor of
// the basic method with a subrange decomposition (Expression (8)):
//
//   p_max*X^(u*mw) + sum_j p_j*X^(u*w_mj) + (1 - p)
//
// where w_mj = w + Phi^{-1}(pct_j) * sigma is the normal-approximated
// median of subrange j, p_j its share of the containment probability, and
// the optional highest subrange carries exactly the maximum normalized
// weight mw with probability 1/n. With quadruplet representatives mw is
// stored; with triplets it is estimated as a high percentile of the normal
// approximation (the paper uses 99.9%, Tables 10-12).
#pragma once

#include "estimate/estimator.h"
#include "estimate/generating_function.h"
#include "estimate/subrange_config.h"

namespace useful::estimate {

/// Tunables of the subrange estimator.
struct SubrangeEstimatorOptions {
  /// Subrange layout; defaults to the paper's experimental six-subrange
  /// configuration.
  SubrangeConfig config = SubrangeConfig::PaperSix();
  /// Expansion controls.
  ExpandOptions expand;
};

/// Subrange-based estimator (Section 3.1 of the paper).
class SubrangeEstimator : public UsefulnessEstimator {
 public:
  explicit SubrangeEstimator(SubrangeEstimatorOptions options = {})
      : options_(std::move(options)) {}

  std::string name() const override;

  /// Threshold-independent factors: resolves once, expands once, then reads
  /// every threshold off the same distribution.
  void EstimateBatch(const ResolvedQuery& rq,
                     std::span<const double> thresholds,
                     ExpansionWorkspace& ws,
                     std::span<UsefulnessEstimate> out) const override;

  /// Exposed for tests and for composing custom generating functions: the
  /// polynomial factor of one query term with weight `u` against stats
  /// `ts` in a database of `num_docs` documents. A negated term's factor
  /// carries the same probabilities with negated exponents.
  TermPolynomial BuildTermPolynomial(const represent::TermStats& ts, double u,
                                     std::size_t num_docs,
                                     represent::RepresentativeKind kind,
                                     bool negated = false) const;

  const SubrangeEstimatorOptions& options() const { return options_; }

 private:
  /// Appends the term's spikes into `poly` (assumed empty) — the
  /// allocation-free core of BuildTermPolynomial.
  void AppendTermSpikes(const represent::TermStats& ts, double u,
                        std::size_t num_docs,
                        represent::RepresentativeKind kind, bool negated,
                        TermPolynomial* poly) const;

  SubrangeEstimatorOptions options_;
};

}  // namespace useful::estimate
