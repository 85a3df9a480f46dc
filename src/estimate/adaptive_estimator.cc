#include "estimate/adaptive_estimator.h"

#include <algorithm>

#include "util/normal.h"

namespace useful::estimate {

void AdaptiveEstimator::EstimateBatch(const ResolvedQuery& rq,
                                      std::span<const double> thresholds,
                                      ExpansionWorkspace& ws,
                                      std::span<UsefulnessEstimate> out) const {
  // r counts the matched *positive* terms before any threshold adjustment:
  // the even threshold share (T/r) is only meaningful for terms that push
  // a document toward the threshold. Negated terms keep their untruncated
  // factor with negated exponents — truncating "the part of the penalty
  // above lambda" has no analogue in the paper's argument.
  std::size_t num_matched = 0;
  for (const ResolvedTerm& rt : rq.terms()) {
    if (rt.negated) continue;
    if (rt.stats.p > 0.0 && rt.stats.avg_weight > 0.0) ++num_matched;
  }
  std::size_t num_matched_negated = 0;
  for (const ResolvedTerm& rt : rq.terms()) {
    if (!rt.negated) continue;
    if (rt.stats.p > 0.0 && rt.stats.avg_weight > 0.0) ++num_matched_negated;
  }
  const double r = static_cast<double>(num_matched);

  // The truncated-normal adjustment depends on the threshold, so each
  // threshold gets its own factor build and expansion; the resolution and
  // the workspace buffers are what the sweep amortizes.
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    const double threshold = thresholds[i];
    ws.ResetFactors(num_matched + num_matched_negated);
    std::size_t used = 0;
    std::size_t used_positive = 0;
    for (const ResolvedTerm& rt : rq.terms()) {
      const represent::TermStats& ts = rt.stats;
      if (ts.p <= 0.0 || ts.avg_weight <= 0.0) continue;
      const double u = rt.weight;
      double p = ts.p;
      double w = ts.avg_weight;
      if (!rt.negated && ts.stddev > 0.0 && threshold > 0.0) {
        // Per-term weight cutoff for an even threshold share.
        double lambda = (threshold / r) / u;
        double z = (lambda - w) / ts.stddev;
        double tail = normal::UpperTailProb(z);
        if (tail > 0.0) {
          p = ts.p * tail;
          w = ts.avg_weight + ts.stddev * normal::UpperTailMean(z);
        } else {
          p = 0.0;
        }
      }
      if (p <= 0.0 || w <= 0.0) continue;
      TermPolynomial& poly = ws.factors()[used++];
      double exponent = u * w;
      if (rt.negated) {
        exponent = -exponent;
      } else {
        ++used_positive;  // positives precede negated terms in rq.terms()
      }
      poly.spikes.push_back(Spike{exponent, std::min(p, 1.0)});
    }
    ws.factors().resize(used);

    std::span<const Spike> spikes =
        rq.min_should_match() == 0
            ? SimilarityDistribution::ExpandWith(ws, expand_)
            : SimilarityDistribution::ExpandWithMinMatch(
                  ws, used_positive, rq.min_should_match(), expand_);
    out[i].no_doc = SimilarityDistribution::EstimateNoDoc(spikes, threshold,
                                                          rq.num_docs());
    out[i].avg_sim = SimilarityDistribution::EstimateAvgSim(spikes, threshold);
  }
}

}  // namespace useful::estimate
