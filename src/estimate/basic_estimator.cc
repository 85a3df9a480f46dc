#include "estimate/basic_estimator.h"

namespace useful::estimate {

void BasicEstimator::EstimateBatch(const ResolvedQuery& rq,
                                   std::span<const double> thresholds,
                                   ExpansionWorkspace& ws,
                                   std::span<UsefulnessEstimate> out) const {
  ws.ResetFactors(rq.terms().size());
  std::size_t used = 0;
  std::size_t used_positive = 0;
  for (const ResolvedTerm& rt : rq.terms()) {
    if (rt.stats.p <= 0.0 || rt.stats.avg_weight <= 0.0) continue;
    TermPolynomial& poly = ws.factors()[used++];
    double exponent = rt.weight * rt.stats.avg_weight;
    if (rt.negated) {
      exponent = -exponent;
    } else {
      ++used_positive;  // positives precede negated terms in rq.terms()
    }
    poly.spikes.push_back(Spike{exponent, rt.stats.p});
  }
  ws.factors().resize(used);

  // The factor list does not depend on the threshold, so one expansion
  // serves the whole sweep.
  std::span<const Spike> spikes =
      rq.min_should_match() == 0
          ? SimilarityDistribution::ExpandWith(ws, expand_)
          : SimilarityDistribution::ExpandWithMinMatch(
                ws, used_positive, rq.min_should_match(), expand_);
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    out[i].no_doc = SimilarityDistribution::EstimateNoDoc(
        spikes, thresholds[i], rq.num_docs());
    out[i].avg_sim = SimilarityDistribution::EstimateAvgSim(spikes,
                                                            thresholds[i]);
  }
}

}  // namespace useful::estimate
