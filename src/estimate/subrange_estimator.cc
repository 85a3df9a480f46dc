#include "estimate/subrange_estimator.h"

#include <algorithm>
#include <cmath>

#include "util/normal.h"

namespace useful::estimate {

namespace {

// Percentile of the normal approximation that stands in for the max weight
// of a triplet representative (the paper's 99.9, Tables 10-12).
constexpr double kEstimatedMaxPercentile = 99.9;

}  // namespace

std::string SubrangeEstimator::name() const {
  return "subrange" + options_.config.ToString();
}

TermPolynomial SubrangeEstimator::BuildTermPolynomial(
    const represent::TermStats& ts, double u, std::size_t num_docs,
    represent::RepresentativeKind kind, bool negated) const {
  TermPolynomial poly;
  AppendTermSpikes(ts, u, num_docs, kind, negated, &poly);
  return poly;
}

void SubrangeEstimator::AppendTermSpikes(const represent::TermStats& ts,
                                         double u, std::size_t num_docs,
                                         represent::RepresentativeKind kind,
                                         bool negated,
                                         TermPolynomial* out) const {
  TermPolynomial& poly = *out;
  if (ts.p <= 0.0 || u <= 0.0 || num_docs == 0) return;
  const std::size_t first_spike = poly.spikes.size();

  const SubrangeConfig& config = options_.config;
  const double n = static_cast<double>(num_docs);

  // Resolve the maximum weight: stored (quadruplet) or the normal
  // approximation's high percentile (triplet, Tables 10-12).
  double max_weight;
  if (kind == represent::RepresentativeKind::kQuadruplet) {
    max_weight = ts.max_weight;
  } else {
    max_weight = ts.avg_weight +
                 normal::Quantile(kEstimatedMaxPercentile / 100.0) * ts.stddev;
    max_weight = std::max(max_weight, ts.avg_weight);
  }

  // The highest subrange holds only the maximum weight, with probability
  // 1/n (an underestimate by the paper's own argument, but usually there
  // is a single document attaining the maximum normalized weight).
  double max_spike_prob = 0.0;
  if (config.with_max_subrange()) {
    max_spike_prob = std::min(1.0 / n, ts.p);
    if (max_weight > 0.0 && max_spike_prob > 0.0) {
      poly.spikes.push_back(Spike{u * max_weight, max_spike_prob});
    }
  }

  // Distribute the rest of the containment probability over the normal-
  // approximated subranges. The max spike's mass is carved out of the
  // topmost subranges (cascading, since a small-df term may have a top
  // fraction smaller than 1/n).
  double carve = max_spike_prob;
  for (const Subrange& sr : config.subranges()) {
    double prob = ts.p * sr.fraction;
    if (carve > 0.0) {
      double take = std::min(carve, prob);
      prob -= take;
      carve -= take;
    }
    if (prob <= 0.0) continue;

    double w = ts.avg_weight +
               normal::Quantile(sr.median_percentile / 100.0) * ts.stddev;
    // Clamp into the physically meaningful range: no subrange median can
    // exceed the maximum weight, and none can be non-positive — every
    // document containing the term has some positive weight, so a
    // negative normal-approximated median is a model artifact and is
    // floored at a tiny positive value (it still cannot clear any real
    // threshold, but it keeps the containment mass intact at T = 0).
    // Must stay well above ExpandOptions::exponent_resolution, or the
    // floored spike would merge with the zero-similarity outcome.
    constexpr double kWeightFloor = 1e-6;
    if (max_weight < kWeightFloor) continue;
    w = std::clamp(w, kWeightFloor, max_weight);
    poly.spikes.push_back(Spike{u * w, prob});
  }

  // A negated term penalizes containing documents: same subrange masses,
  // negated similarity contributions (DESIGN.md §13).
  if (negated) {
    for (std::size_t i = first_spike; i < poly.spikes.size(); ++i) {
      poly.spikes[i].exponent = -poly.spikes[i].exponent;
    }
  }
}

void SubrangeEstimator::EstimateBatch(const ResolvedQuery& rq,
                                      std::span<const double> thresholds,
                                      ExpansionWorkspace& ws,
                                      std::span<UsefulnessEstimate> out) const {
  ws.ResetFactors(rq.terms().size());
  std::size_t used = 0;
  std::size_t used_positive = 0;
  for (const ResolvedTerm& rt : rq.terms()) {
    TermPolynomial& poly = ws.factors()[used];
    AppendTermSpikes(rt.stats, rt.weight, rq.num_docs(), rq.kind(),
                     rt.negated, &poly);
    if (!poly.spikes.empty()) {
      ++used;  // empty factor: reuse the slot
      if (!rt.negated) ++used_positive;  // positives come first in rq.terms()
    }
  }
  ws.factors().resize(used);

  // The subrange decomposition does not depend on the threshold, so one
  // expansion serves the whole sweep.
  std::span<const Spike> spikes =
      rq.min_should_match() == 0
          ? SimilarityDistribution::ExpandWith(ws, options_.expand)
          : SimilarityDistribution::ExpandWithMinMatch(
                ws, used_positive, rq.min_should_match(), options_.expand);
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    out[i].no_doc = SimilarityDistribution::EstimateNoDoc(
        spikes, thresholds[i], rq.num_docs());
    out[i].avg_sim = SimilarityDistribution::EstimateAvgSim(spikes,
                                                            thresholds[i]);
  }
}

}  // namespace useful::estimate
