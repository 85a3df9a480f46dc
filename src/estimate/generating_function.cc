#include "estimate/generating_function.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace useful::estimate {

double TermPolynomial::ZeroProb() const {
  double present = 0.0;
  for (const Spike& s : spikes) present += s.prob;
  return std::max(0.0, 1.0 - present);
}

namespace {

// Collects like terms: sorts by exponent, merges runs whose exponents fall
// within `resolution` of the run head, and prunes tiny probabilities. The
// run membership test is anchored at the run head's ORIGINAL exponent —
// not the probability-weighted mean accumulated so far — so a run never
// drifts: every spike merged into a run lies within `resolution` of the
// exponent that opened it, and the merge result cannot depend on how the
// weighted mean walked through intermediate spikes. The weighted mean is
// still what the merged spike reports as its exponent.
//
// Runs never cross the sign boundary: a strictly positive head refuses
// non-positive members. Negated terms cancel positive contributions to
// within float rounding of zero (±1e-17-ish), and without the barrier
// such a cancellation spike opens a run that swallows the exact-zero
// no-match outcome — the weighted mean then lands at +epsilon and the
// entire zero-similarity mass crosses the strict `> 0` NoDoc threshold.
// With the barrier, non-positive mass can never drift strictly positive
// (nor the reverse), so T = 0 comparisons are stable.
void Canonicalize(std::vector<Spike>* spikes, const ExpandOptions& options) {
  std::sort(spikes->begin(), spikes->end(),
            [](const Spike& a, const Spike& b) {
              return a.exponent > b.exponent;
            });
  std::vector<Spike> merged;
  merged.reserve(spikes->size());
  double run_anchor = 0.0;  // original exponent of merged.back()'s run head
  for (const Spike& s : *spikes) {
    if (s.prob < options.prob_floor) continue;
    if (!merged.empty() &&
        run_anchor - s.exponent <= options.exponent_resolution &&
        !(run_anchor > 0.0 && s.exponent <= 0.0)) {
      Spike& head = merged.back();
      double total = head.prob + s.prob;
      // Anchored-delta form of the weighted mean: exact when the merged
      // exponents are equal floats. The naive (e1*p1 + e2*p2)/(p1+p2)
      // rounds up to 1 ulp off even for e1 == e2, and that drifted
      // exponent no longer cancels exactly against an equal-magnitude
      // negated spike downstream — the knife-edge outcome then lands on
      // a different side of a strict threshold than in a query whose
      // merge pattern kept the exponent exact (equal exponents are
      // common: clamping to max_weight and shared cosine query weights
      // both produce them).
      head.exponent += (s.exponent - head.exponent) * (s.prob / total);
      head.prob = total;
    } else {
      merged.push_back(s);
      run_anchor = s.exponent;
    }
  }
  *spikes = std::move(merged);
}

// Crosses every accumulated spike in `cur` with one term factor: per
// `have` spike, the term-absent outcome (exponent unchanged, probability
// scaled by `zero`) followed by one outcome per factor spike. Appends to
// `next` in exactly this order — canonicalization sorts with std::sort
// (unstable) and merges with order-sensitive float summation, so the
// emission order is part of the result's bits.
void CrossFactor(const std::vector<Spike>& cur,
                 const std::vector<Spike>& adds, double zero,
                 std::vector<Spike>* next) {
  for (const Spike& have : cur) {
    if (zero > 0.0) {
      next->push_back(Spike{have.exponent, have.prob * zero});
    }
    for (const Spike& add : adds) {
      next->push_back(
          Spike{have.exponent + add.exponent, have.prob * add.prob});
    }
  }
}

}  // namespace

void ExpansionWorkspace::ResetFactors(std::size_t count) {
  if (factors_.size() > count) factors_.resize(count);
  for (TermPolynomial& f : factors_) f.spikes.clear();
  while (factors_.size() < count) factors_.emplace_back();
}

void SimilarityDistribution::ExpandCore(
    const std::vector<TermPolynomial>& factors, const ExpandOptions& options,
    std::vector<Spike>* cur, std::vector<Spike>* next) {
  cur->clear();
  cur->push_back(Spike{0.0, 1.0});

  for (const TermPolynomial& factor : factors) {
    double zero = factor.ZeroProb();
    next->clear();
    next->reserve(cur->size() * (factor.spikes.size() + 1));
    CrossFactor(*cur, factor.spikes, zero, next);
    Canonicalize(next, options);
    std::swap(*cur, *next);
  }
}

SimilarityDistribution SimilarityDistribution::Expand(
    const std::vector<TermPolynomial>& factors, ExpandOptions options) {
  SimilarityDistribution dist;
  std::vector<Spike> scratch;
  ExpandCore(factors, options, &dist.spikes_, &scratch);
  return dist;
}

std::span<const Spike> SimilarityDistribution::ExpandWith(
    ExpansionWorkspace& ws, const ExpandOptions& options) {
  ExpandCore(ws.factors_, options, &ws.cur_, &ws.next_);
  return std::span<const Spike>(ws.cur_);
}

std::span<const Spike> SimilarityDistribution::ExpandWithMinMatch(
    ExpansionWorkspace& ws, std::size_t num_positive, std::size_t min_match,
    const ExpandOptions& options) {
  if (min_match == 0) return ExpandWith(ws, options);

  const std::size_t cap = min_match;
  auto& cur = ws.msm_cur_;
  auto& next = ws.msm_next_;
  cur.resize(cap + 1);
  next.resize(cap + 1);
  for (auto& bucket : cur) bucket.clear();
  cur[0].push_back(Spike{0.0, 1.0});

  static const std::vector<Spike> kNoSpikes;
  for (std::size_t fi = 0; fi < ws.factors_.size(); ++fi) {
    const TermPolynomial& factor = ws.factors_[fi];
    const double zero = factor.ZeroProb();
    const bool counts_match = fi < num_positive;
    for (std::size_t c = 0; c <= cap; ++c) {
      next[c].clear();
      if (counts_match) {
        // Term-absent outcomes stay in bucket c; term-present outcomes
        // arrive from bucket c-1 (and, at the cap, saturate in place).
        if (!cur[c].empty()) CrossFactor(cur[c], kNoSpikes, zero, &next[c]);
        if (c > 0 && !cur[c - 1].empty()) {
          CrossFactor(cur[c - 1], factor.spikes, 0.0, &next[c]);
        }
        if (c == cap && !cur[cap].empty()) {
          CrossFactor(cur[cap], factor.spikes, 0.0, &next[c]);
        }
      } else if (!cur[c].empty()) {
        // Negated factors never advance the match count.
        CrossFactor(cur[c], factor.spikes, zero, &next[c]);
      }
      Canonicalize(&next[c], options);
    }
    std::swap(cur, next);
  }
  return std::span<const Spike>(cur[cap]);
}

double SimilarityDistribution::TotalMass() const {
  double total = 0.0;
  for (const Spike& s : spikes_) total += s.prob;
  return total;
}

double SimilarityDistribution::MassAbove(std::span<const Spike> spikes,
                                         double threshold) {
  double total = 0.0;
  for (const Spike& s : spikes) {
    if (s.exponent <= threshold) break;  // descending order
    total += s.prob;
  }
  return total;
}

double SimilarityDistribution::WeightedMassAbove(std::span<const Spike> spikes,
                                                 double threshold) {
  double total = 0.0;
  for (const Spike& s : spikes) {
    if (s.exponent <= threshold) break;
    total += s.prob * s.exponent;
  }
  return total;
}

double SimilarityDistribution::EstimateNoDoc(std::span<const Spike> spikes,
                                             double threshold,
                                             std::size_t num_docs) {
  return static_cast<double>(num_docs) * MassAbove(spikes, threshold);
}

double SimilarityDistribution::EstimateAvgSim(std::span<const Spike> spikes,
                                              double threshold) {
  double mass = MassAbove(spikes, threshold);
  if (mass <= 0.0) return 0.0;
  return WeightedMassAbove(spikes, threshold) / mass;
}

double SimilarityDistribution::MassAbove(double threshold) const {
  return MassAbove(std::span<const Spike>(spikes_), threshold);
}

double SimilarityDistribution::WeightedMassAbove(double threshold) const {
  return WeightedMassAbove(std::span<const Spike>(spikes_), threshold);
}

double SimilarityDistribution::EstimateNoDoc(double threshold,
                                             std::size_t num_docs) const {
  return EstimateNoDoc(std::span<const Spike>(spikes_), threshold, num_docs);
}

double SimilarityDistribution::EstimateAvgSim(double threshold) const {
  return EstimateAvgSim(std::span<const Spike>(spikes_), threshold);
}

}  // namespace useful::estimate
