#include "estimate/gloss_estimators.h"

#include <algorithm>
#include <vector>

namespace useful::estimate {

namespace {

struct MatchedTerm {
  double u = 0.0;
  double avg_weight = 0.0;
  std::uint32_t doc_freq = 0;
  bool negated = false;
};

std::vector<MatchedTerm> MatchTerms(const ResolvedQuery& rq) {
  std::vector<MatchedTerm> matched;
  matched.reserve(rq.terms().size());
  for (const ResolvedTerm& rt : rq.terms()) {
    if (rt.stats.doc_freq == 0) continue;
    matched.push_back(MatchedTerm{rt.weight, rt.stats.avg_weight,
                                  rt.stats.doc_freq, rt.negated});
  }
  return matched;
}

}  // namespace

void HighCorrelationEstimator::EstimateBatch(
    const ResolvedQuery& rq, std::span<const double> thresholds,
    ExpansionWorkspace& ws, std::span<UsefulnessEstimate> out) const {
  (void)ws;  // no generating-function expansion in the gGlOSS baselines
  std::vector<MatchedTerm> terms = MatchTerms(rq);
  if (terms.empty()) {
    for (std::size_t i = 0; i < thresholds.size(); ++i) {
      out[i] = UsefulnessEstimate{};
    }
    return;
  }

  // Nesting order: descending document frequency. Sorted once for the
  // whole threshold sweep.
  std::sort(terms.begin(), terms.end(),
            [](const MatchedTerm& a, const MatchedTerm& b) {
              return a.doc_freq > b.doc_freq;
            });

  // Layer j (1-based): df_(j) - df_(j+1) documents contain exactly the
  // top-j terms and have similarity sim_j = prefix dot product. sim_j is
  // non-decreasing in j, so documents above the threshold are exactly the
  // df_(j*) docs of the deepest layers. The prefix sums and layer sizes
  // are threshold-independent; compute them once.
  std::vector<double> prefix_sim(terms.size());
  std::vector<double> layer_size(terms.size());
  std::vector<std::size_t> prefix_positive(terms.size());
  double sim = 0.0;
  std::size_t positive = 0;
  for (std::size_t j = 0; j < terms.size(); ++j) {
    double contribution = terms[j].u * terms[j].avg_weight;
    if (terms[j].negated) {
      sim -= contribution;  // penalizing term in the nesting prefix
    } else {
      sim += contribution;
      ++positive;
    }
    prefix_sim[j] = sim;
    prefix_positive[j] = positive;
    layer_size[j] =
        static_cast<double>(terms[j].doc_freq) -
        (j + 1 < terms.size() ? static_cast<double>(terms[j + 1].doc_freq)
                              : 0.0);
  }

  const std::size_t min_match = rq.min_should_match();
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    const double threshold = thresholds[i];
    double count_above = 0.0;
    double sim_sum_above = 0.0;
    for (std::size_t j = 0; j < terms.size(); ++j) {
      // Equal doc frequencies give empty intermediate layers; that is fine.
      if (layer_size[j] <= 0.0) continue;
      // Layer j documents match the top-j prefix: they satisfy MSM k only
      // when the prefix holds at least k positive terms.
      if (prefix_positive[j] < min_match) continue;
      if (prefix_sim[j] > threshold) {
        count_above += layer_size[j];
        sim_sum_above += layer_size[j] * prefix_sim[j];
      }
    }
    out[i].no_doc = count_above;
    out[i].avg_sim = count_above > 0.0 ? sim_sum_above / count_above : 0.0;
  }
}

void DisjointEstimator::EstimateBatch(const ResolvedQuery& rq,
                                      std::span<const double> thresholds,
                                      ExpansionWorkspace& ws,
                                      std::span<UsefulnessEstimate> out) const {
  (void)ws;
  std::vector<MatchedTerm> terms = MatchTerms(rq);
  // The disjoint model assumes every document contains exactly one query
  // term, so no document can ever satisfy MSM >= 2, and negated terms can
  // only produce negative similarities (never above a threshold in the
  // model's T >= 0 domain) — both contribute nothing.
  if (rq.min_should_match() >= 2) {
    for (std::size_t i = 0; i < thresholds.size(); ++i) {
      out[i] = UsefulnessEstimate{};
    }
    return;
  }
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    const double threshold = thresholds[i];
    double count_above = 0.0;
    double sim_sum_above = 0.0;
    for (const MatchedTerm& t : terms) {
      if (t.negated) continue;
      double sim = t.u * t.avg_weight;
      if (sim > threshold) {
        count_above += static_cast<double>(t.doc_freq);
        sim_sum_above += static_cast<double>(t.doc_freq) * sim;
      }
    }
    out[i].no_doc = count_above;
    out[i].avg_sim = count_above > 0.0 ? sim_sum_above / count_above : 0.0;
  }
}

}  // namespace useful::estimate
