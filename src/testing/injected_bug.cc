#include "testing/injected_bug.h"

#include <utility>
#include <vector>

#include "estimate/subrange_estimator.h"

namespace useful::testing {

namespace {

class OffByOneSubrangeEstimator : public estimate::UsefulnessEstimator {
 public:
  std::string name() const override {
    return "subrange[injected-df-off-by-one]";
  }

  void EstimateBatch(const estimate::ResolvedQuery& rq,
                     std::span<const double> thresholds,
                     estimate::ExpansionWorkspace& ws,
                     std::span<estimate::UsefulnessEstimate> out)
      const override {
    // The bug: every term's containment probability is computed from
    // df + 1. Everything else is the genuine subrange estimator, so the
    // failure only shows where the coefficient matters.
    std::vector<estimate::ResolvedTerm> terms = rq.terms();
    const double n = static_cast<double>(rq.num_docs());
    for (estimate::ResolvedTerm& rt : terms) {
      rt.stats.doc_freq += 1;
      rt.stats.p = n > 0.0 ? static_cast<double>(rt.stats.doc_freq) / n : 0.0;
    }
    const estimate::ResolvedQuery bumped(std::move(terms), rq.num_positive(),
                                         rq.min_should_match(), rq.num_docs(),
                                         rq.kind());
    inner_.EstimateBatch(bumped, thresholds, ws, out);
  }

 private:
  estimate::SubrangeEstimator inner_;
};

class NegationSignFlipEstimator : public estimate::UsefulnessEstimator {
 public:
  std::string name() const override {
    return "subrange[injected-negation-sign-flip]";
  }

  void EstimateBatch(const estimate::ResolvedQuery& rq,
                     std::span<const double> thresholds,
                     estimate::ExpansionWorkspace& ws,
                     std::span<estimate::UsefulnessEstimate> out)
      const override {
    // The bug: negation is silently dropped, so every negated term's
    // factor keeps its positive exponents — the sign of the penalty is
    // flipped relative to the pinned semantics.
    std::vector<estimate::ResolvedTerm> terms = rq.terms();
    for (estimate::ResolvedTerm& rt : terms) rt.negated = false;
    const std::size_t num_positive = terms.size();
    const estimate::ResolvedQuery flipped(std::move(terms), num_positive,
                                          rq.min_should_match(),
                                          rq.num_docs(), rq.kind());
    inner_.EstimateBatch(flipped, thresholds, ws, out);
  }

 private:
  estimate::SubrangeEstimator inner_;
};

}  // namespace

std::unique_ptr<estimate::UsefulnessEstimator> MakeOffByOneSubrangeEstimator() {
  return std::make_unique<OffByOneSubrangeEstimator>();
}

std::unique_ptr<estimate::UsefulnessEstimator>
MakeNegationSignFlipEstimator() {
  return std::make_unique<NegationSignFlipEstimator>();
}

}  // namespace useful::testing
