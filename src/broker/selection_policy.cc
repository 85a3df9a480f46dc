#include "broker/selection_policy.h"

#include "estimate/estimator.h"

namespace useful::broker {

std::vector<EngineSelection> ThresholdPolicy::Apply(
    std::vector<EngineSelection> ranked) const {
  std::erase_if(ranked, [this](const EngineSelection& s) {
    return estimate::RoundNoDoc(s.estimate.no_doc) < min_docs_;
  });
  return ranked;
}

std::vector<EngineSelection> TopKPolicy::Apply(
    std::vector<EngineSelection> ranked) const {
  ranked = ThresholdPolicy(1).Apply(std::move(ranked));
  if (ranked.size() > k_) ranked.resize(k_);
  return ranked;
}

}  // namespace useful::broker
