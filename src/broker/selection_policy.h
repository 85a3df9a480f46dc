// Engine-selection policies layered on top of usefulness estimates.
//
// The paper's criterion — invoke every engine whose rounded estimated
// NoDoc is at least one — is the baseline policy:
//
//   * ThresholdPolicy  — the paper's rule (estimated NoDoc >= min_docs).
//   * TopKPolicy       — contact at most k engines, best first.
//
// Both consume the broker's ranked EngineSelection list, sorted by
// decreasing estimated usefulness (RankEngines order), and return the
// engines to contact in contact order, so they compose with any
// estimator.
#pragma once

#include <cstddef>
#include <vector>

#include "broker/metasearcher.h"

namespace useful::broker {

/// The paper's rule: keep engines whose rounded estimated NoDoc is at
/// least `min_docs` (default 1).
class ThresholdPolicy {
 public:
  explicit ThresholdPolicy(long min_docs = 1) : min_docs_(min_docs) {}
  std::vector<EngineSelection> Apply(
      std::vector<EngineSelection> ranked) const;

 private:
  long min_docs_;
};

/// Keep at most `k` useful engines.
class TopKPolicy {
 public:
  explicit TopKPolicy(std::size_t k) : k_(k) {}
  std::vector<EngineSelection> Apply(
      std::vector<EngineSelection> ranked) const;

 private:
  std::size_t k_;
};

}  // namespace useful::broker
