// The probability generating function at the heart of the paper (§3.1).
//
// For a query q = (u_1..u_r) over a database represented by per-term
// statistics, each query term contributes one polynomial factor
//
//     sum_j p_j * X^(u * w_j)  +  (1 - p)
//
// whose spikes (exponent, probability) describe the term's possible
// similarity contributions. Under term independence, the coefficient of
// X^s in the product is the probability that a random document of the
// database has similarity s with q (Proposition 1). Multiplying by the
// database size n turns coefficient mass above a threshold T into the
// NoDoc estimate (Eq. 6), and the weighted mass into AvgSim (Eq. 7).
//
// Exponents are real numbers, so "collecting like terms" merges spikes
// whose exponents agree up to a resolution; probabilities below a floor
// are pruned. Both knobs bound the expansion size without visibly moving
// the estimates.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace useful::estimate {

/// One outcome of a term factor or of the expanded product: a similarity
/// contribution `exponent` occurring with probability `prob`.
struct Spike {
  double exponent = 0.0;
  double prob = 0.0;
};

/// A single query term's polynomial factor. `spikes` hold the
/// positive-contribution outcomes; the implicit remaining mass
/// (1 - sum of spike probs) is the term-absent outcome X^0.
struct TermPolynomial {
  std::vector<Spike> spikes;

  /// Probability that the term contributes nothing.
  double ZeroProb() const;
};

/// Expansion controls.
struct ExpandOptions {
  /// Spikes whose exponents differ by less than this merge into one
  /// (probability-weighted exponent).
  double exponent_resolution = 1e-9;
  /// Spikes with probability below this are dropped after each factor.
  double prob_floor = 1e-12;
};

/// Reusable scratch memory for repeated expansions (the batched estimation
/// hot path). Holds the factor list an estimator fills per (query, rep)
/// pair plus the ping-pong spike buffers the product multiplies through,
/// so a steady-state Expand allocates nothing once capacities have grown
/// to the workload's working set.
///
/// A workspace is single-threaded state: one per thread, never shared.
/// The span returned by SimilarityDistribution::ExpandWith points into the
/// workspace and is invalidated by the next ExpandWith on it.
class ExpansionWorkspace {
 public:
  /// The factor list for the next ExpandWith call. Use ResetFactors to
  /// reuse the inner spike vectors' capacity across calls.
  std::vector<TermPolynomial>& factors() { return factors_; }

  /// Clears every factor's spike list and trims the list to `count`
  /// entries without freeing inner capacity (grows if needed). After the
  /// call, factors()[0..count) are empty polynomials ready to be filled.
  void ResetFactors(std::size_t count);

 private:
  friend class SimilarityDistribution;
  std::vector<TermPolynomial> factors_;
  std::vector<Spike> cur_;
  std::vector<Spike> next_;
  // Match-count buckets for ExpandWithMinMatch (bucket c = outcomes where
  // exactly c positive factors matched, saturating at the cap).
  std::vector<std::vector<Spike>> msm_cur_;
  std::vector<std::vector<Spike>> msm_next_;
};

/// The fully expanded distribution: Expression (5) of the paper,
/// a_1*X^b_1 + ... + a_c*X^b_c with b_1 > b_2 > ... > b_c.
class SimilarityDistribution {
 public:
  /// Multiplies out the factors. An empty factor list yields the unit
  /// distribution (all mass at similarity 0).
  static SimilarityDistribution Expand(
      const std::vector<TermPolynomial>& factors, ExpandOptions options = {});

  /// Allocation-free variant: multiplies out `ws.factors()` inside the
  /// workspace's reusable buffers and returns the resulting spikes
  /// (descending exponent order). The span stays valid until the next
  /// ExpandWith on the same workspace. Produces bit-identical spikes to
  /// Expand on the same factors.
  static std::span<const Spike> ExpandWith(ExpansionWorkspace& ws,
                                           const ExpandOptions& options = {});

  /// Min-should-match expansion: multiplies out `ws.factors()` while
  /// tracking how many of the first `num_positive` factors took a spike
  /// (term-present) outcome, and returns only the mass where that count
  /// reached `min_match` (DESIGN.md §13). Factors beyond `num_positive`
  /// (negated terms) multiply into every bucket without advancing the
  /// count. The degree-capped DP keeps min_match+1 buckets, saturating at
  /// the cap, so cost is (min_match+1)x a plain expansion. min_match == 0
  /// delegates to ExpandWith (bit-identical to the flat path). The span is
  /// invalidated by the next ExpandWith/ExpandWithMinMatch on `ws`.
  static std::span<const Spike> ExpandWithMinMatch(
      ExpansionWorkspace& ws, std::size_t num_positive, std::size_t min_match,
      const ExpandOptions& options = {});

  /// Spikes in strictly descending exponent order. Includes the
  /// zero-similarity spike when it has mass.
  const std::vector<Spike>& spikes() const { return spikes_; }

  /// Total probability mass (should be ~1 for well-formed factors).
  double TotalMass() const;

  /// sum of a_i with b_i > threshold.
  double MassAbove(double threshold) const;

  /// sum of a_i * b_i with b_i > threshold.
  double WeightedMassAbove(double threshold) const;

  /// The paper's estimates: est_NoDoc = n * MassAbove(T) (Eq. 6) and
  /// est_AvgSim = WeightedMassAbove(T) / MassAbove(T) (Eq. 7, 0 when the
  /// mass is 0).
  double EstimateNoDoc(double threshold, std::size_t num_docs) const;
  double EstimateAvgSim(double threshold) const;

  /// Span forms of the queries above, for distributions living in an
  /// ExpansionWorkspace. `spikes` must be in descending exponent order.
  static double MassAbove(std::span<const Spike> spikes, double threshold);
  static double WeightedMassAbove(std::span<const Spike> spikes,
                                  double threshold);
  static double EstimateNoDoc(std::span<const Spike> spikes, double threshold,
                              std::size_t num_docs);
  static double EstimateAvgSim(std::span<const Spike> spikes,
                               double threshold);

 private:
  static void ExpandCore(const std::vector<TermPolynomial>& factors,
                         const ExpandOptions& options,
                         std::vector<Spike>* cur, std::vector<Spike>* next);

  std::vector<Spike> spikes_;
};

}  // namespace useful::estimate
