// A query resolved against one representative's term statistics.
//
// Every estimator starts the same way: look each query term up in the
// representative's term -> TermStats hash map and keep the hits. In the
// scalar API that lookup happens again for every (estimator, threshold)
// combination — the broker ranks E engines at one threshold, the eval
// runner scores M methods at T thresholds — so the same string hashing is
// redone up to M*T times per (query, rep) pair. A ResolvedQuery performs
// the resolution exactly once and is then shared, read-only, across all
// thresholds and estimators that score this query against this
// representative.
//
// Lifetime: a ResolvedQuery copies the matched TermStats (they are small
// POD) but keeps non-owning pointers to the Representative (when resolved
// from one) and the Query it was built from, because the generic
// UsefulnessEstimator::EstimateBatch fallback routes through the scalar
// Estimate(rep, q, T) API. Both must therefore outlive the ResolvedQuery
// and must not be mutated while it is in use. Resolution is a snapshot:
// mutating the representative afterwards does not update an existing
// ResolvedQuery.
#pragma once

#include <cstddef>
#include <vector>

#include "ir/query.h"
#include "represent/representative.h"
#include "represent/store.h"
#include "represent/term_table.h"
#include "represent/term_stats.h"

namespace useful::estimate {

/// One query term that the representative knows, with its query weight.
struct ResolvedTerm {
  /// The query-side weight u of the term (always > 0, even when negated).
  double weight = 0.0;
  /// Negated terms contribute -u*w(d) to the similarity; estimators negate
  /// the spike exponents of the term's factor.
  bool negated = false;
  /// The representative's stats for the term (p > 0 not guaranteed:
  /// quantization can round small probabilities; estimators keep their own
  /// p/weight guards exactly as in the scalar path).
  represent::TermStats stats;
};

/// The query terms found in one representative, positive terms first (each
/// group in query order), plus the representative-level facts every
/// estimator needs (n, kind) and the query's min-should-match constraint.
/// The positives-first ordering means a flat query resolves exactly as
/// before, and estimators that build one factor per term can hand
/// `num_positive()` straight to ExpandWithMinMatch.
class ResolvedQuery {
 public:
  /// Resolves `q` against `rep`. Terms absent from the representative or
  /// with non-positive query weight are dropped — every estimator ignores
  /// both (an absent term's factor is identically 1).
  ResolvedQuery(const represent::Representative& rep, const ir::Query& q);

  /// Resolves `q` against a packed-store engine view: same semantics, but
  /// lookups hit the mmap'd store directly and no Representative is ever
  /// materialized. A view-backed ResolvedQuery has no representative() —
  /// use it only with estimators that override EstimateBatch (all registry
  /// estimators do; their scalar Estimate is itself routed through
  /// EstimateBatch, so values are bit-identical across both backings).
  ResolvedQuery(const represent::RepresentativeView& view, const ir::Query& q);

  /// Resolves `q` against a frozen term table: same semantics and the same
  /// estimator restriction as the view-backed form (no representative()).
  ResolvedQuery(const represent::TermTable& table, const ir::Query& q);

  /// The matched terms: the first num_positive() are positive, the rest
  /// negated; each group keeps the query's term order.
  const std::vector<ResolvedTerm>& terms() const { return terms_; }

  /// How many of terms() are positive (non-negated).
  std::size_t num_positive() const { return num_positive_; }

  /// The query's min-should-match constraint (0 = unconstrained).
  std::size_t min_should_match() const { return min_should_match_; }

  std::size_t num_docs() const { return num_docs_; }
  represent::RepresentativeKind kind() const { return kind_; }

  /// True when this query was resolved from an in-memory Representative
  /// (representative() is then safe to call).
  bool has_representative() const { return rep_ != nullptr; }

  /// The inputs the query was resolved from (non-owning; see lifetime note
  /// above). Used by the generic EstimateBatch fallback; never call on a
  /// view- or table-backed ResolvedQuery (has_representative() == false).
  const represent::Representative& representative() const { return *rep_; }
  const ir::Query& query() const { return *query_; }

 private:
  const represent::Representative* rep_;
  const ir::Query* query_;
  std::vector<ResolvedTerm> terms_;
  std::size_t num_positive_ = 0;
  std::size_t min_should_match_ = 0;
  std::size_t num_docs_ = 0;
  represent::RepresentativeKind kind_ =
      represent::RepresentativeKind::kQuadruplet;
};

}  // namespace useful::estimate
