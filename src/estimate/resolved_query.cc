#include "estimate/resolved_query.h"

#include <utility>

namespace useful::estimate {

namespace {

// Two passes — positives first, then negated — so a flat query keeps its
// exact historical term order and estimators can treat terms()[0..
// num_positive()) as the match-counting factors.
template <typename Source>
std::size_t ResolveTerms(const Source& source, const ir::Query& q,
                         std::vector<estimate::ResolvedTerm>* out) {
  out->reserve(q.terms.size());
  for (const ir::QueryTerm& qt : q.terms) {
    if (qt.negated || qt.weight <= 0.0) continue;
    auto ts = source.Find(qt.term);
    if (!ts) continue;
    out->push_back(ResolvedTerm{qt.weight, false, *ts});
  }
  std::size_t num_positive = out->size();
  for (const ir::QueryTerm& qt : q.terms) {
    if (!qt.negated || qt.weight <= 0.0) continue;
    auto ts = source.Find(qt.term);
    if (!ts) continue;
    out->push_back(ResolvedTerm{qt.weight, true, *ts});
  }
  return num_positive;
}

}  // namespace

ResolvedQuery::ResolvedQuery(const represent::Representative& rep,
                             const ir::Query& q)
    : min_should_match_(q.min_should_match),
      num_docs_(rep.num_docs()),
      kind_(rep.kind()) {
  num_positive_ = ResolveTerms(rep, q, &terms_);
}

ResolvedQuery::ResolvedQuery(const represent::RepresentativeView& view,
                             const ir::Query& q)
    : min_should_match_(q.min_should_match),
      num_docs_(view.num_docs()),
      kind_(view.kind()) {
  num_positive_ = ResolveTerms(view, q, &terms_);
}

ResolvedQuery::ResolvedQuery(const represent::TermTable& table,
                             const ir::Query& q)
    : min_should_match_(q.min_should_match),
      num_docs_(table.num_docs()),
      kind_(table.kind()) {
  num_positive_ = ResolveTerms(table, q, &terms_);
}

ResolvedQuery::ResolvedQuery(std::vector<ResolvedTerm> terms,
                             std::size_t num_positive,
                             std::size_t min_should_match,
                             std::size_t num_docs,
                             represent::RepresentativeKind kind)
    : terms_(std::move(terms)),
      num_positive_(num_positive),
      min_should_match_(min_should_match),
      num_docs_(num_docs),
      kind_(kind) {}

}  // namespace useful::estimate
