#include "broker/metasearcher.h"

#include <algorithm>
#include <cassert>

#include "represent/builder.h"
#include "util/logging.h"

namespace useful::broker {

Metasearcher::Metasearcher(const text::Analyzer* analyzer,
                           std::shared_ptr<ReleaseCounter> releases)
    : analyzer_(analyzer),
      releases_(releases != nullptr ? std::move(releases)
                                    : std::make_shared<ReleaseCounter>(0)) {
  assert(analyzer_ != nullptr);
}

bool RankedBefore(const EngineSelection& a, const EngineSelection& b) {
  if (a.estimate.no_doc != b.estimate.no_doc) {
    return a.estimate.no_doc > b.estimate.no_doc;
  }
  if (a.estimate.avg_sim != b.estimate.avg_sim) {
    return a.estimate.avg_sim > b.estimate.avg_sim;
  }
  return a.engine < b.engine;
}

std::size_t Metasearcher::IndexOf(std::string_view name) const {
  auto it = index_by_name_.find(name);
  return it == index_by_name_.end() ? entries_.size() : it->second;
}

Status Metasearcher::RegisterEngine(const ir::SearchEngine* engine,
                                    represent::RepresentativeKind kind) {
  if (engine == nullptr) {
    return Status::InvalidArgument("RegisterEngine: null engine");
  }
  // Reject duplicates before paying for the representative build — for a
  // large engine the build walks the entire inverted index.
  if (IndexOf(engine->name()) != entries_.size()) {
    return Status::InvalidArgument("duplicate engine name: " +
                                   engine->name());
  }
  auto rep = represent::BuildRepresentative(*engine, kind);
  if (!rep.ok()) return rep.status();
  auto table = represent::TermTable::Freeze(rep.value());
  if (!table.ok()) return table.status();
  Append(Entry{std::make_shared<const represent::TermTable>(
                   std::move(table).value()),
               nullptr, engine});
  return Status::OK();
}

Status Metasearcher::RegisterRepresentative(
    const represent::Representative& rep) {
  if (IndexOf(rep.engine_name()) != entries_.size()) {
    return Status::InvalidArgument("duplicate engine name: " +
                                   rep.engine_name());
  }
  auto table = represent::TermTable::Freeze(rep);
  if (!table.ok()) return table.status();
  return RegisterTable(
      std::make_shared<const represent::TermTable>(std::move(table).value()));
}

Status Metasearcher::RegisterTable(
    std::shared_ptr<const represent::TermTable> table) {
  if (table == nullptr) {
    return Status::InvalidArgument("RegisterTable: null table");
  }
  if (IndexOf(table->engine_name()) != entries_.size()) {
    return Status::InvalidArgument("duplicate engine name: " +
                                   table->engine_name());
  }
  Append(Entry{std::move(table), nullptr, nullptr});
  return Status::OK();
}

void Metasearcher::Append(Entry entry) {
  if (entry.stale_max()) {
    // Stale max weights only err upward, so estimates remain safe upper
    // bounds — but the single-term exactness guarantee (paper §3.1) is
    // gone until the producer rebuilds. Loud here because reload is the
    // one moment an operator can act on it.
    USEFUL_LOG(Warning) << "representative for '" << entry.name()
                        << "' has stale max weights (produced after a "
                           "removal without rebuild); estimates are upper "
                           "bounds";
    ++num_stale_representatives_;
  }
  if (entry.engine != nullptr) ++num_store_engines_;
  index_by_name_.emplace(std::string(entry.name()), entries_.size());
  entries_.push_back(std::move(entry));
}

Status Metasearcher::RegisterStore(
    std::shared_ptr<const represent::StoreView> store) {
  return RegisterStore(std::move(store), EngineFilter());
}

Status Metasearcher::RegisterStore(
    std::shared_ptr<const represent::StoreView> store,
    const EngineFilter& filter) {
  if (store == nullptr) {
    return Status::InvalidArgument("RegisterStore: null store");
  }
  // All-or-nothing: check every (accepted) name before touching the
  // entry table.
  for (std::size_t i = 0; i < store->num_engines(); ++i) {
    std::string_view name = store->engine(i).engine_name();
    if (filter && !filter(name)) continue;
    if (IndexOf(name) != entries_.size()) {
      return Status::InvalidArgument("duplicate engine name: " +
                                     std::string(name));
    }
  }
  for (std::size_t i = 0; i < store->num_engines(); ++i) {
    if (filter && !filter(store->engine(i).engine_name())) {
      StoreEngine::Release(*store, i, releases_.get());
      continue;
    }
    Append(Entry{nullptr,
                 std::make_shared<const StoreEngine>(store, i, releases_),
                 nullptr});
  }
  return Status::OK();
}

Status Metasearcher::RemoveEngine(std::string_view engine_name) {
  std::size_t idx = IndexOf(engine_name);
  if (idx == entries_.size()) {
    return Status::NotFound("no such engine: " + std::string(engine_name));
  }
  const Entry& doomed = entries_[idx];
  if (doomed.stale_max()) --num_stale_representatives_;
  if (doomed.engine != nullptr) --num_store_engines_;
  entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(idx));
  // Every entry past the erased one shifted down a slot.
  index_by_name_.clear();
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    index_by_name_.emplace(std::string(entries_[i].name()), i);
  }
  return Status::OK();
}

std::unique_ptr<Metasearcher> Metasearcher::Clone() const {
  auto clone = std::make_unique<Metasearcher>(analyzer_, releases_);
  clone->entries_ = entries_;
  clone->num_stale_representatives_ = num_stale_representatives_;
  clone->num_store_engines_ = num_store_engines_;
  clone->index_by_name_ = index_by_name_;
  return clone;
}

std::size_t Metasearcher::store_bytes() const {
  std::size_t bytes = 0;
  for (const Entry& e : entries_) {
    if (e.engine != nullptr) bytes += e.engine->view().block_bytes();
  }
  return bytes;
}

std::size_t Metasearcher::table_bytes() const {
  std::size_t bytes = 0;
  for (const Entry& e : entries_) {
    if (e.table != nullptr) bytes += e.table->bytes();
  }
  return bytes;
}

estimate::UsefulnessEstimate Metasearcher::EstimateEngine(
    std::size_t i, const ir::Query& q, double threshold,
    const estimate::UsefulnessEstimator& estimator) const {
  // Resolve straight off the table or the mapping; no Representative is
  // built.
  const Entry& e = entries_[i];
  return estimator.Estimate(
      e.table != nullptr ? estimate::ResolvedQuery(*e.table, q)
                         : estimate::ResolvedQuery(e.engine->view(), q),
      threshold);
}

std::vector<EngineSelection> Metasearcher::RankEngines(
    const ir::Query& q, double threshold,
    const estimate::UsefulnessEstimator& estimator, obs::Trace* trace) const {
  std::vector<EngineSelection> ranked(entries_.size());
  {
    obs::Trace::Span estimate_span = obs::Trace::StartSpan(
        trace, obs::Stage::kEstimate);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      ranked[i] = EngineSelection{std::string(entries_[i].name()),
                                  EstimateEngine(i, q, threshold, estimator)};
    }
  }
  obs::Trace::Span rank_span = obs::Trace::StartSpan(trace,
                                                     obs::Stage::kRank);
  std::sort(ranked.begin(), ranked.end(), RankedBefore);
  return ranked;
}

std::vector<EngineSelection> Metasearcher::SelectEngines(
    const ir::Query& q, double threshold,
    const estimate::UsefulnessEstimator& estimator) const {
  std::vector<EngineSelection> ranked = RankEngines(q, threshold, estimator);
  std::erase_if(ranked, [](const EngineSelection& s) {
    return estimate::RoundNoDoc(s.estimate.no_doc) < 1;
  });
  return ranked;
}

Result<std::vector<MetasearchResult>> Metasearcher::Search(
    std::string_view raw_query, double threshold,
    const estimate::UsefulnessEstimator& estimator,
    std::size_t max_engines) const {
  Result<ir::Query> parsed = ir::ParseAnnotatedQuery(*analyzer_, raw_query);
  if (!parsed.ok()) return parsed.status();
  ir::Query q = std::move(parsed).value();
  if (q.empty()) {
    return Status::InvalidArgument(
        "query has no content terms after analysis");
  }
  std::vector<EngineSelection> selected =
      SelectEngines(q, threshold, estimator);
  if (selected.size() > max_engines) selected.resize(max_engines);

  std::vector<MetasearchResult> merged;
  for (const EngineSelection& sel : selected) {
    std::size_t idx = IndexOf(sel.engine);
    if (idx == entries_.size()) continue;
    const Entry& entry = entries_[idx];
    if (entry.live == nullptr) continue;
    for (const ir::ScoredDoc& sd :
         entry.live->SearchAboveThreshold(q, threshold)) {
      merged.push_back(MetasearchResult{
          sel.engine, entry.live->doc_external_id(sd.doc), sd.score});
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const MetasearchResult& a, const MetasearchResult& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.engine != b.engine) return a.engine < b.engine;
              return a.doc_id < b.doc_id;
            });
  return merged;
}

Result<const represent::TermTable*> Metasearcher::FindRepresentative(
    std::string_view engine_name) const {
  std::size_t idx = IndexOf(engine_name);
  if (idx == entries_.size()) {
    return Status::NotFound(std::string("no such engine: ") +
                            std::string(engine_name));
  }
  if (entries_[idx].table == nullptr) {
    return Status::FailedPrecondition(
        std::string("engine is store-backed (no materialized "
                    "representative): ") +
        std::string(engine_name));
  }
  return entries_[idx].table.get();
}

}  // namespace useful::broker
