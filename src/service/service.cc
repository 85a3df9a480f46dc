#include "service/service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <unordered_set>
#include <utility>

#include "broker/selection_policy.h"
#include "estimate/registry.h"
#include "obs/prometheus.h"
#include "represent/input_file.h"
#include "represent/store.h"
#include "represent/term_table.h"
#include "util/clock.h"
#include "util/engine_hash.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace useful::service {

namespace {

/// One payload line per engine, its scores appended in place;
/// AppendScore keeps the wire bit-exact against the in-process estimates.
std::string FormatSelection(const broker::EngineSelection& sel) {
  std::string line;
  line.reserve(sel.engine.size() + 2 * 25);  // two scores of <= 24 bytes
  line += sel.engine;
  line += ' ';
  AppendScore(&line, sel.estimate.no_doc);
  line += ' ';
  AppendScore(&line, sel.estimate.avg_sim);
  return line;
}

/// One representative file, either format: a packed URPZ store (possibly
/// many engines, served zero-copy) or a single URP1 representative frozen
/// into a term table.
struct LoadedReps {
  std::shared_ptr<const represent::StoreView> store;   // URPZ
  std::shared_ptr<const represent::TermTable> table;   // URP1
};

/// `status` with the same code (Corruption or IOError), naming `path`.
Status WithPath(const std::string& path, const Status& status) {
  std::string msg = path + ": " + status.message();
  return status.code() == Status::Code::kCorruption
             ? Status::Corruption(std::move(msg))
             : Status::IOError(std::move(msg));
}

Result<LoadedReps> LoadRepFile(const std::string& path, std::size_t threads,
                               represent::FileImage* buffer) {
  LoadedReps out;
  // One path may carry either format; its first four bytes decide, read
  // from the one descriptor that is then mapped or read. Packed URPZ
  // stores register zero-copy (each engine's pages stay shared until the
  // last snapshot serving it drops) after their engines are checked on up
  // to `threads` threads; URP1 files are read into `buffer` and become
  // term tables that every later snapshot shares. A file shorter than a
  // magic is read as URP1 and fails its magic check.
  auto file = represent::InputFile::Open(path);
  if (!file.ok()) return Status::IOError(path + ": cannot open " + path);
  if (file.value().StartsWith(represent::kStoreMagic)) {
    auto store = represent::StoreView::Open(file.value(), threads);
    if (!store.ok()) return WithPath(path, store.status());
    out.store = std::move(store).value();
    return out;
  }
  auto table = represent::TermTable::Load(file.value(), buffer);
  if (!table.ok()) return WithPath(path, table.status());
  out.table =
      std::make_shared<const represent::TermTable>(std::move(table).value());
  return out;
}

}  // namespace

Service::Service(const text::Analyzer* analyzer, ServiceOptions options)
    : analyzer_(analyzer),
      options_(std::move(options)),
      cache_(options_.cache) {
  stats_.sampler()->set_rate(options_.trace_sample_rate);
  stats_.slowlog()->Reset(options_.slowlog_size);
}

Result<std::unique_ptr<Service>> Service::Create(const text::Analyzer* analyzer,
                                                 ServiceOptions options) {
  if (analyzer == nullptr) {
    return Status::InvalidArgument("Service: null analyzer");
  }
  if (options.representative_paths.empty()) {
    return Status::InvalidArgument("Service: no representative paths");
  }
  if (options.num_shards > 0 && options.shard_index >= options.num_shards) {
    return Status::InvalidArgument("Service: shard_index out of range");
  }
  std::unique_ptr<Service> service(new Service(analyzer, std::move(options)));
  auto snapshot = service->LoadSnapshot();
  if (!snapshot.ok()) return snapshot.status();
  const auto& broker = snapshot.value();
  for (std::size_t i = 0; i < broker->num_engines(); ++i) {
    service->engine_gens_.emplace(std::string(broker->engine_name(i)),
                                  service->next_gen_++);
  }
  service->PublishLocked(std::move(snapshot).value());
  return service;
}

Result<std::shared_ptr<const broker::Metasearcher>> Service::LoadSnapshot()
    const {
  // One thread budget, the CPUs this process may use, the caller
  // included. Many paths load one file per thread, each file checked
  // serially: each loader takes the next unread path until none is left,
  // and reads every URP1 file it takes into its one buffer, which grows to
  // the largest of them and is freed when the loader ends. File i's
  // result lands in slot i whichever loader read it. One path loads on
  // the caller, and its packed store checks its engines on the whole
  // budget. Registration stays serial and in path order, so the engine
  // order and the error reported (the first failing path's) are a serial
  // load's.
  const std::vector<std::string>& paths = options_.representative_paths;
  std::vector<Result<LoadedReps>> loaded(paths.size(), LoadedReps{});
  const std::size_t budget = util::ThreadPool::ResolveThreads(0);
  const std::size_t per_file = paths.size() == 1 ? budget : 1;
  util::ThreadPool pool(util::ThreadPool::ThreadsFor(paths.size(), budget));
  std::atomic<std::size_t> next_path{0};
  pool.ParallelFor(pool.num_threads(), [&](std::size_t) {
    represent::FileImage buffer;
    for (std::size_t i = next_path.fetch_add(1, std::memory_order_relaxed);
         i < paths.size();
         i = next_path.fetch_add(1, std::memory_order_relaxed)) {
      loaded[i] = LoadRepFile(paths[i], per_file, &buffer);
    }
  });
  auto next =
      std::make_shared<broker::Metasearcher>(analyzer_, packed_releases_);
  for (Result<LoadedReps>& file : loaded) {
    if (!file.ok()) return file.status();
    if (file.value().store != nullptr) {
      USEFUL_RETURN_IF_ERROR(
          next->RegisterStore(std::move(file.value().store)));
    } else {
      USEFUL_RETURN_IF_ERROR(
          next->RegisterTable(std::move(file.value().table)));
    }
  }
  return std::shared_ptr<const broker::Metasearcher>(std::move(next));
}

void Service::PublishLocked(
    std::shared_ptr<const broker::Metasearcher> broker) {
  auto snap = std::make_shared<Snapshot>();
  snap->gens.reserve(broker->num_engines());
  for (std::size_t i = 0; i < broker->num_engines(); ++i) {
    snap->gens.push_back(
        engine_gens_.at(std::string(broker->engine_name(i))));
  }
  snap->epoch = epoch_;
  snap->broker = std::move(broker);
  stats_.Set(Stats::kRepresentativeStale,
             snap->broker->num_stale_representatives());
  stats_.Set(Stats::kPackedEngines, snap->broker->num_store_engines());
  stats_.Set(Stats::kPackedBytes, snap->broker->store_bytes());
  stats_.Set(Stats::kTableBytes, snap->broker->table_bytes());
  stats_.Set(Stats::kSnapshotEpoch, epoch_);
  // The replaced snapshot, if this was its last holder, is destroyed after
  // the lock is let go: releasing its store engines' pages (and unmapping a
  // store it held last) takes system calls no reader should wait behind.
  std::shared_ptr<const Snapshot> replaced;
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  replaced = std::exchange(snapshot_, std::move(snap));
}

std::shared_ptr<const Service::Snapshot> Service::GetSnapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

std::shared_ptr<const broker::Metasearcher> Service::snapshot() const {
  return GetSnapshot()->broker;
}

std::uint64_t Service::snapshot_epoch() const { return GetSnapshot()->epoch; }

bool Service::OwnsEngine(std::string_view engine) const {
  if (options_.num_shards == 0) return true;
  return util::ShardForEngine(engine, options_.num_shards) ==
         options_.shard_index;
}

Status Service::Reload() {
  std::lock_guard<std::mutex> churn(churn_mu_);
  auto next = LoadSnapshot();
  if (!next.ok()) return next.status();
  // Whole-registry rebuild: every engine gets a fresh generation and the
  // entire cache goes. Raising the accepted epoch first means a request
  // still holding the old snapshot can't re-populate what Clear removes.
  engine_gens_.clear();
  const auto& broker = next.value();
  for (std::size_t i = 0; i < broker->num_engines(); ++i) {
    engine_gens_.emplace(std::string(broker->engine_name(i)), next_gen_++);
  }
  ++epoch_;
  PublishLocked(std::move(next).value());
  cache_.SetMinEpoch(epoch_);
  cache_.Clear();
  stats_.Add(Stats::kReloads);
  return Status::OK();
}

Status Service::AddEngines(const std::string& path, std::size_t* added_out) {
  std::lock_guard<std::mutex> churn(churn_mu_);
  represent::FileImage buffer;
  auto loaded = LoadRepFile(path, 1, &buffer);
  if (!loaded.ok()) return loaded.status();
  std::shared_ptr<const Snapshot> current = GetSnapshot();
  std::unique_ptr<broker::Metasearcher> clone = current->broker->Clone();
  std::size_t before = clone->num_engines();
  if (loaded.value().store != nullptr) {
    USEFUL_RETURN_IF_ERROR(clone->RegisterStore(
        std::move(loaded.value().store),
        [this](std::string_view name) { return OwnsEngine(name); }));
  } else if (OwnsEngine(loaded.value().table->engine_name())) {
    USEFUL_RETURN_IF_ERROR(
        clone->RegisterTable(std::move(loaded.value().table)));
  }
  std::size_t added = clone->num_engines() - before;
  if (added_out != nullptr) *added_out = added;
  if (added == 0) return Status::OK();  // every engine filtered out
  for (std::size_t i = before; i < clone->num_engines(); ++i) {
    engine_gens_.emplace(std::string(clone->engine_name(i)), next_gen_++);
  }
  // ADD invalidates nothing: existing generations are untouched, so the
  // accepted epoch stays put and every cached entry keeps serving.
  ++epoch_;
  PublishLocked(std::move(clone));
  stats_.Add(Stats::kEnginesAdded, added);
  return Status::OK();
}

Status Service::DropEngine(const std::string& engine) {
  std::lock_guard<std::mutex> churn(churn_mu_);
  std::shared_ptr<const Snapshot> current = GetSnapshot();
  std::unique_ptr<broker::Metasearcher> clone = current->broker->Clone();
  USEFUL_RETURN_IF_ERROR(clone->RemoveEngine(engine));
  auto gen = engine_gens_.find(engine);
  const std::uint64_t dropped = gen->second;
  engine_gens_.erase(gen);
  ++epoch_;
  PublishLocked(std::move(clone));
  // Publish first, sweep second: once the epoch is raised, a racing
  // Insert computed under the old snapshot is refused, so the sweep is
  // final.
  cache_.SetMinEpoch(epoch_);
  cache_.EraseGenerations({dropped});
  stats_.Add(Stats::kEnginesDropped);
  return Status::OK();
}

Status Service::UpdateEngines(const std::string& path,
                              std::size_t* updated_out) {
  std::lock_guard<std::mutex> churn(churn_mu_);
  represent::FileImage buffer;
  auto loaded = LoadRepFile(path, 1, &buffer);
  if (!loaded.ok()) return loaded.status();
  std::shared_ptr<const Snapshot> current = GetSnapshot();
  std::unordered_set<std::string> registered;
  for (std::size_t i = 0; i < current->broker->num_engines(); ++i) {
    registered.insert(std::string(current->broker->engine_name(i)));
  }
  // UPDATE only replaces engines already registered here — it never
  // grows the engine set, so a cluster-wide fan-out of one file can't
  // duplicate an engine onto shards that don't own it.
  std::vector<std::string> touched;
  if (loaded.value().store != nullptr) {
    for (std::size_t i = 0; i < loaded.value().store->num_engines(); ++i) {
      std::string name(loaded.value().store->engine(i).engine_name());
      if (registered.count(name) > 0) touched.push_back(std::move(name));
    }
  } else if (registered.count(loaded.value().table->engine_name()) > 0) {
    touched.push_back(loaded.value().table->engine_name());
  }
  if (updated_out != nullptr) *updated_out = touched.size();
  if (touched.empty()) return Status::OK();  // nothing of ours in the file

  std::unique_ptr<broker::Metasearcher> clone = current->broker->Clone();
  for (const std::string& name : touched) {
    USEFUL_RETURN_IF_ERROR(clone->RemoveEngine(name));
  }
  if (loaded.value().store != nullptr) {
    std::unordered_set<std::string_view> touched_set(touched.begin(),
                                                     touched.end());
    USEFUL_RETURN_IF_ERROR(clone->RegisterStore(
        std::move(loaded.value().store),
        [&touched_set](std::string_view name) {
          return touched_set.count(name) > 0;
        }));
  } else {
    USEFUL_RETURN_IF_ERROR(
        clone->RegisterTable(std::move(loaded.value().table)));
  }
  std::vector<std::uint64_t> retired;
  retired.reserve(touched.size());
  for (const std::string& name : touched) {
    std::uint64_t& gen = engine_gens_.at(name);
    retired.push_back(gen);
    gen = next_gen_++;
  }
  ++epoch_;
  PublishLocked(std::move(clone));
  cache_.SetMinEpoch(epoch_);
  cache_.EraseGenerations(std::move(retired));
  stats_.Add(Stats::kEnginesUpdated, touched.size());
  return Status::OK();
}

Result<const estimate::UsefulnessEstimator*> Service::GetEstimator(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(estimators_mu_);
  auto it = estimators_.find(name);
  if (it != estimators_.end()) return it->second.get();
  auto built = estimate::MakeEstimator(name);
  if (!built.ok()) return built.status();
  auto [inserted, _] = estimators_.emplace(name, std::move(built).value());
  return inserted->second.get();
}

Reply Service::Execute(std::string_view line) {
  obs::Trace trace(stats_.sampler()->Sample());
  Reply reply = Execute(line, &trace);
  stats_.FinishTrace(trace);
  return reply;
}

Reply Service::Execute(std::string_view line, obs::Trace* trace) {
  auto start = std::chrono::steady_clock::now();
  Result<Request> parsed = [&] {
    obs::Trace::Span span = obs::Trace::StartSpan(trace, obs::Stage::kParse);
    return ParseRequest(line);
  }();
  if (!parsed.ok()) {
    stats_.RecordParseError();
    Reply reply;
    reply.status = parsed.status();
    return reply;
  }
  const Request& request = parsed.value();

  Reply reply;
  switch (request.kind) {
    case CommandKind::kRoute:
      reply = DoRank(request, /*apply_policy=*/true, trace);
      break;
    case CommandKind::kEstimate:
      reply = DoRank(request, /*apply_policy=*/false, trace);
      break;
    case CommandKind::kStats:
      reply = DoStats();
      break;
    case CommandKind::kMetrics:
      reply = DoMetrics();
      break;
    case CommandKind::kSlowlog:
      reply = DoSlowlog(request);
      break;
    case CommandKind::kReload:
      reply = DoReload();
      break;
    case CommandKind::kAdd:
      reply = DoAdd(request);
      break;
    case CommandKind::kDrop:
      reply = DoDrop(request);
      break;
    case CommandKind::kUpdate:
      reply = DoUpdate(request);
      break;
    case CommandKind::kQuit:
      reply.close_connection = true;
      reply.shutdown_server = true;
      break;
    case CommandKind::kCount_:
      reply.status = Status::Internal("bad command kind");
      break;
  }
  std::uint64_t micros = util::MicrosSince(start);
  stats_.RecordCommand(request.kind, micros, reply.status.ok());
  trace->SetTotalMicros(micros);
  return reply;
}

Reply Service::DoRank(const Request& request, bool apply_policy,
                      obs::Trace* trace) {
  Reply reply;
  trace->SetQuery(request.query_text);
  trace->SetEstimator(request.estimator);
  trace->SetThreshold(request.threshold);

  Result<ir::Query> parsed = [&] {
    obs::Trace::Span span = obs::Trace::StartSpan(trace, obs::Stage::kParse);
    return ir::ParseAnnotatedQuery(*analyzer_, request.query_text);
  }();
  if (!parsed.ok()) {
    reply.status = parsed.status();
    return reply;
  }
  ir::Query query = std::move(parsed).value();
  if (query.empty()) {
    reply.status = Status::InvalidArgument(
        "query has no content terms after analysis");
    return reply;
  }

  Result<const estimate::UsefulnessEstimator*> estimator = [&] {
    obs::Trace::Span span =
        obs::Trace::StartSpan(trace, obs::Stage::kResolve);
    return GetEstimator(request.estimator);
  }();
  if (!estimator.ok()) {
    reply.status = estimator.status();
    return reply;
  }

  std::shared_ptr<const Snapshot> snapshot;
  {
    obs::Trace::Span resolve_span =
        obs::Trace::StartSpan(trace, obs::Stage::kResolve);
    snapshot = GetSnapshot();
  }
  const broker::Metasearcher& broker = *snapshot->broker;
  std::size_t n = broker.num_engines();

  // One probe per request: the query's entry holds a slot per engine
  // generation, so a request is part hit / part miss after a scoped
  // invalidation and only the touched engines are re-estimated.
  std::vector<broker::EngineSelection> ranked;
  ranked.reserve(n);
  std::vector<std::size_t> miss_index;
  std::string query_key;
  {
    obs::Trace::Span cache_span =
        obs::Trace::StartSpan(trace, obs::Stage::kCache);
    query_key =
        QueryCache::MakeKey(request.estimator, request.threshold, query);
    std::vector<std::optional<CachedEstimate>> cached =
        cache_.Lookup(query_key, snapshot->gens);
    for (std::size_t i = 0; i < n; ++i) {
      if (cached[i].has_value()) {
        ranked.push_back(broker::EngineSelection{
            std::string(broker.engine_name(i)), *cached[i]});
      } else {
        miss_index.push_back(i);
      }
    }
  }
  trace->SetCacheHit(miss_index.empty());
  if (!miss_index.empty()) {
    std::vector<QueryCache::Slot> computed(miss_index.size());
    {
      obs::Trace::Span estimate_span =
          obs::Trace::StartSpan(trace, obs::Stage::kEstimate);
      for (std::size_t k = 0; k < miss_index.size(); ++k) {
        const std::size_t i = miss_index[k];
        computed[k] = {snapshot->gens[i],
                       broker.EstimateEngine(i, query, request.threshold,
                                             *estimator.value())};
        ranked.push_back(broker::EngineSelection{
            std::string(broker.engine_name(i)), computed[k].value});
      }
    }
    obs::Trace::Span cache_span =
        obs::Trace::StartSpan(trace, obs::Stage::kCache);
    cache_.Insert(query_key, computed, snapshot->epoch);
  }
  {
    obs::Trace::Span rank_span =
        obs::Trace::StartSpan(trace, obs::Stage::kRank);
    std::sort(ranked.begin(), ranked.end(), broker::RankedBefore);
  }

  std::vector<broker::EngineSelection> selected;
  {
    obs::Trace::Span policy_span =
        obs::Trace::StartSpan(trace, obs::Stage::kPolicy);
    if (apply_policy) {
      // The paper's rule first, then the optional top-k cap — matching
      // useful_route's flag semantics.
      selected = broker::ThresholdPolicy().Apply(std::move(ranked));
      if (request.topk > 0) {
        selected =
            broker::TopKPolicy(request.topk).Apply(std::move(selected));
      }
    } else {
      selected = std::move(ranked);
    }
  }
  trace->SetEnginesSelected(selected.size());

  obs::Trace::Span serialize_span =
      obs::Trace::StartSpan(trace, obs::Stage::kSerialize);
  reply.payload.reserve(selected.size());
  for (const broker::EngineSelection& sel : selected) {
    reply.payload.push_back(FormatSelection(sel));
  }
  return reply;
}

Reply Service::DoStats() {
  Reply reply;
  stats_.Set(Stats::kPackedReleases, packed_releases_->load());
  reply.payload = stats_.Render(cache_.counters(), num_engines());
  return reply;
}

Reply Service::DoMetrics() {
  Reply reply;
  stats_.Set(Stats::kPackedReleases, packed_releases_->load());
  reply.payload = stats_.RenderMetrics(cache_.counters(), num_engines());
  // Per-engine generation gauges ride after the registry: the engine set
  // is snapshot state, not Stats state, so the labels are rendered here.
  std::shared_ptr<const Snapshot> snapshot = GetSnapshot();
  obs::MetricsBuilder b;
  b.Family("useful_engine_generation",
           "Cache-key generation of each engine in the serving snapshot.",
           "gauge");
  for (std::size_t i = 0; i < snapshot->broker->num_engines(); ++i) {
    b.Sample("useful_engine_generation",
             "engine=\"" +
                 obs::EscapeLabelValue(snapshot->broker->engine_name(i)) +
                 '"',
             snapshot->gens[i]);
  }
  for (std::string& line : b.TakeLines()) {
    reply.payload.push_back(std::move(line));
  }
  return reply;
}

Reply Service::DoSlowlog(const Request& request) {
  Reply reply;
  reply.payload = stats_.RenderSlowlog(request.slowlog_n);
  return reply;
}

Reply Service::DoReload() {
  Reply reply;
  reply.status = Reload();
  if (reply.status.ok()) {
    reply.payload.push_back(StringPrintf("engines %zu", num_engines()));
  }
  return reply;
}

Reply Service::DoAdd(const Request& request) {
  Reply reply;
  std::size_t added = 0;
  reply.status = AddEngines(request.argument, &added);
  if (reply.status.ok()) {
    reply.payload.push_back(StringPrintf("added %zu", added));
    reply.payload.push_back(StringPrintf("engines %zu", num_engines()));
  }
  return reply;
}

Reply Service::DoDrop(const Request& request) {
  Reply reply;
  reply.status = DropEngine(request.argument);
  if (reply.status.ok()) {
    reply.payload.push_back("dropped 1");
    reply.payload.push_back(StringPrintf("engines %zu", num_engines()));
  }
  return reply;
}

Reply Service::DoUpdate(const Request& request) {
  Reply reply;
  std::size_t updated = 0;
  reply.status = UpdateEngines(request.argument, &updated);
  if (reply.status.ok()) {
    reply.payload.push_back(StringPrintf("updated %zu", updated));
    reply.payload.push_back(StringPrintf("engines %zu", num_engines()));
  }
  return reply;
}

}  // namespace useful::service
