#include "service/query_cache.h"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "util/string_util.h"

namespace useful::service {

namespace {
// Rough fixed cost of one entry beyond its key and slots: the list and
// map nodes and the slot array's header. Keeps the byte budget honest for
// many tiny entries.
constexpr std::size_t kEntryOverhead = 96;

bool ByGen(const QueryCache::Slot& a, const QueryCache::Slot& b) {
  return a.gen < b.gen;
}

// Exact bit pattern of a double as 16 hex digits, so keying never depends
// on decimal formatting precision. Negative zero is canonicalized to
// +0.0 first: -0.0 == 0.0 numerically (identical rankings), so letting
// their distinct bit patterns through would split one logical entry in
// two.
void AppendDoubleBits(std::string* out, double value) {
  if (value == 0.0) value = 0.0;
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  out->append(StringPrintf("%016llx", static_cast<unsigned long long>(bits)));
}
}  // namespace

QueryCache::QueryCache(QueryCacheOptions options)
    : max_slots_(options.max_entries), max_bytes_(options.max_bytes) {}

std::string QueryCache::MakeKey(std::string_view estimator, double threshold,
                                const ir::Query& query) {
  // (term, weight, sign) triples sorted by term; the parsers already merged
  // duplicates, so terms are unique and the sort is a total order. Keying
  // on the *normalized* weight bits canonicalizes user-weight spellings:
  // "a^2" and "a^2.0" accumulate the same frequency, and a redundant
  // weight ("a^5" alone, normalized back to 1.0) keys identically to the
  // flat query — semantically equal queries share one entry. The negation
  // marker and the MSM suffix keep semantically *different* queries from
  // colliding with flat ones (normalized weights alone would: a negated
  // term keeps its positive weight).
  std::vector<const ir::QueryTerm*> terms;
  terms.reserve(query.terms.size());
  for (const ir::QueryTerm& t : query.terms) terms.push_back(&t);
  std::sort(terms.begin(), terms.end(),
            [](const ir::QueryTerm* a, const ir::QueryTerm* b) {
              return a->term < b->term;
            });
  std::string key;
  key.reserve(estimator.size() + 18 + query.terms.size() * 25 + 24);
  key.append(estimator);
  key.push_back('\x1f');
  AppendDoubleBits(&key, threshold);
  for (const ir::QueryTerm* t : terms) {
    key.push_back('\x1f');
    key.append(t->term);
    key.push_back('\x1e');
    AppendDoubleBits(&key, t->weight);
    key.push_back(t->negated ? '!' : '+');
  }
  if (query.min_should_match > 0) {
    key.push_back('\x1f');
    key.append(StringPrintf("MSM%zu", query.min_should_match));
  }
  return key;
}

std::size_t QueryCache::EntryBytes(std::string_view key, std::size_t slots) {
  return kEntryOverhead + key.size() + slots * sizeof(Slot);
}

bool QueryCache::Fits(std::size_t slots, std::size_t bytes) const {
  return slots <= max_slots_ && (max_bytes_ == 0 || bytes <= max_bytes_);
}

std::vector<std::optional<CachedEstimate>> QueryCache::Lookup(
    std::string_view key, std::span<const std::uint64_t> gens) {
  std::vector<std::optional<CachedEstimate>> out(gens.size());
  std::size_t found = 0;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    const std::vector<Slot>& slots = it->second->slots;
    // A snapshot's generations ascend like the slots, so the slot after
    // the last one matched is tried before a search.
    std::size_t next = 0;
    for (std::size_t i = 0; i < gens.size(); ++i) {
      auto slot = slots.begin() + next;
      if (next == slots.size() || slot->gen != gens[i]) {
        slot = std::lower_bound(slots.begin(), slots.end(),
                                Slot{gens[i], {}}, ByGen);
      }
      next = slot - slots.begin();
      if (slot != slots.end() && slot->gen == gens[i]) {
        out[i] = slot->value;
        ++found;
        ++next;
      }
    }
  }
  hits_ += found;
  misses_ += gens.size() - found;
  return out;
}

void QueryCache::Insert(std::string_view key, std::span<const Slot> slots,
                        std::uint64_t epoch) {
  std::vector<Slot> fresh(slots.begin(), slots.end());
  std::sort(fresh.begin(), fresh.end(), ByGen);
  std::lock_guard<std::mutex> lock(mu_);
  // Checked under the lock a sweep takes after raising the epoch: either
  // this Insert lands before the sweep, which then removes it, or it sees
  // the raised epoch.
  if (epoch < min_epoch_) {
    expired_ += fresh.size();
    return;
  }
  auto it = index_.find(key);
  if (it == index_.end()) {
    const std::size_t bytes = EntryBytes(key, fresh.size());
    if (fresh.empty() || !Fits(fresh.size(), bytes)) return;
    lru_.push_front(Entry{std::string(key), std::move(fresh), bytes});
    index_.emplace(std::string_view(lru_.front().key), lru_.begin());
    slots_ += lru_.front().slots.size();
    bytes_ += bytes;
  } else {
    // Merge by generation; a fresh slot replaces a cached one of the same
    // generation.
    Entry& entry = *it->second;
    std::vector<Slot> merged;
    merged.reserve(fresh.size() + entry.slots.size());
    std::set_union(fresh.begin(), fresh.end(), entry.slots.begin(),
                   entry.slots.end(), std::back_inserter(merged), ByGen);
    const std::size_t bytes = EntryBytes(key, merged.size());
    if (!Fits(merged.size(), bytes)) return;
    slots_ += merged.size() - entry.slots.size();
    bytes_ += bytes - entry.bytes;
    entry.slots = std::move(merged);
    entry.bytes = bytes;
    lru_.splice(lru_.begin(), lru_, it->second);
  }
  // The front entry, this one, fits on its own, so eviction stops before
  // reaching it.
  while (lru_.size() > 1 && !Fits(slots_, bytes_)) {
    const Entry& victim = lru_.back();
    slots_ -= victim.slots.size();
    bytes_ -= victim.bytes;
    evictions_ += victim.slots.size();
    index_.erase(std::string_view(victim.key));
    lru_.pop_back();
  }
}

std::optional<CachedEstimate> QueryCache::Get(std::string_view key) {
  const std::uint64_t gen = 0;
  return Lookup(key, {&gen, 1}).front();
}

void QueryCache::Put(std::string_view key, const CachedEstimate& value,
                     std::uint64_t epoch) {
  const Slot slot{0, value};
  Insert(key, {&slot, 1}, epoch);
}

void QueryCache::SetMinEpoch(std::uint64_t epoch) {
  // Monotone max: concurrent mutators may race here, the larger epoch
  // must win.
  std::lock_guard<std::mutex> lock(mu_);
  min_epoch_ = std::max(min_epoch_, epoch);
}

std::size_t QueryCache::EraseGenerations(std::vector<std::uint64_t> gens) {
  std::sort(gens.begin(), gens.end());
  std::size_t erased = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    const std::size_t removed = std::erase_if(it->slots, [&](const Slot& s) {
      return std::binary_search(gens.begin(), gens.end(), s.gen);
    });
    erased += removed;
    slots_ -= removed;
    bytes_ -= it->bytes;
    it->bytes = EntryBytes(it->key, it->slots.size());
    if (it->slots.empty()) {
      index_.erase(std::string_view(it->key));
      it = lru_.erase(it);
    } else {
      bytes_ += it->bytes;
      ++it;
    }
  }
  expired_ += erased;
  return erased;
}

void QueryCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  index_.clear();
  lru_.clear();
  slots_ = 0;
  bytes_ = 0;
}

QueryCache::Counters QueryCache::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  Counters c;
  c.hits = hits_;
  c.misses = misses_;
  c.evictions = evictions_;
  c.expired = expired_;
  c.entries = slots_;
  c.bytes = bytes_;
  return c;
}

}  // namespace useful::service
