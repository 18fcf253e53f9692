#include "llm/shared_cache.h"

#include <algorithm>
#include <bit>
#include <iterator>
#include <tuple>
#include <utility>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/telemetry_names.h"

namespace unify::llm {

namespace {

/// Stable key of the prompt slots that determine a per-item completion
/// (`attempt` and tier are deliberately excluded — they never change a
/// temperature-0 completion).
std::string FieldsKey(const LlmCall& call) {
  std::string key = std::to_string(static_cast<int>(call.type));
  key += '\x1d';
  for (const auto& [k, v] : call.fields) {
    key += k;
    key += '\x1f';
    key += v;
    key += '\x1e';
  }
  return key;
}

/// Fixed per-entry overhead charged on top of the strings (list/map node
/// bookkeeping); only the *relative* bytes accounting needs to be sane.
constexpr size_t kEntryOverheadBytes = 64;

/// The fields table is swept no more often than this many records.
constexpr size_t kMinFieldsSweep = 64;

/// Set while a SharedCacheLlmClient::ScopedBypass is alive on the thread.
thread_local bool tls_bypass = false;

/// Drops the call's reference on its fields record on every return path.
template <typename Fields>
class FieldsRef {
 public:
  explicit FieldsRef(Fields* fields) : fields_(fields) {}
  ~FieldsRef() { --fields_->refs; }
  FieldsRef(const FieldsRef&) = delete;
  FieldsRef& operator=(const FieldsRef&) = delete;

 private:
  Fields* fields_;
};

}  // namespace

SharedLlmCache::SharedLlmCache(SharedLlmCacheOptions options)
    : options_(std::move(options)), fields_sweep_at_(kMinFieldsSweep) {
  const size_t shards =
      static_cast<size_t>(std::max(1, options_.num_shards));
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (options_.max_entries > 0) {
    max_entries_per_shard_ = std::max<size_t>(1, options_.max_entries / shards);
  }
  if (options_.max_bytes > 0) {
    max_bytes_per_shard_ = std::max<size_t>(1, options_.max_bytes / shards);
  }
}

bool SharedLlmCache::Cacheable(PromptType type) {
  switch (type) {
    case PromptType::kEvalPredicate:
    case PromptType::kExtractValue:
    case PromptType::kClassifyDoc:
      return true;
    default:
      return false;
  }
}

SharedLlmCache::EntryIt SharedLlmCache::EntryIndex::Find(
    const Key& key) const {
  if (size_ == 0) return none_;
  for (size_t i = Home(key.hash);; i = Next(i)) {
    const Slot& slot = slots_[i];
    if (slot.entry == none_) return none_;
    if (slot.hash == key.hash && slot.entry->fields == key.fields &&
        slot.entry->item == key.item) {
      return slot.entry;
    }
  }
}

void SharedLlmCache::EntryIndex::Place(const Slot& slot) {
  size_t i = Home(slot.hash);
  while (slots_[i].entry != none_) i = Next(i);
  slots_[i] = slot;
}

void SharedLlmCache::EntryIndex::Insert(EntryIt entry) {
  if (2 * (size_ + 1) > slots_.size()) {
    std::vector<Slot> old = std::move(slots_);
    const size_t capacity = std::max<size_t>(16, 2 * old.size());
    slots_.assign(capacity, Slot{0, none_});
    shift_ = 64 - std::countr_zero(capacity);
    for (const Slot& slot : old) {
      if (slot.entry != none_) Place(slot);
    }
  }
  Place(Slot{entry->hash, entry});
  ++size_;
}

void SharedLlmCache::EntryIndex::Erase(EntryIt entry) {
  size_t hole = Home(entry->hash);
  while (slots_[hole].entry != entry) hole = Next(hole);
  // Backward shift: move each later slot of the probe run into the hole
  // unless its home lies cyclically in (hole, slot] — then it must stay.
  for (size_t i = Next(hole); slots_[i].entry != none_; i = Next(i)) {
    const size_t home = Home(slots_[i].hash);
    const bool stays =
        hole <= i ? (hole < home && home <= i) : (hole < home || home <= i);
    if (!stays) {
      slots_[hole] = slots_[i];
      hole = i;
    }
  }
  slots_[hole].entry = none_;
  --size_;
}

void SharedLlmCache::EntryIndex::Clear() {
  slots_ = {};
  size_ = 0;
  shift_ = 64;
}

SharedLlmCache::Fields* SharedLlmCache::AcquireFields(
    const std::string& fields_key) {
  std::lock_guard<std::mutex> lock(fields_mu_);
  auto [it, inserted] = fields_.try_emplace(fields_key);
  // References only rise from zero under fields_mu_ (here), so a sweep
  // under the same lock never drops a record someone is about to use.
  ++it->second.refs;
  if (inserted && fields_.size() > fields_sweep_at_) {
    SweepFieldsLocked();
    fields_sweep_at_ = std::max(kMinFieldsSweep, 2 * fields_.size());
  }
  return &it->second;
}

void SharedLlmCache::SweepFieldsLocked() {
  std::erase_if(fields_, [](const auto& record) {
    return record.second.refs == 0;
  });
}

int64_t SharedLlmCache::AdmitLocked(Shard& shard, const Key& key,
                                    size_t fields_bytes,
                                    const std::string& value,
                                    double dollars_share,
                                    std::unique_ptr<Origin> origin) {
  const EntryIt resident = shard.index.Find(key);
  if (resident != shard.lru.end()) {
    // Another leader of the same key (coalescing off, or a re-elected
    // round) got here first; refresh recency, keep its value — both
    // leaders derived it from the same pure function.
    shard.lru.splice(shard.lru.begin(), shard.lru, resident);
    return 0;
  }
  Entry entry;
  entry.fields = key.fields;
  entry.item = key.item;
  entry.hash = key.hash;
  entry.value = value;
  entry.dollars = dollars_share;
  // The size of the joined FieldsKey + item string stored twice: the
  // charge docs/caching.md fixes, so byte bounds keep their meaning.
  entry.bytes =
      2 * (fields_bytes + key.item.size()) + value.size() + kEntryOverheadBytes;
  entry.origin = std::move(origin);
  ++key.fields->refs;
  shard.bytes += entry.bytes;
  bytes_.fetch_add(static_cast<int64_t>(entry.bytes),
                   std::memory_order_relaxed);
  entries_.fetch_add(1, std::memory_order_relaxed);
  shard.lru.push_front(std::move(entry));
  shard.index.Insert(shard.lru.begin());

  // Evict the LRU tail while either per-shard bound is exceeded. The
  // guard keeps at least the entry just admitted so a single oversized
  // value still caches (and the caller's hit bookkeeping stays sane).
  int64_t evicted = 0;
  while (shard.lru.size() > 1 &&
         ((max_entries_per_shard_ > 0 &&
           shard.lru.size() > max_entries_per_shard_) ||
          (max_bytes_per_shard_ > 0 && shard.bytes > max_bytes_per_shard_))) {
    Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    bytes_.fetch_sub(static_cast<int64_t>(victim.bytes),
                     std::memory_order_relaxed);
    entries_.fetch_sub(1, std::memory_order_relaxed);
    shard.index.Erase(std::prev(shard.lru.end()));
    --victim.fields->refs;
    shard.lru.pop_back();
    ++evicted;
  }
  evictions_.fetch_add(evicted, std::memory_order_relaxed);
  return evicted;
}

LlmResult SharedLlmCache::CallThrough(LlmClient* base, const LlmCall& call) {
  // String work is per call: one FieldsKey, one FNV-1a pass over it, one
  // fields-table lookup. Per item: the hash continued over the item.
  const std::string fields_key = FieldsKey(call);
  const uint64_t prefix_state = Fnv1aContinue(kFnv1aOffsetBasis, fields_key);
  Fields* fields = AcquireFields(fields_key);
  const FieldsRef<Fields> fields_ref(fields);

  const size_t n = call.items.size();
  std::vector<uint64_t> hashes(n);
  for (size_t i = 0; i < n; ++i) {
    hashes[i] = StableHashFinish(Fnv1aContinue(prefix_state, call.items[i]));
  }
  auto key = [&](size_t i) { return Key{fields, call.items[i], hashes[i]}; };

  // Duplicate items inside one call resolve through their first
  // occurrence (a call must not follow its own in-flight record). Sorting
  // indices by (hash, item, index) puts each run of equal items together,
  // first occurrence first.
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return std::tie(hashes[a], call.items[a], a) <
           std::tie(hashes[b], call.items[b], b);
  });
  std::vector<uint32_t> representative(n);
  for (size_t k = 0; k < n; ++k) {
    const uint32_t i = order[k];
    const bool repeat = k > 0 && call.items[order[k - 1]] == call.items[i];
    representative[i] = repeat ? representative[order[k - 1]] : i;
  }
  std::vector<size_t> pending;
  pending.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (representative[i] == i) pending.push_back(i);
  }

  std::vector<std::string> results(n);
  int64_t hits = 0, misses = 0, coalesced = 0, evictions = 0;
  double saved = 0;
  LlmResult merged;
  double total_seconds = 0;

  // Each round: classify pending keys (hit / follow / lead), issue ONE
  // reduced base call for the led keys, then wait on the followed
  // records. Followers of a failed leader re-enter the next round and
  // re-elect. Rounds are sequential in virtual time, so their phase
  // durations add; within a round the own base call and the followed
  // calls overlap, so the phase charges their max.
  while (!pending.empty()) {
    std::vector<size_t> lead;
    std::vector<std::shared_ptr<Inflight>> lead_records;
    std::vector<std::pair<size_t, std::shared_ptr<Inflight>>> follows;
    for (size_t i : pending) {
      Shard& shard = ShardFor(hashes[i]);
      std::lock_guard<std::mutex> lock(shard.mu);
      const EntryIt hit = shard.index.Find(key(i));
      if (hit != shard.lru.end()) {
        shard.lru.splice(shard.lru.begin(), shard.lru, hit);
        results[i] = hit->value;
        saved += hit->dollars;
        ++hits;
        continue;
      }
      if (options_.coalesce) {
        auto inflight = shard.inflight.find(key(i));
        if (inflight != shard.inflight.end()) {
          follows.emplace_back(i, inflight->second);
          continue;
        }
        auto record = std::make_shared<Inflight>();
        record->item = call.items[i];
        shard.inflight.emplace(Key{fields, record->item, hashes[i]}, record);
        lead_records.push_back(std::move(record));
      }
      lead.push_back(i);
      ++misses;
    }

    double phase_seconds = 0;
    if (!lead.empty()) {
      LlmCall reduced = call;
      reduced.items.clear();
      for (size_t i : lead) reduced.items.push_back(call.items[i]);
      LlmResult fresh = base->Call(reduced);
      const bool admitted =
          fresh.status.ok() && fresh.items.size() == lead.size();
      const double share =
          admitted ? fresh.dollars / static_cast<double>(lead.size()) : 0;
      if (admitted) {
        for (size_t j = 0; j < lead.size(); ++j) {
          const size_t i = lead[j];
          results[i] = fresh.items[j];
          std::unique_ptr<Origin> origin;
          if (options_.record_origin) {
            origin = std::make_unique<Origin>(
                Origin{call.type, call.tier, call.fields, call.items[i]});
          }
          Shard& shard = ShardFor(hashes[i]);
          std::lock_guard<std::mutex> lock(shard.mu);
          evictions += AdmitLocked(shard, key(i), fields_key.size(),
                                   fresh.items[j], share, std::move(origin));
        }
      }
      // Release the in-flight records whether or not the call succeeded:
      // followers of a failed leader must wake and re-elect, not hang.
      for (size_t j = 0; j < lead_records.size(); ++j) {
        const size_t i = lead[j];
        {
          Shard& shard = ShardFor(hashes[i]);
          std::lock_guard<std::mutex> lock(shard.mu);
          shard.inflight.erase(key(i));
        }
        Inflight& record = *lead_records[j];
        std::lock_guard<std::mutex> lock(record.mu);
        record.done = true;
        record.ok = admitted;
        if (admitted) {
          record.value = fresh.items[j];
          record.dollars = share;
          record.seconds = fresh.seconds;
        }
        record.cv.notify_all();
      }
      // The leader pays the base call in full — seconds, dollars, tokens.
      merged.in_tokens += fresh.in_tokens;
      merged.out_tokens += fresh.out_tokens;
      merged.dollars += fresh.dollars;
      merged.fields = fresh.fields;
      phase_seconds = std::max(phase_seconds, fresh.seconds);
      if (!fresh.status.ok()) {
        // Terminal failure (the resilience layer below already retried).
        // Propagate it with honest accounting; nothing was admitted.
        Commit(hits, misses, coalesced, evictions, saved);
        fresh.in_tokens = merged.in_tokens;
        fresh.out_tokens = merged.out_tokens;
        fresh.dollars = merged.dollars;
        fresh.seconds = total_seconds + phase_seconds;
        fresh.items.clear();
        return fresh;
      }
      if (fresh.items.size() != lead.size()) {
        Commit(hits, misses, coalesced, evictions, saved);
        LlmResult bad;
        bad.status =
            Status::Internal("shared cache: item count mismatch from base");
        return bad;
      }
    }

    std::vector<size_t> next_pending;
    for (auto& [i, record] : follows) {
      std::unique_lock<std::mutex> lock(record->mu);
      record->cv.wait(lock, [&] { return record->done; });
      if (record->ok) {
        results[i] = record->value;
        saved += record->dollars;
        ++coalesced;
        // The follower waited out the leader's call in virtual time;
        // concurrent waits of the same round overlap.
        phase_seconds = std::max(phase_seconds, record->seconds);
      } else {
        next_pending.push_back(i);
      }
    }
    total_seconds += phase_seconds;
    pending = std::move(next_pending);
  }

  for (size_t i = 0; i < n; ++i) {
    if (representative[i] != i) {
      results[i] = results[representative[i]];
      ++hits;
    }
  }

  Commit(hits, misses, coalesced, evictions, saved);

  merged.items = std::move(results);
  merged.seconds = total_seconds;
  return merged;
}

void SharedLlmCache::Commit(int64_t hits, int64_t misses, int64_t coalesced,
                            int64_t evictions, double saved) {
  item_hits_.fetch_add(hits, std::memory_order_relaxed);
  item_misses_.fetch_add(misses, std::memory_order_relaxed);
  coalesced_.fetch_add(coalesced, std::memory_order_relaxed);
  saved_dollars_.fetch_add(saved, std::memory_order_relaxed);
  if (hits > 0) {
    MetricAddCounter(telemetry::kMetricLlmCacheHits,
                     static_cast<double>(hits));
  }
  if (misses > 0) {
    MetricAddCounter(telemetry::kMetricLlmCacheMisses,
                     static_cast<double>(misses));
  }
  if (coalesced > 0) {
    MetricAddCounter(telemetry::kMetricLlmCacheCoalesced,
                     static_cast<double>(coalesced));
  }
  if (evictions > 0) {
    MetricAddCounter(telemetry::kMetricLlmCacheEvictions,
                     static_cast<double>(evictions));
  }
  MetricSetGauge(telemetry::kMetricLlmCacheBytes,
                 static_cast<double>(bytes_.load(std::memory_order_relaxed)));
}

CacheStats SharedLlmCache::stats() const {
  CacheStats s;
  s.item_hits = item_hits_.load(std::memory_order_relaxed);
  s.item_misses = item_misses_.load(std::memory_order_relaxed);
  s.coalesced = coalesced_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.entries = entries_.load(std::memory_order_relaxed);
  s.bytes = bytes_.load(std::memory_order_relaxed);
  s.saved_dollars = saved_dollars_.load(std::memory_order_relaxed);
  return s;
}

void SharedLlmCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const Entry& entry : shard->lru) {
      --entry.fields->refs;
    }
    shard->lru.clear();
    shard->index.Clear();
    shard->bytes = 0;
    // In-flight records stay: their leaders complete and re-admit.
  }
  item_hits_.store(0, std::memory_order_relaxed);
  item_misses_.store(0, std::memory_order_relaxed);
  coalesced_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
  entries_.store(0, std::memory_order_relaxed);
  bytes_.store(0, std::memory_order_relaxed);
  saved_dollars_.store(0, std::memory_order_relaxed);
  {
    // Only the fields of calls still in progress survive.
    std::lock_guard<std::mutex> lock(fields_mu_);
    SweepFieldsLocked();
    fields_sweep_at_ = kMinFieldsSweep;
  }
  MetricSetGauge(telemetry::kMetricLlmCacheBytes, 0);
}

int64_t SharedLlmCache::Validate(LlmClient* oracle) const {
  int64_t mismatches = 0;
  for (const auto& shard : shards_) {
    // Snapshot under the lock; oracle calls happen outside it.
    std::vector<std::pair<Origin, std::string>> entries;
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      for (const Entry& entry : shard->lru) {
        if (entry.origin == nullptr) continue;
        entries.emplace_back(*entry.origin, entry.value);
      }
    }
    for (const auto& [origin, value] : entries) {
      LlmCall probe;
      probe.type = origin.type;
      probe.tier = origin.tier;
      probe.fields = origin.fields;
      probe.items = {origin.item};
      LlmResult truth = oracle->Call(probe);
      if (!truth.status.ok() || truth.items.size() != 1 ||
          truth.items[0] != value) {
        ++mismatches;
      }
    }
  }
  return mismatches;
}

LlmResult SharedCacheLlmClient::Call(const LlmCall& call) {
  if (!enabled_ || tls_bypass || !SharedLlmCache::Cacheable(call.type) ||
      call.items.empty()) {
    return base_->Call(call);
  }
  return cache_->CallThrough(base_, call);
}

SharedCacheLlmClient::ScopedBypass::ScopedBypass() : previous_(tls_bypass) {
  tls_bypass = true;
}

SharedCacheLlmClient::ScopedBypass::~ScopedBypass() {
  tls_bypass = previous_;
}

}  // namespace unify::llm
