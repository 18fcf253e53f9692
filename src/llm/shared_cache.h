#ifndef UNIFY_LLM_SHARED_CACHE_H_
#define UNIFY_LLM_SHARED_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "llm/llm_client.h"

namespace unify::llm {

/// Configuration of a SharedLlmCache (UnifyOptions::cache).
struct SharedLlmCacheOptions {
  /// Serve per-document completions from the cache. Off keeps the cache
  /// instance constructed but dormant.
  bool enabled = false;
  /// Mutex-striped shards. Keys are distributed by stable hash, so two
  /// concurrent queries touching different documents rarely contend.
  int num_shards = 16;
  /// Upper bound on cached (fields, item) entries across all shards
  /// (0 = unbounded). Enforced per shard as max_entries / num_shards.
  size_t max_entries = 1 << 20;
  /// Approximate upper bound on resident bytes across all shards
  /// (0 = unbounded). Enforced per shard as max_bytes / num_shards.
  size_t max_bytes = 256ull << 20;
  /// In-flight coalescing (singleflight): concurrent identical misses
  /// elect one leader that performs the base call; followers block and
  /// are charged zero dollars/tokens but the leader's virtual seconds.
  /// Off degrades to plain memoization (each concurrent miss pays).
  bool coalesce = true;
  /// Keep each entry's originating (type, tier, fields, item) so
  /// Validate() can re-derive every cached value against an oracle
  /// client. Roughly doubles per-entry memory; benches/tests only.
  bool record_origin = false;
};

/// Point-in-time counters of a SharedLlmCache (the `unify::CacheStats`
/// of the public API; see docs/caching.md).
struct CacheStats {
  int64_t item_hits = 0;    ///< items served from a completed entry
  int64_t item_misses = 0;  ///< items that led a base call
  int64_t coalesced = 0;    ///< items that followed another call's leader
  int64_t evictions = 0;    ///< entries dropped by the LRU bound
  int64_t entries = 0;      ///< resident entries
  int64_t bytes = 0;        ///< approximate resident bytes
  /// Base-call dollars that hits and coalesced items avoided re-paying
  /// (pro-rata share of each producing call's cost).
  double saved_dollars = 0;
};

/// The cross-query LLM answer cache (docs/caching.md): a sharded,
/// bounded LRU over per-document completions keyed by (prompt type,
/// prompt fields, item), with singleflight in-flight coalescing.
///
/// Keys: a call's type and fields are one FieldsKey string, interned once
/// per call in a cache-wide table whose record is the call's "fields id";
/// an entry is keyed by (fields id, item). The string work is per call;
/// per item there is only the hash, continued from the FieldsKey's FNV-1a
/// state over the item's bytes — equal to StableHash64(FieldsKey + item),
/// the shard route.
///
/// Soundness rests on one invariant: a per-document completion is a pure
/// function of the (condition, document) pair at temperature 0, so any two
/// calls that agree on type, fields and item must agree on the item's
/// completion — batching never changes it.
///
/// Admission discipline (fault composition, docs/resilience.md): a value
/// is admitted ONLY from an OK base result whose item count matches the
/// issued call. A transient-failed or injected-malformed completion is
/// never admitted; followers that waited on a failed leader re-elect —
/// the next one retries the base call itself, under its own thread's
/// RetryBudget.
///
/// Accounting: hits charge zero seconds/dollars/tokens (the provider was
/// never called); a coalesced follower is charged zero dollars/tokens
/// but the leader's virtual seconds, so virtual-clock latency stays
/// honest — the follower really did wait for that call. Re-election
/// rounds are sequential: their phases add.
///
/// Thread-safe. Locks are per shard and never held across a base call
/// or a follower wait, so leaders of different keys proceed in parallel.
/// A call also takes the fields table's lock once, to intern its fields.
class SharedLlmCache {
 public:
  explicit SharedLlmCache(SharedLlmCacheOptions options);

  /// True for the per-document prompt families the cache may serve
  /// (kEvalPredicate, kExtractValue, kClassifyDoc).
  static bool Cacheable(PromptType type);

  /// Serves `call` through the cache: cached items are filled from
  /// entries, concurrent identical misses coalesce onto one leader, and
  /// remaining misses go to `base` as one reduced call whose admitted
  /// values populate the cache. Uncacheable calls must not be routed
  /// here (SharedCacheLlmClient forwards them to base directly).
  LlmResult CallThrough(LlmClient* base, const LlmCall& call);

  CacheStats stats() const;

  /// Drops every entry and resets the counters (the shell's
  /// `\cache clear`). In-flight leaders are unaffected: they complete
  /// and re-admit their values.
  void Clear();

  /// Re-derives every resident entry against `oracle` (requires
  /// record_origin): issues a batch-of-one call per entry and counts
  /// values that disagree. Returns the number of mismatches — 0 proves
  /// the cache holds no poisoned completions.
  int64_t Validate(LlmClient* oracle) const;

  const SharedLlmCacheOptions& options() const { return options_; }

 private:
  /// What produced an entry, kept only under record_origin.
  struct Origin {
    PromptType type;
    ModelTier tier;
    std::map<std::string, std::string> fields;
    std::string item;
  };

  /// One distinct FieldsKey string (prompt type + fields) in the
  /// cache-wide fields table. Its address is the "fields id" of every
  /// entry and in-flight record made from it. `refs` counts resident
  /// entries plus calls in progress; a record at zero is swept.
  struct Fields {
    std::atomic<int64_t> refs{0};
  };

  /// An entry's identity: (fields id, item). `hash` is
  /// StableHash64(FieldsKey + item) — the shard route and the index
  /// home — but equality never compares a joined string. The item views
  /// storage owned by the in-flight record or the call.
  struct Key {
    Fields* fields;
    std::string_view item;
    uint64_t hash;
  };
  struct KeyHash {
    size_t operator()(const Key& key) const {
      return static_cast<size_t>(key.hash);
    }
  };
  struct KeyEq {
    bool operator()(const Key& a, const Key& b) const {
      return a.hash == b.hash && a.fields == b.fields && a.item == b.item;
    }
  };

  struct Entry {
    Fields* fields = nullptr;
    std::string item;
    uint64_t hash = 0;
    std::string value;
    /// Pro-rata dollar share of the base call that produced the value
    /// (feeds CacheStats::saved_dollars on each hit).
    double dollars = 0;
    size_t bytes = 0;
    std::unique_ptr<Origin> origin;
  };
  using EntryIt = std::list<Entry>::iterator;

  /// A shard's index of its entries: open addressing with linear probing
  /// over a power-of-two array of (hash, entry) slots, at most half full
  /// and homed by the hash's top bits (the low bits route shards). A hit
  /// reads one slot and the entry it points to. Erase shifts the slots
  /// after it back, so no tombstones build up.
  class EntryIndex {
   public:
    /// `none` (the shard list's end()) marks empty slots and misses.
    explicit EntryIndex(EntryIt none) : none_(none) {}

    /// The entry with `key`, or `none`.
    EntryIt Find(const Key& key) const;
    /// Adds `entry`, whose key is absent.
    void Insert(EntryIt entry);
    /// Removes `entry`, which is present.
    void Erase(EntryIt entry);
    void Clear();

   private:
    struct Slot {
      uint64_t hash;
      EntryIt entry;
    };
    size_t Home(uint64_t hash) const { return hash >> shift_; }
    size_t Next(size_t slot) const {
      return (slot + 1) & (slots_.size() - 1);
    }
    /// Places `slot` in the first empty slot from its home.
    void Place(const Slot& slot);

    EntryIt none_;
    std::vector<Slot> slots_;
    size_t size_ = 0;
    int shift_ = 64;
  };

  /// One singleflight record: followers block on `cv` until the leader
  /// completes the base call (ok) or fails (not ok — followers re-elect).
  struct Inflight {
    /// Backs the in-flight map's key.
    std::string item;
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    bool ok = false;
    std::string value;
    double dollars = 0;
    /// The leader's base-call virtual seconds, charged to followers.
    double seconds = 0;
  };

  struct Shard {
    std::mutex mu;
    /// LRU order, most recent first.
    std::list<Entry> lru;
    EntryIndex index{lru.end()};
    std::unordered_map<Key, std::shared_ptr<Inflight>, KeyHash, KeyEq>
        inflight;
    size_t bytes = 0;
  };

  Shard& ShardFor(uint64_t hash) { return *shards_[hash % shards_.size()]; }

  /// Interns `fields_key` in the fields table and takes one reference
  /// for the calling CallThrough, which drops it on return. The one lock
  /// a call takes on the table.
  Fields* AcquireFields(const std::string& fields_key);

  /// Drops the fields records no entry or call references (fields_mu_).
  void SweepFieldsLocked();

  /// Inserts (or refreshes) `key` and evicts past the per-shard bounds.
  /// `fields_bytes` is the size of the key's FieldsKey string. Returns
  /// the number of evictions. Caller holds `shard.mu`.
  int64_t AdmitLocked(Shard& shard, const Key& key, size_t fields_bytes,
                      const std::string& value, double dollars_share,
                      std::unique_ptr<Origin> origin);

  /// Folds one CallThrough's deltas into the cache-wide counters and
  /// emits the llm.cache.* metrics (dual-written into the per-query
  /// ScopedSink of the calling thread, so attribution stays exact).
  void Commit(int64_t hits, int64_t misses, int64_t coalesced,
              int64_t evictions, double saved);

  SharedLlmCacheOptions options_;
  size_t max_entries_per_shard_ = 0;  ///< 0 = unbounded
  size_t max_bytes_per_shard_ = 0;    ///< 0 = unbounded
  std::vector<std::unique_ptr<Shard>> shards_;

  /// The fields table: each distinct FieldsKey stored once. Records are
  /// node-stable, so their addresses serve as ids. Swept of unreferenced
  /// records whenever it doubles past its size after the last sweep, so
  /// it holds at most twice the records that were live then (resident
  /// entries' fields plus calls in progress), or kMinFieldsSweep.
  std::mutex fields_mu_;
  std::unordered_map<std::string, Fields> fields_;
  size_t fields_sweep_at_;

  std::atomic<int64_t> item_hits_{0};
  std::atomic<int64_t> item_misses_{0};
  std::atomic<int64_t> coalesced_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<int64_t> entries_{0};
  std::atomic<int64_t> bytes_{0};
  std::atomic<double> saved_dollars_{0};
};

/// The client-stack adapter: routes cacheable per-document calls through
/// a SharedLlmCache and passes everything else to `base` untouched. In
/// UnifySystem's stack it sits between the resilience decorator and the
/// metering tracer —
///
///   SimulatedLlm -> FaultInjecting -> Resilient -> SharedCache -> Tracing
///
/// — so (a) what the cache sees has already survived retries/hedging
/// (failures reaching it are terminal for that attempt and are never
/// admitted), and (b) the tracer still meters every logical call,
/// including zero-cost hits.
class SharedCacheLlmClient : public LlmClient {
 public:
  /// `base` and `cache` must outlive the client. `enabled` is the
  /// system-wide setting (UnifyOptions::cache.enabled).
  SharedCacheLlmClient(LlmClient* base, SharedLlmCache* cache, bool enabled)
      : base_(base), cache_(cache), enabled_(enabled) {}

  LlmResult Call(const LlmCall& call) override;

  /// Usage of the *underlying* client — cache hits cost nothing.
  LlmUsage usage() const override { return base_->usage(); }
  void ResetUsage() override { base_->ResetUsage(); }

  /// RAII bypass of every SharedCacheLlmClient on the calling thread:
  /// calls pass straight to the base client, as with the cache disabled.
  /// UnifySystem::Setup() installs one so calibration always measures
  /// real per-call costs, without touching concurrent callers. Nests.
  class ScopedBypass {
   public:
    ScopedBypass();
    ~ScopedBypass();
    ScopedBypass(const ScopedBypass&) = delete;
    ScopedBypass& operator=(const ScopedBypass&) = delete;

   private:
    bool previous_;
  };

 private:
  LlmClient* base_;
  SharedLlmCache* cache_;
  bool enabled_;
};

}  // namespace unify::llm

#endif  // UNIFY_LLM_SHARED_CACHE_H_
