// Shared-LLM-cache coverage: LRU eviction determinism, singleflight
// leader/follower accounting, failed-leader re-election, fault
// composition (no poisoning), the system-wide cache setting, and
// byte-identical answers with the cache on/off at parallelism 1 and 4.
// The concurrent cases double as the TSAN target (scripts/check.sh).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <list>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/telemetry_names.h"
#include "core/runtime/service.h"
#include "corpus/dataset_profile.h"
#include "corpus/workload.h"
#include "llm/shared_cache.h"
#include "llm/sim_llm.h"

namespace unify::llm {
namespace {

/// A counting base client: every per-item completion is a pure function
/// of the item string, so cache correctness is checkable exactly. Calls
/// can be gated (blocked) to force in-flight overlap deterministically.
class CountingLlm : public LlmClient {
 public:
  LlmResult Call(const LlmCall& call) override {
    const int64_t arrival = arrivals_.fetch_add(1);
    if (gate_until_arrivals_ > 0) {
      // Block every gated call until enough calls have arrived, so the
      // test can guarantee concurrent identical misses really overlap.
      while (arrivals_.load() < gate_until_arrivals_ && !released_.load()) {
        std::this_thread::yield();
      }
    }
    if (fail_first_ && arrival == 0) {
      LlmResult failed;
      failed.status = Status::DeadlineExceeded("scripted transient failure");
      failed.seconds = 1.0;
      failed.dollars = 0.01;
      return failed;
    }
    LlmResult r;
    for (const auto& item : call.items) {
      r.items.push_back(lie_ ? "poisoned" : "value-of-" + item);
    }
    r.seconds = 1.0;
    r.dollars = 0.01 * static_cast<double>(call.items.size());
    r.in_tokens = 10 * static_cast<int64_t>(call.items.size());
    r.out_tokens = 5 * static_cast<int64_t>(call.items.size());
    return r;
  }

  LlmUsage usage() const override { return {}; }
  void ResetUsage() override {}

  int64_t arrivals() const { return arrivals_.load(); }
  void Release() { released_.store(true); }

  /// Gated calls spin until this many calls have arrived (or Release()).
  int64_t gate_until_arrivals_ = 0;
  /// The first call to arrive fails with a transient status.
  bool fail_first_ = false;
  /// Return a wrong completion for every item (a poisoning base).
  bool lie_ = false;

 private:
  std::atomic<int64_t> arrivals_{0};
  std::atomic<bool> released_{false};
};

LlmCall DocCall(std::vector<std::string> items,
                const std::string& condition = "about tennis") {
  LlmCall call;
  call.type = PromptType::kEvalPredicate;
  call.tier = ModelTier::kWorker;
  call.fields["condition"] = condition;
  call.items = std::move(items);
  return call;
}

TEST(SharedCacheTest, HitsServeWithoutBaseCallAndChargeNothing) {
  CountingLlm base;
  SharedLlmCache cache(SharedLlmCacheOptions{});
  SharedCacheLlmClient client(&base, &cache, /*enabled=*/true);

  LlmResult first = client.Call(DocCall({"d1", "d2", "d3"}));
  ASSERT_TRUE(first.status.ok());
  EXPECT_EQ(base.arrivals(), 1);
  EXPECT_DOUBLE_EQ(first.seconds, 1.0);
  EXPECT_DOUBLE_EQ(first.dollars, 0.03);

  LlmResult second = client.Call(DocCall({"d1", "d2", "d3"}));
  ASSERT_TRUE(second.status.ok());
  EXPECT_EQ(base.arrivals(), 1) << "full hit must not touch the base";
  EXPECT_EQ(second.items, first.items);
  EXPECT_DOUBLE_EQ(second.seconds, 0.0);
  EXPECT_DOUBLE_EQ(second.dollars, 0.0);
  EXPECT_EQ(second.in_tokens, 0);

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.item_hits, 3);
  EXPECT_EQ(stats.item_misses, 3);
  EXPECT_EQ(stats.entries, 3);
  EXPECT_GT(stats.bytes, 0);
  EXPECT_DOUBLE_EQ(stats.saved_dollars, 0.03);
}

TEST(SharedCacheTest, PartialHitPaysOnlyTheReducedCall) {
  CountingLlm base;
  SharedLlmCache cache(SharedLlmCacheOptions{});
  SharedCacheLlmClient client(&base, &cache, true);

  ASSERT_TRUE(client.Call(DocCall({"d1", "d2"})).status.ok());
  LlmResult mixed = client.Call(DocCall({"d1", "d2", "d3", "d4"}));
  ASSERT_TRUE(mixed.status.ok());
  EXPECT_EQ(base.arrivals(), 2);
  ASSERT_EQ(mixed.items.size(), 4u);
  EXPECT_EQ(mixed.items[0], "value-of-d1");
  EXPECT_EQ(mixed.items[3], "value-of-d4");
  // Only the 2-item reduced call is charged.
  EXPECT_DOUBLE_EQ(mixed.dollars, 0.02);
  EXPECT_EQ(mixed.in_tokens, 20);
}

TEST(SharedCacheTest, DistinctFieldsAndTypesDoNotCollide) {
  CountingLlm base;
  SharedLlmCache cache(SharedLlmCacheOptions{});
  SharedCacheLlmClient client(&base, &cache, true);

  ASSERT_TRUE(client.Call(DocCall({"d1"}, "about tennis")).status.ok());
  ASSERT_TRUE(client.Call(DocCall({"d1"}, "about golf")).status.ok());
  LlmCall extract = DocCall({"d1"}, "about tennis");
  extract.type = PromptType::kExtractValue;
  ASSERT_TRUE(client.Call(extract).status.ok());
  EXPECT_EQ(base.arrivals(), 3);
  EXPECT_EQ(cache.stats().entries, 3);
}

TEST(SharedCacheTest, UncacheableTypesAndDisabledThreadsPassThrough) {
  CountingLlm base;
  SharedLlmCache cache(SharedLlmCacheOptions{});
  SharedCacheLlmClient client(&base, &cache, true);

  LlmCall planning;
  planning.type = PromptType::kSemanticParse;
  planning.fields["query"] = "count the tennis questions";
  ASSERT_TRUE(client.Call(planning).status.ok());
  ASSERT_TRUE(client.Call(planning).status.ok());
  EXPECT_EQ(base.arrivals(), 2) << "planning prompts are never cached";

  {
    SharedCacheLlmClient::ScopedBypass outer;
    {
      SharedCacheLlmClient::ScopedBypass nested;
      ASSERT_TRUE(client.Call(DocCall({"d1"})).status.ok());
    }
    ASSERT_TRUE(client.Call(DocCall({"d1"})).status.ok());
  }
  EXPECT_EQ(base.arrivals(), 4) << "ScopedBypass must bypass the cache";
  EXPECT_EQ(cache.stats().entries, 0);

  // A disabled client passes through too; the bypass ended with its scope.
  SharedCacheLlmClient disabled(&base, &cache, /*enabled=*/false);
  ASSERT_TRUE(disabled.Call(DocCall({"d2"})).status.ok());
  EXPECT_EQ(cache.stats().entries, 0);
  ASSERT_TRUE(client.Call(DocCall({"d2"})).status.ok());
  ASSERT_TRUE(client.Call(DocCall({"d2"})).status.ok());
  EXPECT_EQ(base.arrivals(), 6);
  EXPECT_EQ(cache.stats().item_hits, 1);
}

TEST(SharedCacheTest, DuplicateItemsInOneCallResolveThroughOneLookup) {
  CountingLlm base;
  SharedLlmCache cache(SharedLlmCacheOptions{});
  SharedCacheLlmClient client(&base, &cache, true);

  LlmResult r = client.Call(DocCall({"d1", "d1", "d2"}));
  ASSERT_TRUE(r.status.ok());
  ASSERT_EQ(r.items.size(), 3u);
  EXPECT_EQ(r.items[0], r.items[1]);
  EXPECT_EQ(base.arrivals(), 1);
  // The reduced base call carried the two unique items only.
  EXPECT_DOUBLE_EQ(r.dollars, 0.02);
}

TEST(SharedCacheTest, LruEvictionIsDeterministic) {
  SharedLlmCacheOptions opts;
  opts.num_shards = 1;  // one shard -> one global LRU order
  opts.max_entries = 3;
  opts.max_bytes = 0;
  auto run_sequence = [&]() {
    CountingLlm base;
    SharedLlmCache cache(opts);
    SharedCacheLlmClient client(&base, &cache, true);
    for (const char* item : {"a", "b", "c", "a"}) {
      EXPECT_TRUE(client.Call(DocCall({item})).status.ok());
    }
    // Cache holds {c, a, b}(MRU-first). Admitting d evicts the LRU b.
    EXPECT_TRUE(client.Call(DocCall({"d"})).status.ok());
    EXPECT_TRUE(client.Call(DocCall({"a"})).status.ok());  // hit
    EXPECT_TRUE(client.Call(DocCall({"b"})).status.ok());  // re-miss: evicted
    return std::make_pair(cache.stats(), base.arrivals());
  };

  auto [stats, arrivals] = run_sequence();
  EXPECT_EQ(stats.evictions, 2);  // d evicted b, then b evicted c's LRU tail
  EXPECT_EQ(stats.entries, 3);
  EXPECT_EQ(stats.item_hits, 2);   // the repeated a, twice
  EXPECT_EQ(stats.item_misses, 5);  // a b c d + the re-missed b
  EXPECT_EQ(arrivals, 5);

  // Deterministic: an identical access sequence on a fresh cache lands on
  // identical counters, byte for byte.
  auto [stats2, arrivals2] = run_sequence();
  EXPECT_EQ(stats2.evictions, stats.evictions);
  EXPECT_EQ(stats2.entries, stats.entries);
  EXPECT_EQ(stats2.item_hits, stats.item_hits);
  EXPECT_EQ(stats2.item_misses, stats.item_misses);
  EXPECT_EQ(stats2.bytes, stats.bytes);
  EXPECT_EQ(arrivals2, arrivals);
}

TEST(SharedCacheTest, DistinctFieldsNeverShareAnEntry) {
  // Joined as one "fields + item" string these two calls would be equal:
  // the item of the first spells out the second's extra field.
  CountingLlm base;
  SharedLlmCache cache(SharedLlmCacheOptions{});
  SharedCacheLlmClient client(&base, &cache, true);

  LlmCall first = DocCall({std::string("b\x1fy\x1e") + "1"});
  first.fields = {{"a", "x"}};
  LlmCall second = DocCall({"1"});
  second.fields = {{"a", "x"}, {"b", "y"}};

  ASSERT_TRUE(client.Call(first).status.ok());
  LlmResult r = client.Call(second);
  ASSERT_TRUE(r.status.ok());
  ASSERT_EQ(r.items.size(), 1u);
  EXPECT_EQ(r.items[0], "value-of-1") << "served another call's completion";
  EXPECT_EQ(base.arrivals(), 2);
  EXPECT_EQ(cache.stats().item_hits, 0);
  EXPECT_EQ(cache.stats().entries, 2);
}

/// A single-threaded base that records each call's items, returns
/// "<field values>:<item>" completions and fails one scripted arrival.
class RecordingLlm : public LlmClient {
 public:
  explicit RecordingLlm(int fail_arrival) : fail_arrival_(fail_arrival) {}

  LlmResult Call(const LlmCall& call) override {
    calls.push_back(call.items);
    LlmResult r;
    if (static_cast<int>(calls.size()) - 1 == fail_arrival_) {
      r.status = Status::DeadlineExceeded("scripted transient failure");
      return r;
    }
    std::string prefix;
    for (const auto& [k, v] : call.fields) prefix += v + "/";
    for (const auto& item : call.items) r.items.push_back(prefix + item);
    r.seconds = 1.0;
    r.dollars = 0.01 * static_cast<double>(call.items.size());
    return r;
  }
  LlmUsage usage() const override { return {}; }
  void ResetUsage() override {}

  std::vector<std::vector<std::string>> calls;

 private:
  int fail_arrival_;
};

/// A base whose every call fails: probing through it tells resident
/// entries (hits) from absent ones without admitting anything.
class FailingLlm : public LlmClient {
 public:
  LlmResult Call(const LlmCall&) override {
    LlmResult r;
    r.status = Status::Internal("probe");
    return r;
  }
  LlmUsage usage() const override { return {}; }
  void ResetUsage() override {}
};

TEST(SharedCacheTest, AccessSequencePinned) {
  // Five prompt shapes: three predicates (one long), an extraction and a
  // classification. Items repeat across calls and inside calls.
  std::vector<LlmCall> shapes(5);
  shapes[0] = DocCall({}, "about tennis");
  shapes[1] = DocCall({}, "about golf");
  shapes[2] = DocCall({});
  shapes[2].fields = {{"kind", "numeric"}, {"attribute", "age"},
                      {"cmp", "between"}, {"value", "30"},
                      {"value2", "45"}};
  shapes[3].type = PromptType::kExtractValue;
  shapes[3].fields = {{"attribute", "age"}};
  shapes[4].type = PromptType::kClassifyDoc;
  shapes[4].fields = {{"by", "sport"}};

  struct Case {
    int num_shards;
    size_t max_entries;
    size_t max_bytes;
    const char* pattern;
    const char* resident;
    CacheStats stats;
  };
  const Case cases[] = {
      {1, 12, 1400,
       "M0 M0 MM0 MMMH0 M0 M0 MDM1 MMM!0 MDM1 MMDM4 M1 MMMMD4 MMMM7 MM1 "
       "HMHD2 HMMDD2 MH1 MHHD1 MMDDH1 MMDM3 M1 MMHDMM2 M1 MM4 MMM1 MMM3 "
       "HMMDDH2 HMDMDM1 H0 MMMDM4 H0 HMM3 HM1 MMM4 HHMDM1 MMMM8 MHMM4 MM1 "
       "MMMMMM4 MMMM2 ",
       "1:0 1:2 1:3 1:7 1:9 1:11 3:4 4:1 4:4 4:9 4:11 ",
       {/*item_hits=*/37, /*item_misses=*/90, /*coalesced=*/0,
        /*evictions=*/76, /*entries=*/11, /*bytes=*/1332,
        /*saved_dollars=*/0.19}},
      {16, 64, 16 * 260,
       "M0 M0 MM0 MMMH0 M0 M0 MDM0 MMM!0 MDM0 MMDM1 M0 MMMMD4 HMMM4 MM0 "
       "HMMD2 HMMDD1 MH0 MHMD2 MMDDH1 HMDM1 M1 MMHDMM3 M0 MM3 MMH2 MMM2 "
       "HHMDDH1 HHDMDM0 H0 MHMDM2 H0 HHM0 HM1 MMM5 HHHDM1 HMMM3 MHMM4 MM2 "
       "MHHMHH2 HMHH0 ",
       "0:5 0:8 1:0 1:2 1:3 1:4 1:6 1:7 1:9 2:1 2:2 2:3 2:4 3:4 3:6 3:9 "
       "3:11 4:0 4:1 4:4 4:5 4:7 4:9 4:10 4:11 ",
       {/*item_hits=*/51, /*item_misses=*/76, /*coalesced=*/0,
        /*evictions=*/48, /*entries=*/25, /*bytes=*/3386,
        /*saved_dollars=*/0.33}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("num_shards=" + std::to_string(c.num_shards));
    SharedLlmCacheOptions opts;
    opts.num_shards = c.num_shards;
    opts.max_entries = c.max_entries;
    opts.max_bytes = c.max_bytes;
    SharedLlmCache cache(opts);
    RecordingLlm base(/*fail_arrival=*/7);
    SharedCacheLlmClient client(&base, &cache, true);

    // Per call: one letter per item (M = sent to the base, H = served
    // from an entry, D = duplicate of an earlier item of the call), "!"
    // for a failed call, then the evictions the call caused.
    std::string pattern;
    Rng rng(16);
    for (int n = 0; n < 40; ++n) {
      LlmCall call = shapes[rng.NextUint64(shapes.size())];
      call.tier = ModelTier::kWorker;
      const int64_t size = rng.UniformInt(1, 6);
      for (int64_t k = 0; k < size; ++k) {
        call.items.push_back("doc" + std::to_string(rng.UniformInt(0, 11)));
      }
      const size_t base_calls = base.calls.size();
      const int64_t evictions = cache.stats().evictions;
      LlmResult r = client.Call(call);
      std::vector<std::string> sent;
      if (base.calls.size() > base_calls) sent = base.calls.back();
      size_t next_sent = 0;
      for (size_t i = 0; i < call.items.size(); ++i) {
        bool dup = false;
        for (size_t j = 0; j < i; ++j) dup |= call.items[j] == call.items[i];
        if (dup) {
          pattern += 'D';
        } else if (next_sent < sent.size() &&
                   sent[next_sent] == call.items[i]) {
          pattern += 'M';
          ++next_sent;
        } else {
          pattern += 'H';
        }
        if (r.status.ok()) {
          std::string want;
          for (const auto& [k, v] : call.fields) want += v + "/";
          EXPECT_EQ(r.items[i], want + call.items[i]) << "call " << n;
        }
      }
      if (!r.status.ok()) pattern += '!';
      pattern += std::to_string(cache.stats().evictions - evictions) + " ";
    }
    EXPECT_EQ(pattern, c.pattern);

    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.item_hits, c.stats.item_hits);
    EXPECT_EQ(stats.item_misses, c.stats.item_misses);
    EXPECT_EQ(stats.coalesced, 0);
    EXPECT_EQ(stats.evictions, c.stats.evictions);
    EXPECT_EQ(stats.entries, c.stats.entries);
    EXPECT_EQ(stats.bytes, c.stats.bytes);
    EXPECT_NEAR(stats.saved_dollars, c.stats.saved_dollars, 1e-12);

    // The resident set, probed one (shape, item) at a time through a
    // failing base (a probe admits nothing and evicts nothing).
    FailingLlm failing;
    SharedCacheLlmClient probe(&failing, &cache, true);
    std::string resident;
    for (size_t s = 0; s < shapes.size(); ++s) {
      for (int d = 0; d < 12; ++d) {
        LlmCall call = shapes[s];
        call.items = {"doc" + std::to_string(d)};
        if (probe.Call(call).status.ok()) {
          resident += std::to_string(s) + ":" + std::to_string(d) + " ";
        }
      }
    }
    EXPECT_EQ(resident, c.resident);
    EXPECT_EQ(cache.stats().entries, c.stats.entries);
  }
}

TEST(SharedCacheTest, MatchesAReferenceLruUnderChurn) {
  // Thousands of admissions, hits and evictions in one shard, checked
  // item by item against a plain list-and-map LRU of the same capacity.
  constexpr size_t kCapacity = 300;
  SharedLlmCacheOptions opts;
  opts.num_shards = 1;
  opts.max_entries = kCapacity;
  opts.max_bytes = 0;
  SharedLlmCache cache(opts);
  RecordingLlm base(/*fail_arrival=*/-1);
  SharedCacheLlmClient client(&base, &cache, true);

  std::list<std::string> lru;  // most recent first
  std::map<std::string, std::list<std::string>::iterator> where;
  int64_t evictions = 0;
  Rng rng(12);
  for (int n = 0; n < 4000; ++n) {
    // Half the items come from a hot tenth of the id space.
    LlmCall call = DocCall({}, n % 3 == 0 ? "about golf" : "about tennis");
    const int64_t size = rng.UniformInt(1, 4);
    for (int64_t k = 0; k < size; ++k) {
      const int64_t id = rng.UniformInt(0, 1) == 0 ? rng.UniformInt(0, 99)
                                                   : rng.UniformInt(0, 999);
      const std::string item = "doc" + std::to_string(id);
      if (std::find(call.items.begin(), call.items.end(), item) ==
          call.items.end()) {
        call.items.push_back(item);
      }
    }
    // The model: hits refresh in item order, then misses are admitted in
    // item order, each evicting the tail past capacity.
    std::vector<std::string> want_sent;
    for (const auto& item : call.items) {
      const std::string key = call.fields.at("condition") + "|" + item;
      auto it = where.find(key);
      if (it != where.end()) {
        lru.splice(lru.begin(), lru, it->second);
      } else {
        want_sent.push_back(item);
      }
    }
    for (const auto& item : want_sent) {
      lru.push_front(call.fields.at("condition") + "|" + item);
      where[lru.front()] = lru.begin();
      if (lru.size() > kCapacity) {
        where.erase(lru.back());
        lru.pop_back();
        ++evictions;
      }
    }

    const size_t base_calls = base.calls.size();
    ASSERT_TRUE(client.Call(call).status.ok());
    std::vector<std::string> sent;
    if (base.calls.size() > base_calls) sent = base.calls.back();
    ASSERT_EQ(sent, want_sent) << "call " << n;
  }
  EXPECT_EQ(cache.stats().evictions, evictions);
  EXPECT_EQ(cache.stats().entries, static_cast<int64_t>(lru.size()));
}

TEST(SharedCacheTest, SingleflightCoalescesConcurrentIdenticalMisses) {
  constexpr int kThreads = 8;
  CountingLlm base;
  base.gate_until_arrivals_ = 1;  // gate opens only via Release()
  SharedLlmCache cache(SharedLlmCacheOptions{});
  SharedCacheLlmClient client(&base, &cache, true);

  std::atomic<int> entered{0};
  std::vector<LlmResult> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      entered.fetch_add(1);
      results[t] = client.Call(DocCall({"shared-doc"}));
    });
  }
  // Let every thread reach Call() while the leader's base call is held
  // open, then release the leader.
  while (entered.load() < kThreads) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  base.Release();
  for (auto& th : threads) th.join();

  // Exactly one base call no matter how the threads interleaved.
  EXPECT_EQ(base.arrivals(), 1);
  int paid = 0, waited = 0;
  for (const LlmResult& r : results) {
    ASSERT_TRUE(r.status.ok());
    ASSERT_EQ(r.items.size(), 1u);
    EXPECT_EQ(r.items[0], "value-of-shared-doc");
    if (r.dollars > 0) paid += 1;
    if (r.seconds > 0) waited += 1;
  }
  EXPECT_EQ(paid, 1) << "followers and hits are charged zero dollars";

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.item_misses, 1);
  EXPECT_EQ(stats.item_hits + stats.coalesced, kThreads - 1);
  // The leader and every coalesced follower are charged the base call's
  // virtual second; threads that arrived after completion hit for free.
  EXPECT_EQ(waited, 1 + stats.coalesced);
}

TEST(SharedCacheTest, CoalescingOffEveryConcurrentMissPays) {
  CountingLlm base;
  base.gate_until_arrivals_ = 2;  // both calls must arrive before either returns
  SharedLlmCacheOptions opts;
  opts.coalesce = false;
  SharedLlmCache cache(opts);
  SharedCacheLlmClient client(&base, &cache, true);

  auto call = [&] { return client.Call(DocCall({"shared-doc"})); };
  auto f1 = std::async(std::launch::async, call);
  auto f2 = std::async(std::launch::async, call);
  LlmResult r1 = f1.get(), r2 = f2.get();
  ASSERT_TRUE(r1.status.ok());
  ASSERT_TRUE(r2.status.ok());
  EXPECT_EQ(r1.items, r2.items);

  EXPECT_EQ(base.arrivals(), 2) << "without coalescing both misses pay";
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.coalesced, 0);
  EXPECT_EQ(stats.item_misses, 2);
  EXPECT_DOUBLE_EQ(r1.dollars + r2.dollars, 0.02);
}

TEST(SharedCacheTest, FailedLeaderIsNeverAdmittedAndFollowersReelect) {
  CountingLlm base;
  base.fail_first_ = true;
  base.gate_until_arrivals_ = 1;  // hold the failing leader open
  SharedLlmCache cache(SharedLlmCacheOptions{});
  SharedCacheLlmClient client(&base, &cache, true);

  std::atomic<bool> leader_started{false};
  std::thread leader([&] {
    leader_started.store(true);
    LlmResult r = client.Call(DocCall({"shared-doc"}));
    // The transient failure propagates to the leader's caller with its
    // accounting charged (the resilience layer below it already retried).
    EXPECT_FALSE(r.status.ok());
    EXPECT_DOUBLE_EQ(r.dollars, 0.01);
    EXPECT_DOUBLE_EQ(r.seconds, 1.0);
  });
  while (!leader_started.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread follower([&] {
    // Either follows the in-flight leader and re-elects after its
    // failure, or arrives later and leads directly — both end in its own
    // (successful) base call.
    LlmResult r = client.Call(DocCall({"shared-doc"}));
    EXPECT_TRUE(r.status.ok()) << r.status;
    ASSERT_EQ(r.items.size(), 1u);
    EXPECT_EQ(r.items[0], "value-of-shared-doc");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  base.Release();
  leader.join();
  follower.join();

  EXPECT_EQ(base.arrivals(), 2);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1) << "only the successful completion is admitted";
  EXPECT_EQ(stats.coalesced, 0) << "a failed leader coalesces nobody";

  // The surviving entry is the good value: a third call hits it.
  LlmResult again = client.Call(DocCall({"shared-doc"}));
  ASSERT_TRUE(again.status.ok());
  EXPECT_EQ(again.items[0], "value-of-shared-doc");
  EXPECT_EQ(base.arrivals(), 2);
}

TEST(SharedCacheTest, ClearResetsEntriesAndCounters) {
  CountingLlm base;
  SharedLlmCache cache(SharedLlmCacheOptions{});
  SharedCacheLlmClient client(&base, &cache, true);
  ASSERT_TRUE(client.Call(DocCall({"d1", "d2"})).status.ok());
  ASSERT_TRUE(client.Call(DocCall({"d1", "d2"})).status.ok());
  ASSERT_GT(cache.stats().entries, 0);

  cache.Clear();
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0);
  EXPECT_EQ(stats.bytes, 0);
  EXPECT_EQ(stats.item_hits, 0);
  EXPECT_EQ(stats.item_misses, 0);
  EXPECT_EQ(stats.coalesced, 0);
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_DOUBLE_EQ(stats.saved_dollars, 0.0);

  // Cleared means cold: the same call pays the base again.
  ASSERT_TRUE(client.Call(DocCall({"d1", "d2"})).status.ok());
  EXPECT_EQ(base.arrivals(), 2);
}

TEST(SharedCacheTest, ValidateCountsEntriesThatDisagreeWithTheOracle) {
  SharedLlmCacheOptions opts;
  opts.record_origin = true;

  // An honest base populates a cache the oracle agrees with.
  CountingLlm honest;
  SharedLlmCache good(opts);
  SharedCacheLlmClient good_client(&honest, &good, true);
  ASSERT_TRUE(good_client.Call(DocCall({"d1", "d2", "d3"})).status.ok());
  CountingLlm oracle;
  EXPECT_EQ(good.Validate(&oracle), 0);

  // A lying base produces entries the oracle refutes — the detector the
  // fault-composition bench uses to prove zero poisoning.
  CountingLlm liar;
  liar.lie_ = true;
  SharedLlmCache bad(opts);
  SharedCacheLlmClient bad_client(&liar, &bad, true);
  ASSERT_TRUE(bad_client.Call(DocCall({"d1", "d2"})).status.ok());
  EXPECT_EQ(bad.Validate(&oracle), 2);
}

// --- Full-system tests ---

class CacheSystemTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto profile = corpus::SportsProfile();
    profile.doc_count = 300;
    corpus_ = new corpus::Corpus(corpus::GenerateCorpus(profile, 33));
    llm_ = new SimulatedLlm(corpus_, SimLlmOptions{});
  }
  static void TearDownTestSuite() {
    delete llm_;
    delete corpus_;
    llm_ = nullptr;
    corpus_ = nullptr;
  }

  static std::vector<std::string> Queries(size_t n) {
    corpus::WorkloadOptions wopts;
    wopts.per_template = 1;
    wopts.seed = 99;
    std::vector<std::string> queries;
    for (const auto& qc : corpus::GenerateWorkload(*corpus_, wopts)) {
      queries.push_back(qc.text);
      if (queries.size() >= n) break;
    }
    return queries;
  }

  static corpus::Corpus* corpus_;
  static SimulatedLlm* llm_;
};

corpus::Corpus* CacheSystemTest::corpus_ = nullptr;
SimulatedLlm* CacheSystemTest::llm_ = nullptr;

TEST_F(CacheSystemTest, AnswersAreByteIdenticalCacheOnOffAtParallelism1And4) {
  const auto queries = Queries(6);
  ASSERT_GE(queries.size(), 4u);

  // Reference: cache disabled, sequential.
  core::UnifyOptions plain;
  plain.cost_feedback = false;
  core::UnifySystem reference(corpus_, llm_, plain);
  ASSERT_TRUE(reference.Setup().ok());
  std::map<std::string, std::string> expected;
  for (const auto& q : queries) {
    core::QueryResult r = reference.Answer(q);
    ASSERT_TRUE(r.status.ok()) << q << ": " << r.status;
    expected[q] = r.answer.ToString();
  }

  // Cache enabled — the answers must not move a byte, at parallelism 1
  // and 4, and the dollars must agree ACROSS parallelism settings (hits
  // and coalesced followers both charge zero, so the cache preserves the
  // executor's parallelism-invariance of spend). One system per
  // parallelism, so each round starts from the same cold cache and the
  // dollars comparison is exact.
  std::map<std::string, double> dollars_at_p1;
  for (int parallelism : {1, 4}) {
    core::UnifyOptions cached;
    cached.cost_feedback = false;
    cached.cache.enabled = true;
    cached.exec.max_intra_op_parallelism = parallelism;
    core::UnifySystem system(corpus_, llm_, cached);
    ASSERT_TRUE(system.Setup().ok());
    for (const auto& q : queries) {
      core::QueryResult r = system.Answer(q);
      ASSERT_TRUE(r.status.ok()) << q << ": " << r.status;
      EXPECT_EQ(r.answer.ToString(), expected[q])
          << "answer diverged with the cache on at parallelism "
          << parallelism << " for: " << q;
      if (parallelism == 1) {
        dollars_at_p1[q] = r.exec_dollars;
      } else {
        EXPECT_DOUBLE_EQ(r.exec_dollars, dollars_at_p1[q])
            << "cached dollars diverged across parallelism for: " << q;
      }
    }
    // The round actually used the cache.
    EXPECT_GT(system.llm_cache()->stats().entries, 0)
        << "parallelism " << parallelism;
  }
}

TEST_F(CacheSystemTest, CacheSettingIsSystemWide) {
  const std::string q = Queries(1).front();

  // A cache-off system leaves its cache untouched, even on a repeat.
  core::UnifyOptions off;
  off.cost_feedback = false;
  core::UnifySystem uncached(corpus_, llm_, off);
  ASSERT_TRUE(uncached.Setup().ok());
  for (int round = 0; round < 2; ++round) {
    core::QueryResult r = uncached.Answer(q);
    ASSERT_TRUE(r.status.ok()) << r.status;
    EXPECT_EQ(uncached.llm_cache()->stats().entries, 0);
    EXPECT_EQ(r.cache_item_hits, 0);
    EXPECT_EQ(r.cache_coalesced, 0);
  }

  // A cache-on system: the same query populates, then hits.
  core::UnifyOptions opts;
  opts.cost_feedback = false;
  opts.cache.enabled = true;
  core::UnifySystem system(corpus_, llm_, opts);
  ASSERT_TRUE(system.Setup().ok());
  EXPECT_EQ(system.llm_cache()->stats().entries, 0) << "Setup bypasses it";
  core::QueryResult cold = system.Answer(q);
  ASSERT_TRUE(cold.status.ok());
  EXPECT_GT(system.llm_cache()->stats().entries, 0);
  core::QueryResult warm = system.Answer(q);
  ASSERT_TRUE(warm.status.ok());
  EXPECT_EQ(warm.answer.ToString(), cold.answer.ToString());
  EXPECT_GT(warm.cache_item_hits, 0) << "per-query attribution on the result";
  EXPECT_EQ(warm.metrics.counters.count(telemetry::kMetricLlmCacheHits), 1u);
}

TEST_F(CacheSystemTest, ServedConcurrentQueriesShareOneCacheExactly) {
  // The TSAN serving target: 4 workers racing identical + distinct
  // queries through one shared cache, with exact per-query attribution.
  core::UnifyOptions opts;
  opts.cost_feedback = false;
  opts.cache.enabled = true;
  core::UnifySystem system(corpus_, llm_, opts);
  ASSERT_TRUE(system.Setup().ok());

  const auto queries = Queries(4);
  core::UnifyService::Options sopts;
  sopts.num_workers = 4;
  core::UnifyService service(&system, sopts);
  std::vector<std::future<core::QueryResult>> futures;
  for (int repeat = 0; repeat < 3; ++repeat) {
    for (const auto& q : queries) {
      core::QueryRequest request;
      request.text = q;
      futures.push_back(service.Submit(std::move(request)));
    }
  }
  int64_t attributed = 0;
  std::map<std::string, std::string> first_answer;
  for (size_t i = 0; i < futures.size(); ++i) {
    core::QueryResult r = futures[i].get();
    ASSERT_TRUE(r.status.ok()) << r.status;
    attributed += r.cache_item_hits + r.cache_coalesced;
    const std::string& q = queries[i % queries.size()];
    auto [it, inserted] = first_answer.emplace(q, r.answer.ToString());
    if (!inserted) {
      EXPECT_EQ(r.answer.ToString(), it->second) << q;
    }
  }
  const CacheStats stats = service.stats().cache;
  EXPECT_GT(stats.item_hits + stats.coalesced, 0)
      << "repeated queries must reuse per-document completions";
  // Exact attribution: per-query counts sum to the shared cache's total.
  EXPECT_EQ(attributed, stats.item_hits + stats.coalesced);
  EXPECT_GT(stats.entries, 0);
}

TEST_F(CacheSystemTest, InjectedFaultsNeverPoisonTheCache) {
  // Fault injection at the bench's 0.06 total rate, resilience +
  // degradation armed, record_origin on: after a concurrent served
  // workload, every resident entry must re-derive against a fresh
  // fault-free oracle on the same corpus.
  core::UnifyOptions opts;
  opts.cost_feedback = false;
  opts.cache.enabled = true;
  opts.cache.record_origin = true;
  opts.faults.rates.timeout = 0.02;
  opts.faults.rates.rate_limit = 0.02;
  opts.faults.rates.malformed = 0.02;
  opts.resilience.breaker.enabled = true;
  opts.graceful_degradation = true;
  core::UnifySystem system(corpus_, llm_, opts);
  ASSERT_TRUE(system.Setup().ok());

  const auto queries = Queries(6);
  core::UnifyService::Options sopts;
  sopts.num_workers = 4;
  core::UnifyService service(&system, sopts);
  std::vector<std::future<core::QueryResult>> futures;
  for (int repeat = 0; repeat < 2; ++repeat) {
    for (const auto& q : queries) {
      core::QueryRequest request;
      request.text = q;
      futures.push_back(service.Submit(std::move(request)));
    }
  }
  for (auto& f : futures) f.get();  // outcomes may vary; poisoning may not

  ASSERT_GT(system.llm_cache()->stats().entries, 0);
  SimulatedLlm oracle(corpus_, SimLlmOptions{});
  EXPECT_EQ(system.llm_cache()->Validate(&oracle), 0)
      << "a transient-failed or malformed completion reached the cache";
}

}  // namespace
}  // namespace unify::llm
