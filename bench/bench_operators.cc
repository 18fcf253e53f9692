// Microbenchmarks (google-benchmark) of the pre-programmed physical
// operator implementations — these run real algorithms over real text, so
// wall-clock throughput is meaningful (unlike the LLM-based operators,
// whose cost is virtual by design) — plus the CPU cost of an LLM filter
// whose every batch is a shared-cache hit.

#include <benchmark/benchmark.h>

#include "core/operators/physical.h"
#include "corpus/dataset_profile.h"
#include "llm/shared_cache.h"
#include "llm/sim_llm.h"
#include "llm/tracing_client.h"

namespace unify::core {
namespace {

struct Fixture {
  corpus::Corpus corpus;
  llm::SimulatedLlm llm;
  DocList all;

  static Fixture& Get() {
    static Fixture* fixture = new Fixture();
    return *fixture;
  }

  ExecContext Ctx() {
    ExecContext ctx;
    ctx.corpus = &corpus;
    ctx.llm = &llm;
    return ctx;
  }

 private:
  Fixture()
      : corpus([] {
          auto profile = corpus::SportsProfile();
          return corpus::GenerateCorpus(profile, 2024);
        }()),
        llm(&corpus, llm::SimLlmOptions{}) {
    for (uint64_t i = 0; i < corpus.size(); ++i) all.push_back(i);
  }
};

void BM_ExactFilter(benchmark::State& state) {
  auto& f = Fixture::Get();
  auto ctx = f.Ctx();
  OpArgs args{{"kind", "numeric"},
              {"attribute", "views"},
              {"cmp", "gt"},
              {"value", "500"}};
  std::vector<Value> inputs = {Value::Docs(f.all)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ExecuteOp("Filter", PhysicalImpl::kExactFilter, args, inputs, ctx));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.all.size()));
}
BENCHMARK(BM_ExactFilter)->Unit(benchmark::kMillisecond);

void BM_KeywordFilter(benchmark::State& state) {
  auto& f = Fixture::Get();
  auto ctx = f.Ctx();
  OpArgs args{{"kind", "semantic"}, {"phrase", "tennis"}};
  std::vector<Value> inputs = {Value::Docs(f.all)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExecuteOp(
        "Filter", PhysicalImpl::kKeywordFilter, args, inputs, ctx));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.all.size()));
}
BENCHMARK(BM_KeywordFilter)->Unit(benchmark::kMillisecond);

void BM_RuleGroupBy(benchmark::State& state) {
  auto& f = Fixture::Get();
  auto ctx = f.Ctx();
  OpArgs args{{"by", "sport"}};
  std::vector<Value> inputs = {Value::Docs(f.all)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ExecuteOp("GroupBy", PhysicalImpl::kRuleGroupBy, args, inputs, ctx));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.all.size()));
}
BENCHMARK(BM_RuleGroupBy)->Unit(benchmark::kMillisecond);

void BM_RegexExtract(benchmark::State& state) {
  auto& f = Fixture::Get();
  auto ctx = f.Ctx();
  OpArgs args{{"attribute", "views"}};
  std::vector<Value> inputs = {Value::Docs(f.all)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExecuteOp(
        "Extract", PhysicalImpl::kRegexExtract, args, inputs, ctx));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.all.size()));
}
BENCHMARK(BM_RegexExtract)->Unit(benchmark::kMillisecond);

void BM_NumericTopK(benchmark::State& state) {
  auto& f = Fixture::Get();
  auto ctx = f.Ctx();
  OpArgs args{{"k", "5"}, {"attribute", "views"}, {"desc", "true"}};
  std::vector<Value> inputs = {Value::Docs(f.all)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ExecuteOp("TopK", PhysicalImpl::kNumericTopK, args, inputs, ctx));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.all.size()));
}
BENCHMARK(BM_NumericTopK)->Unit(benchmark::kMillisecond);

void BM_SetUnion(benchmark::State& state) {
  auto& f = Fixture::Get();
  auto ctx = f.Ctx();
  DocList odd;
  DocList third;
  for (uint64_t i = 0; i < f.all.size(); ++i) {
    if (i % 2) odd.push_back(i);
    if (i % 3 == 0) third.push_back(i);
  }
  std::vector<Value> inputs = {Value::Docs(odd), Value::Docs(third)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ExecuteOp("Union", PhysicalImpl::kPreSetOp, {}, inputs, ctx));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(odd.size() + third.size()));
}
BENCHMARK(BM_SetUnion)->Unit(benchmark::kMillisecond);

// The served hit path: a warmed LLM filter over the whole corpus, every
// 16-doc batch answered by the shared cache under the metering tracer —
// the client stack UnifySystem builds with cache.enabled, minus the fault
// and resilience layers, which a hit never reaches. The argument is the
// number of distinct conditions warmed and then cycled through: 1 keeps
// the entries in CPU caches; 16 (62k entries) is about the `dashboard`
// workload's resident set, where a hit is bound by memory latency.
void BM_CachedSemanticFilter(benchmark::State& state) {
  auto& f = Fixture::Get();
  llm::SharedLlmCacheOptions copts;
  copts.enabled = true;
  llm::SharedLlmCache cache(copts);
  llm::SharedCacheLlmClient cached(&f.llm, &cache, /*enabled=*/true);
  llm::TracingLlmClient traced(&cached);
  auto ctx = f.Ctx();
  ctx.llm = &traced;
  std::vector<OpArgs> conditions;
  for (int64_t c = 0; c < state.range(0); ++c) {
    conditions.push_back(
        {{"kind", "semantic"}, {"phrase", "tennis " + std::to_string(c)}});
  }
  std::vector<Value> inputs = {Value::Docs(f.all)};
  // The first pass fills the cache, so every timed run is all hits.
  for (const OpArgs& args : conditions) {
    if (!ExecuteOp("Filter", PhysicalImpl::kLlmFilter, args, inputs, ctx)
             .ok()) {
      state.SkipWithError("warm-up run failed");
      return;
    }
  }
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExecuteOp("Filter", PhysicalImpl::kLlmFilter,
                                       conditions[next], inputs, ctx));
    next = (next + 1) % conditions.size();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.all.size()));
}
BENCHMARK(BM_CachedSemanticFilter)
    ->Arg(1)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace unify::core

BENCHMARK_MAIN();
