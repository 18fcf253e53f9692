// Microbenchmarks (google-benchmark): the HNSW index against brute-force
// linear scan — the substrate behind the IndexScan physical operator
// (paper Section IV-B3) and the RAG retrieval step. Reports real
// wall-clock numbers of this implementation (not simulated time).

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "corpus/corpus.h"
#include "corpus/dataset_profile.h"
#include "embedding/hashed_embedder.h"
#include "index/hnsw_index.h"
#include "index/linear_index.h"

namespace unify {
namespace {

std::vector<embedding::Vec> CorpusVectors(size_t n) {
  auto profile = corpus::SportsProfile();
  profile.doc_count = n;
  auto corp = corpus::GenerateCorpus(profile, 2024);
  auto spec = corpus::BuildEmbeddingSpec(profile);
  embedding::TopicEmbedder embedder(embedding::TopicEmbedder::Options{},
                                    spec.topic_tokens, spec.aliases);
  std::vector<embedding::Vec> vecs;
  vecs.reserve(n);
  for (const auto& doc : corp.docs()) vecs.push_back(embedder.Embed(doc.text));
  return vecs;
}

void BuildLoop(benchmark::State& state,
               const index::HnswIndex::Options& options) {
  auto vecs = CorpusVectors(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    index::HnswIndex index(options);
    index.Reserve(vecs.size());
    for (size_t i = 0; i < vecs.size(); ++i) {
      benchmark::DoNotOptimize(index.Add(i, vecs[i]));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(vecs.size()));
}

void BM_HnswBuild(benchmark::State& state) {
  BuildLoop(state, index::HnswIndex::Options{});
}
BENCHMARK(BM_HnswBuild)->Arg(1000)->Arg(3898)->Unit(benchmark::kMillisecond);

// The document index at the settings UnifySystem::Setup() builds it with.
void BM_HnswBuildSystem(benchmark::State& state) {
  index::HnswIndex::Options options;
  options.M = 16;
  options.ef_construction = 120;
  BuildLoop(state, options);
}
BENCHMARK(BM_HnswBuildSystem)->Arg(3898)->Unit(benchmark::kMillisecond);

void BM_HnswSearch(benchmark::State& state) {
  auto vecs = CorpusVectors(3898);
  index::HnswIndex index(index::HnswIndex::Options{});
  for (size_t i = 0; i < vecs.size(); ++i) {
    if (!index.Add(i, vecs[i]).ok()) state.SkipWithError("add failed");
  }
  size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        index.SearchEf(vecs[q % vecs.size()], 10,
                       static_cast<size_t>(state.range(0))));
    ++q;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HnswSearch)->Arg(16)->Arg(64)->Arg(256);

void BM_LinearSearch(benchmark::State& state) {
  auto vecs = CorpusVectors(static_cast<size_t>(state.range(0)));
  index::LinearIndex index;
  for (size_t i = 0; i < vecs.size(); ++i) {
    if (!index.Add(i, vecs[i]).ok()) state.SkipWithError("add failed");
  }
  size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Search(vecs[q % vecs.size()], 10));
    ++q;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LinearSearch)->Arg(1000)->Arg(3898);

void BM_Embed(benchmark::State& state) {
  auto profile = corpus::SportsProfile();
  profile.doc_count = 64;
  auto corp = corpus::GenerateCorpus(profile, 7);
  auto spec = corpus::BuildEmbeddingSpec(profile);
  embedding::TopicEmbedder embedder(embedding::TopicEmbedder::Options{},
                                    spec.topic_tokens, spec.aliases);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(embedder.Embed(corp.docs()[i % 64].text));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Embed);

// The batch path Setup() embeds a corpus with: one EmbedAll over all
// documents. Items are texts, so items/s compares directly with BM_Embed.
void BM_EmbedAll(benchmark::State& state) {
  auto profile = corpus::SportsProfile();
  profile.doc_count = static_cast<size_t>(state.range(0));
  auto corp = corpus::GenerateCorpus(profile, 7);
  auto spec = corpus::BuildEmbeddingSpec(profile);
  embedding::TopicEmbedder embedder(embedding::TopicEmbedder::Options{},
                                    spec.topic_tokens, spec.aliases);
  std::vector<std::string_view> texts;
  for (const auto& doc : corp.docs()) texts.push_back(doc.text);
  for (auto _ : state) benchmark::DoNotOptimize(embedder.EmbedAll(texts));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(texts.size()));
}
BENCHMARK(BM_EmbedAll)->Arg(3898)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace unify

BENCHMARK_MAIN();
