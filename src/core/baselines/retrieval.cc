#include "core/baselines/retrieval.h"

#include <set>

#include "text/field_extractor.h"

namespace unify::core {

SentenceRetriever::SentenceRetriever(const corpus::Corpus* corpus,
                                     const embedding::Embedder* embedder,
                                     uint64_t seed)
    : corpus_(corpus), embedder_(embedder), index_([seed] {
        index::HnswIndex::Options options;
        options.M = 12;
        options.ef_construction = 80;
        options.ef_search = 128;
        options.seed = seed;
        return options;
      }()) {}

Status SentenceRetriever::Build() {
  std::vector<std::string> sentences;
  for (const auto& doc : corpus_->docs()) {
    for (auto& sentence : text::SplitSentences(doc.text)) {
      sentences.push_back(std::move(sentence));
      sentence_doc_.push_back(doc.id);
    }
  }
  auto vecs = embedder_->EmbedAll(
      std::vector<std::string_view>(sentences.begin(), sentences.end()));
  index_.Reserve(vecs.size());
  for (size_t sid = 0; sid < vecs.size(); ++sid) {
    UNIFY_RETURN_IF_ERROR(index_.Add(sid, vecs[sid]));
  }
  return Status::OK();
}

std::vector<uint64_t> SentenceRetriever::RetrieveDocs(
    const std::string& query, size_t k_sentences,
    double* cpu_seconds) const {
  auto hits = index_.Search(embedder_->Embed(query), k_sentences);
  std::set<uint64_t> seen;
  std::vector<uint64_t> docs;
  for (const auto& hit : hits) {
    uint64_t doc = sentence_doc_[hit.id];
    if (seen.insert(doc).second) docs.push_back(doc);
  }
  if (cpu_seconds != nullptr) {
    // Embedding the query + ANN probe.
    *cpu_seconds += 0.05 + 1e-4 * static_cast<double>(k_sentences);
  }
  return docs;
}

}  // namespace unify::core
