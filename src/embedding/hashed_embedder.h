#ifndef UNIFY_EMBEDDING_HASHED_EMBEDDER_H_
#define UNIFY_EMBEDDING_HASHED_EMBEDDER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "embedding/embedder.h"

namespace unify::embedding {

/// A deterministic bag-of-words embedder.
///
/// Every stemmed content token is mapped to a pseudo-random Gaussian unit
/// direction (seeded by the token's stable hash), and the text embedding is
/// the normalized sum. Texts sharing content words are therefore close, and
/// unrelated texts are near-orthogonal in expectation — the property both
/// operator matching (Section V-A) and semantic cardinality estimation
/// (Section VI-B) rely on.
class HashedEmbedder : public Embedder {
 public:
  /// `dim` components; `seed` decorrelates independent embedders.
  HashedEmbedder(size_t dim, uint64_t seed);

  Vec Embed(std::string_view text) const override;
  size_t dim() const override { return dim_; }

  /// The pseudo-random unit direction assigned to a (stemmed) token.
  Vec TokenDirection(std::string_view stemmed_token) const;

 private:
  size_t dim_;
  uint64_t seed_;
};

/// A topic-aware embedder layered on HashedEmbedder.
///
/// Tokens listed in the topic lexicon receive a boosted weight, which
/// sharpens cluster structure: documents about the same topic (e.g., the
/// same sport) concentrate around that topic's direction, so embedding
/// distance to a topical query correlates with the probability of
/// satisfying the query predicate (the paper's Figure 3 observation). The
/// `noise_scale` adds a deterministic per-text perturbation so correlation
/// is strong but imperfect, as with real sentence embeddings.
class TopicEmbedder : public Embedder {
 public:
  struct Options {
    size_t dim = 64;
    uint64_t seed = 17;
    /// Weight multiplier for lexicon tokens (1.0 = no boost).
    float topic_boost = 5.0f;
    /// Magnitude of the deterministic per-text noise component.
    float noise_scale = 0.15f;
  };

  /// Maps a surface token to the canonical topic tokens it implies
  /// ("wimbledon" -> {"tennis", "ballsports"}). This models the synonymy a
  /// trained sentence embedder captures: texts mentioning only an implicit
  /// cue still land near their topic cluster. Keys and values are stemmed
  /// internally.
  using AliasMap =
      std::vector<std::pair<std::string, std::vector<std::string>>>;

  /// `topic_tokens`: content words with topical signal (already stemmed or
  /// not — they are stemmed internally).
  TopicEmbedder(Options options, const std::vector<std::string>& topic_tokens,
                const AliasMap& aliases = {});

  Vec Embed(std::string_view text) const override;
  /// Computes each distinct token's direction once per batch instead of at
  /// every occurrence; same floats as Embed.
  std::vector<Vec> EmbedAll(
      const std::vector<std::string_view>& texts) const override;
  size_t dim() const override { return options_.dim; }

 private:
  /// The embedding arithmetic Embed and EmbedAll share. `direction(tok)`
  /// returns a pointer to the `dim` floats of base_.TokenDirection(tok).
  template <typename Direction>
  Vec EmbedWith(std::string_view text, Direction&& direction) const;

  Options options_;
  HashedEmbedder base_;
  std::unordered_map<std::string, float> boosts_;
  std::unordered_map<std::string, std::vector<std::string>> aliases_;
};

}  // namespace unify::embedding

#endif  // UNIFY_EMBEDDING_HASHED_EMBEDDER_H_
