#ifndef UNIFY_EMBEDDING_EMBEDDER_H_
#define UNIFY_EMBEDDING_EMBEDDER_H_

#include <string_view>
#include <vector>

#include "embedding/vector_math.h"

namespace unify::embedding {

/// Text-to-vector model interface (the paper uses SentenceTransformer; this
/// repo substitutes deterministic synthetic embedders — see DESIGN.md).
/// Implementations must be deterministic and thread-safe, and must return
/// unit-normalized vectors.
class Embedder {
 public:
  virtual ~Embedder() = default;

  /// Embeds `text` into a unit vector of `dim()` components.
  virtual Vec Embed(std::string_view text) const = 0;

  /// Embeds every text of a batch, in order: element i is bit-identical to
  /// Embed(texts[i]). Implementations may share work across the batch.
  virtual std::vector<Vec> EmbedAll(
      const std::vector<std::string_view>& texts) const {
    std::vector<Vec> out;
    out.reserve(texts.size());
    for (std::string_view text : texts) out.push_back(Embed(text));
    return out;
  }

  /// Output dimensionality.
  virtual size_t dim() const = 0;
};

}  // namespace unify::embedding

#endif  // UNIFY_EMBEDDING_EMBEDDER_H_
