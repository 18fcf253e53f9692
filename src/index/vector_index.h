#ifndef UNIFY_INDEX_VECTOR_INDEX_H_
#define UNIFY_INDEX_VECTOR_INDEX_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "embedding/vector_math.h"

namespace unify::index {

/// One nearest-neighbor search hit.
struct SearchResult {
  /// Caller-assigned item id (document id).
  uint64_t id = 0;
  /// L2 distance to the query. Embeddings are unit vectors, so this is
  /// monotone in cosine distance.
  float distance = 0.0f;

  bool operator==(const SearchResult&) const = default;
};

/// Approximate/exact nearest-neighbor index over embedding vectors.
/// Implementations: LinearIndex (exact brute force) and HnswIndex (the
/// paper's HNSW [25], reimplemented from scratch).
class VectorIndex {
 public:
  virtual ~VectorIndex() = default;

  /// Adds a vector under `id`. Ids must be unique; vectors must be
  /// non-empty and all of one dimension (InvalidArgument otherwise).
  virtual Status Add(uint64_t id, const embedding::Vec& v) = 0;

  /// Returns up to `k` nearest items to `query`, sorted by ascending
  /// distance.
  virtual std::vector<SearchResult> Search(const embedding::Vec& query,
                                           size_t k) const = 0;

  /// Number of indexed vectors.
  virtual size_t size() const = 0;
};

}  // namespace unify::index

#endif  // UNIFY_INDEX_VECTOR_INDEX_H_
