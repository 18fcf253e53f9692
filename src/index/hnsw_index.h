#ifndef UNIFY_INDEX_HNSW_INDEX_H_
#define UNIFY_INDEX_HNSW_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "index/vector_index.h"

namespace unify::index {

/// Hierarchical Navigable Small World graph index (Malkov & Yashunin,
/// TPAMI 2020 — reference [25] of the paper), implemented from scratch.
///
/// Structure: every element is inserted at a random maximum layer drawn
/// from a geometric distribution; each layer stores an undirected proximity
/// graph. Queries greedily descend from the top layer's entry point, then
/// run a best-first beam search (width `ef_search`) on layer 0.
///
/// This backs the IndexScan physical operator (Section IV-B3): semantic
/// filters can probe only the documents nearest to the query embedding
/// instead of scanning the whole corpus.
class HnswIndex : public VectorIndex {
 public:
  struct Options {
    /// Max neighbors per node on layers > 0; layer 0 allows 2*M.
    size_t M = 16;
    /// Beam width during construction.
    size_t ef_construction = 200;
    /// Beam width during search (can be overridden per query).
    size_t ef_search = 64;
    /// Level-assignment RNG seed.
    uint64_t seed = 42;
    /// Use the heuristic neighbor-selection rule (Algorithm 4 in the HNSW
    /// paper) instead of simply keeping the M closest candidates.
    bool select_heuristic = true;
  };

  explicit HnswIndex(Options options);

  Status Add(uint64_t id, const embedding::Vec& v) override;
  std::vector<SearchResult> Search(const embedding::Vec& query,
                                   size_t k) const override;
  size_t size() const override { return nodes_.size(); }

  /// Capacity hint: sizes the vector array and node table for `n` items
  /// once, so a bulk build never regrows them (and never holds two copies
  /// of the vectors while doing so).
  void Reserve(size_t n);

  /// Search with an explicit beam width (recall/latency knob). Safe to call
  /// from several threads at once. A non-empty index aborts on a query of
  /// the wrong dimension.
  std::vector<SearchResult> SearchEf(const embedding::Vec& query, size_t k,
                                     size_t ef) const;

  /// Highest occupied layer (-1 when empty). Exposed for tests.
  int max_layer() const { return max_layer_; }

  /// Total number of directed edges across all layers. Exposed for tests.
  size_t EdgeCount() const;

 private:
  struct Node {
    uint64_t id;
    /// neighbors[l] = internal indices adjacent at layer l (l <= level).
    std::vector<std::vector<uint32_t>> neighbors;
  };

  /// Candidate in the beam, ordered by distance.
  struct Candidate {
    float dist;
    uint32_t idx;
  };

  const float* Row(uint32_t idx) const { return &vecs_[idx * dim_]; }

  float Dist(const float* a, uint32_t b) const {
    return embedding::L2DistanceRaw(a, Row(b), dim_);
  }

  /// Draws the insertion level: floor(-ln(U) * (1/ln(M))).
  int RandomLevel();

  /// Greedy hill-climb toward `query` on `layer`, starting at `start`.
  uint32_t GreedyClosest(const float* query, uint32_t start, int layer) const;

  /// Best-first beam search on `layer`; returns up to `ef` closest nodes as
  /// candidates sorted ascending by distance.
  std::vector<Candidate> SearchLayer(const float* query, uint32_t entry,
                                     size_t ef, int layer) const;

  /// Selects up to `m` neighbors from `candidates` (ascending by distance).
  /// With `select_heuristic`, a candidate is kept only if it is closer to
  /// the base point than to every already-kept neighbor, which preserves
  /// graph navigability in clustered data.
  std::vector<uint32_t> SelectNeighbors(std::vector<Candidate> candidates,
                                        size_t m) const;

  /// Caps `node`'s adjacency at `layer` to the allowed degree.
  void ShrinkNeighbors(uint32_t node, int layer);

  size_t MaxDegree(int layer) const {
    return layer == 0 ? 2 * options_.M : options_.M;
  }

  Options options_;
  double level_mult_;
  Rng rng_;
  std::vector<Node> nodes_;
  /// Vector dimension, fixed by the first Add (0 while empty).
  size_t dim_ = 0;
  /// All vectors, row-major: node i's vector is [i * dim_, (i + 1) * dim_).
  std::vector<float> vecs_;
  std::unordered_map<uint64_t, uint32_t> id_to_idx_;
  int max_layer_ = -1;
  uint32_t entry_point_ = 0;
};

}  // namespace unify::index

#endif  // UNIFY_INDEX_HNSW_INDEX_H_
