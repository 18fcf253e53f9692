#include "index/hnsw_index.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace unify::index {

namespace {

using Entry = std::pair<float, uint32_t>;

/// Min-heap comparator on distance (closest on top).
struct CloserOnTop {
  bool operator()(const Entry& a, const Entry& b) const {
    return a.first > b.first;
  }
};

/// Max-heap comparator on distance (farthest on top).
struct FartherOnTop {
  bool operator()(const Entry& a, const Entry& b) const {
    return a.first < b.first;
  }
};

/// SearchLayer's per-thread scratch, reused across calls and indexes: the
/// two heaps, and a visited array in which node i was visited by the
/// current search iff stamp[i] == epoch. Starting a search bumps the
/// epoch instead of clearing N entries.
struct SearchScratch {
  std::vector<Entry> frontier;
  std::vector<Entry> best;
  std::vector<uint32_t> stamp;
  uint32_t epoch = 0;

  /// Starts a search over `n` nodes.
  void Begin(size_t n) {
    if (stamp.size() < n) stamp.resize(n, 0);
    if (++epoch == 0) {  // wrapped: old stamps could now collide
      std::fill(stamp.begin(), stamp.end(), 0);
      epoch = 1;
    }
    frontier.clear();
    best.clear();
  }

  /// Marks `i` visited; false if it already was.
  bool Visit(uint32_t i) {
    if (stamp[i] == epoch) return false;
    stamp[i] = epoch;
    return true;
  }
};

thread_local SearchScratch tls_scratch;

}  // namespace

HnswIndex::HnswIndex(Options options)
    : options_(options),
      level_mult_(1.0 / std::log(static_cast<double>(
                            std::max<size_t>(2, options.M)))),
      rng_(options.seed) {
  UNIFY_CHECK(options_.M >= 2);
}

int HnswIndex::RandomLevel() {
  double u = rng_.NextDouble();
  while (u <= 1e-12) u = rng_.NextDouble();
  return static_cast<int>(-std::log(u) * level_mult_);
}

void HnswIndex::Reserve(size_t n) {
  nodes_.reserve(n);
  id_to_idx_.reserve(n);
  if (dim_ > 0) vecs_.reserve(n * dim_);
}

Status HnswIndex::Add(uint64_t id, const embedding::Vec& v) {
  if (v.empty()) return Status::InvalidArgument("empty vector");
  if (!nodes_.empty() && v.size() != dim_) {
    return Status::InvalidArgument("dimension mismatch");
  }
  if (id_to_idx_.count(id) > 0) {
    return Status::AlreadyExists("duplicate id in HnswIndex");
  }
  if (nodes_.empty()) {
    dim_ = v.size();
    vecs_.reserve(nodes_.capacity() * dim_);  // a Reserve() before any Add
  }

  int level = RandomLevel();
  uint32_t idx = static_cast<uint32_t>(nodes_.size());
  nodes_.push_back({id, std::vector<std::vector<uint32_t>>(level + 1)});
  vecs_.insert(vecs_.end(), v.begin(), v.end());
  id_to_idx_[id] = idx;

  if (idx == 0) {
    entry_point_ = 0;
    max_layer_ = level;
    return Status::OK();
  }

  // vecs_ does not grow again until the next Add, so the row stays valid.
  const float* q = Row(idx);
  uint32_t cur = entry_point_;

  // Phase 1: greedy descent through layers above the new node's level.
  for (int layer = max_layer_; layer > level; --layer) {
    cur = GreedyClosest(q, cur, layer);
  }

  // Phase 2: beam search + linking on layers min(level, max_layer_)..0.
  for (int layer = std::min(level, max_layer_); layer >= 0; --layer) {
    auto candidates = SearchLayer(q, cur, options_.ef_construction, layer);
    if (!candidates.empty()) cur = candidates.front().idx;
    auto selected = SelectNeighbors(std::move(candidates), options_.M);
    for (uint32_t nb : selected) {
      nodes_[nb].neighbors[layer].push_back(idx);
      if (nodes_[nb].neighbors[layer].size() > MaxDegree(layer)) {
        ShrinkNeighbors(nb, layer);
      }
    }
    nodes_[idx].neighbors[layer] = std::move(selected);
  }

  if (level > max_layer_) {
    max_layer_ = level;
    entry_point_ = idx;
  }
  return Status::OK();
}

uint32_t HnswIndex::GreedyClosest(const float* query, uint32_t start,
                                  int layer) const {
  uint32_t cur = start;
  float cur_dist = Dist(query, cur);
  bool improved = true;
  while (improved) {
    improved = false;
    if (layer >= static_cast<int>(nodes_[cur].neighbors.size())) break;
    for (uint32_t nb : nodes_[cur].neighbors[layer]) {
      float d = Dist(query, nb);
      if (d < cur_dist) {
        cur_dist = d;
        cur = nb;
        improved = true;
      }
    }
  }
  return cur;
}

std::vector<HnswIndex::Candidate> HnswIndex::SearchLayer(
    const float* query, uint32_t entry, size_t ef, int layer) const {
  SearchScratch& scratch = tls_scratch;
  scratch.Begin(nodes_.size());
  auto& frontier = scratch.frontier;  // min-heap
  auto& best = scratch.best;          // max-heap, at most ef entries

  float d0 = Dist(query, entry);
  frontier.push_back({d0, entry});
  best.push_back({d0, entry});
  scratch.Visit(entry);

  while (!frontier.empty()) {
    auto [d, cur] = frontier.front();
    std::pop_heap(frontier.begin(), frontier.end(), CloserOnTop{});
    frontier.pop_back();
    if (!best.empty() && d > best.front().first && best.size() >= ef) break;
    if (layer < static_cast<int>(nodes_[cur].neighbors.size())) {
      for (uint32_t nb : nodes_[cur].neighbors[layer]) {
        if (!scratch.Visit(nb)) continue;
        float dn = Dist(query, nb);
        if (best.size() < ef || dn < best.front().first) {
          frontier.push_back({dn, nb});
          std::push_heap(frontier.begin(), frontier.end(), CloserOnTop{});
          best.push_back({dn, nb});
          std::push_heap(best.begin(), best.end(), FartherOnTop{});
          if (best.size() > ef) {
            std::pop_heap(best.begin(), best.end(), FartherOnTop{});
            best.pop_back();
          }
        }
      }
    }
  }

  // Drain the max-heap farthest first into the back: ascending distance.
  std::vector<Candidate> out(best.size());
  for (size_t i = out.size(); i > 0; --i) {
    std::pop_heap(best.begin(), best.end(), FartherOnTop{});
    out[i - 1] = {best.back().first, best.back().second};
    best.pop_back();
  }
  return out;
}

std::vector<uint32_t> HnswIndex::SelectNeighbors(
    std::vector<Candidate> candidates, size_t m) const {
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.dist < b.dist;
            });
  if (!options_.select_heuristic) {
    std::vector<uint32_t> out;
    for (const auto& c : candidates) {
      out.push_back(c.idx);
      if (out.size() >= m) break;
    }
    return out;
  }
  // Heuristic (HNSW Algorithm 4): keep a candidate only if it is closer to
  // the base than to all already-selected neighbors; this spreads edges
  // across clusters, preserving navigability.
  std::vector<uint32_t> selected;
  std::vector<Candidate> discarded;
  for (const auto& c : candidates) {
    if (selected.size() >= m) break;
    bool good = true;
    const float* row = Row(c.idx);
    for (uint32_t s : selected) {
      if (Dist(row, s) < c.dist) {
        good = false;
        break;
      }
    }
    if (good) {
      selected.push_back(c.idx);
    } else {
      discarded.push_back(c);
    }
  }
  // Backfill with the closest discarded candidates if under-full.
  for (const auto& c : discarded) {
    if (selected.size() >= m) break;
    selected.push_back(c.idx);
  }
  return selected;
}

void HnswIndex::ShrinkNeighbors(uint32_t node, int layer) {
  auto& adj = nodes_[node].neighbors[layer];
  std::vector<Candidate> candidates;
  candidates.reserve(adj.size());
  const float* row = Row(node);
  for (uint32_t nb : adj) candidates.push_back({Dist(row, nb), nb});
  adj = SelectNeighbors(std::move(candidates), MaxDegree(layer));
}

std::vector<SearchResult> HnswIndex::Search(const embedding::Vec& query,
                                            size_t k) const {
  return SearchEf(query, k, std::max(options_.ef_search, k));
}

std::vector<SearchResult> HnswIndex::SearchEf(const embedding::Vec& query,
                                              size_t k, size_t ef) const {
  if (nodes_.empty()) return {};
  UNIFY_CHECK(query.size() == dim_) << "query dimension mismatch";
  uint32_t cur = entry_point_;
  for (int layer = max_layer_; layer > 0; --layer) {
    cur = GreedyClosest(query.data(), cur, layer);
  }
  auto candidates = SearchLayer(query.data(), cur, std::max(ef, k), 0);
  std::vector<SearchResult> out;
  out.reserve(std::min(k, candidates.size()));
  for (const auto& c : candidates) {
    if (out.size() >= k) break;
    out.push_back({nodes_[c.idx].id, c.dist});
  }
  return out;
}

size_t HnswIndex::EdgeCount() const {
  size_t n = 0;
  for (const auto& node : nodes_) {
    for (const auto& layer : node.neighbors) n += layer.size();
  }
  return n;
}

}  // namespace unify::index
