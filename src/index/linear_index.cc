#include "index/linear_index.h"

#include <algorithm>

namespace unify::index {

Status LinearIndex::Add(uint64_t id, const embedding::Vec& v) {
  if (v.empty()) return Status::InvalidArgument("empty vector");
  if (!vectors_.empty() && v.size() != vectors_.front().size()) {
    return Status::InvalidArgument("dimension mismatch");
  }
  if (!seen_.insert(id).second) {
    return Status::AlreadyExists("duplicate id in LinearIndex");
  }
  ids_.push_back(id);
  vectors_.push_back(v);
  return Status::OK();
}

std::vector<SearchResult> LinearIndex::Search(const embedding::Vec& query,
                                              size_t k) const {
  std::vector<SearchResult> all;
  all.reserve(ids_.size());
  for (size_t i = 0; i < ids_.size(); ++i) {
    all.push_back({ids_[i], embedding::L2Distance(query, vectors_[i])});
  }
  size_t take = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + take, all.end(),
                    [](const SearchResult& a, const SearchResult& b) {
                      if (a.distance != b.distance)
                        return a.distance < b.distance;
                      return a.id < b.id;
                    });
  all.resize(take);
  return all;
}

}  // namespace unify::index
