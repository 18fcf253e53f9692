#include <bit>
#include <memory>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "index/hnsw_index.h"
#include "index/linear_index.h"

namespace unify::index {
namespace {

std::vector<embedding::Vec> RandomVectors(size_t n, size_t dim,
                                          uint64_t seed) {
  Rng rng(seed);
  std::vector<embedding::Vec> out(n);
  for (auto& v : out) {
    v.resize(dim);
    for (auto& x : v) x = static_cast<float>(rng.Gaussian());
    embedding::NormalizeInPlace(v);
  }
  return out;
}

/// Clustered vectors: `clusters` centers with points scattered around them
/// — the shape of topical document embeddings.
std::vector<embedding::Vec> ClusteredVectors(size_t n, size_t dim,
                                             size_t clusters,
                                             uint64_t seed) {
  Rng rng(seed);
  auto centers = RandomVectors(clusters, dim, seed ^ 0xc3);
  std::vector<embedding::Vec> out(n);
  for (auto& v : out) {
    const auto& c = centers[rng.NextUint64(clusters)];
    v = c;
    for (auto& x : v) x += 0.3f * static_cast<float>(rng.Gaussian());
    embedding::NormalizeInPlace(v);
  }
  return out;
}

TEST(LinearIndexTest, ExactNearestNeighbors) {
  LinearIndex index;
  ASSERT_TRUE(index.Add(0, {0, 0}).ok());
  ASSERT_TRUE(index.Add(1, {1, 0}).ok());
  ASSERT_TRUE(index.Add(2, {2, 0}).ok());
  auto hits = index.Search({0.9f, 0}, 2);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].id, 1u);
  EXPECT_EQ(hits[1].id, 0u);
  EXPECT_LT(hits[0].distance, hits[1].distance);
}

TEST(LinearIndexTest, RejectsDuplicatesAndDimensionMismatch) {
  LinearIndex index;
  ASSERT_TRUE(index.Add(0, {0, 0}).ok());
  EXPECT_EQ(index.Add(0, {1, 1}).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(index.Add(1, {1, 1, 1}).code(), StatusCode::kInvalidArgument);
}

// An empty first vector would fix the dimension at 0 and make every later
// real vector a "dimension mismatch"; it is rejected instead.
TEST(LinearIndexTest, RejectsEmptyVector) {
  LinearIndex index;
  EXPECT_EQ(index.Add(0, {}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(index.size(), 0u);
  ASSERT_TRUE(index.Add(0, {1, 0}).ok());
  EXPECT_EQ(index.Add(1, {}).code(), StatusCode::kInvalidArgument);
}

TEST(LinearIndexTest, KLargerThanSize) {
  LinearIndex index;
  ASSERT_TRUE(index.Add(5, {1, 2}).ok());
  EXPECT_EQ(index.Search({0, 0}, 10).size(), 1u);
  LinearIndex empty;
  EXPECT_TRUE(empty.Search({0, 0}, 3).empty());
}

TEST(HnswIndexTest, EmptyAndSingle) {
  HnswIndex index(HnswIndex::Options{});
  EXPECT_TRUE(index.Search({1, 0}, 3).empty());
  ASSERT_TRUE(index.Add(42, {1, 0}).ok());
  auto hits = index.Search({1, 0}, 3);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, 42u);
}

TEST(HnswIndexTest, RejectsDuplicatesAndDimensionMismatch) {
  HnswIndex index(HnswIndex::Options{});
  ASSERT_TRUE(index.Add(0, {0, 0}).ok());
  EXPECT_EQ(index.Add(0, {1, 1}).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(index.Add(1, {1, 1, 1}).code(), StatusCode::kInvalidArgument);
}

TEST(HnswIndexTest, RejectsEmptyVector) {
  HnswIndex index(HnswIndex::Options{});
  EXPECT_EQ(index.Add(0, {}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(index.size(), 0u);
  ASSERT_TRUE(index.Add(0, {1, 0}).ok());
  ASSERT_TRUE(index.Add(1, {0, 1}).ok());
  EXPECT_EQ(index.Add(2, {}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(index.size(), 2u);
}

TEST(HnswIndexTest, WrongDimensionQueryAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  HnswIndex index(HnswIndex::Options{});
  EXPECT_TRUE(index.SearchEf({1, 0, 0}, 1, 8).empty());  // empty index
  ASSERT_TRUE(index.Add(0, {1, 0}).ok());
  EXPECT_DEATH(index.SearchEf({1, 0, 0}, 1, 8), "dimension mismatch");
}

TEST(HnswIndexTest, DegreesAreBounded) {
  HnswIndex::Options options;
  options.M = 6;
  HnswIndex index(options);
  auto vecs = RandomVectors(500, 16, 3);
  for (size_t i = 0; i < vecs.size(); ++i) {
    ASSERT_TRUE(index.Add(i, vecs[i]).ok());
  }
  // 2M on layer 0, M above; total directed edges < n * 2M * avg_layers.
  EXPECT_LT(index.EdgeCount(), 500u * 2 * 6 * 3);
  EXPECT_GE(index.max_layer(), 0);
}

/// Recall@10 of HNSW against brute force, parameterized over (N, ef).
struct RecallCase {
  size_t n;
  size_t ef;
  double min_recall;
  bool clustered;
};

class HnswRecallTest : public ::testing::TestWithParam<RecallCase> {};

TEST_P(HnswRecallTest, RecallAgainstBruteForce) {
  const RecallCase& param = GetParam();
  const size_t dim = 32;
  auto vecs = param.clustered
                  ? ClusteredVectors(param.n, dim, 12, 11)
                  : RandomVectors(param.n, dim, 11);
  HnswIndex::Options options;
  options.M = 16;
  options.ef_construction = 120;
  options.ef_search = param.ef;
  HnswIndex hnsw(options);
  LinearIndex linear;
  for (size_t i = 0; i < vecs.size(); ++i) {
    ASSERT_TRUE(hnsw.Add(i, vecs[i]).ok());
    ASSERT_TRUE(linear.Add(i, vecs[i]).ok());
  }
  auto queries = RandomVectors(50, dim, 77);
  size_t hits = 0;
  size_t total = 0;
  for (const auto& q : queries) {
    auto truth = linear.Search(q, 10);
    auto approx = hnsw.Search(q, 10);
    std::set<uint64_t> truth_ids;
    for (const auto& t : truth) truth_ids.insert(t.id);
    for (const auto& a : approx) hits += truth_ids.count(a.id);
    total += truth.size();
  }
  double recall = static_cast<double>(hits) / static_cast<double>(total);
  EXPECT_GE(recall, param.min_recall)
      << "n=" << param.n << " ef=" << param.ef;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HnswRecallTest,
    ::testing::Values(RecallCase{500, 64, 0.90, false},
                      RecallCase{2000, 64, 0.85, false},
                      RecallCase{2000, 128, 0.92, false},
                      RecallCase{2000, 64, 0.85, true},
                      RecallCase{4000, 128, 0.90, true}));

TEST(HnswIndexTest, LargerEfImprovesOrMaintainsRecall) {
  const size_t dim = 24;
  auto vecs = ClusteredVectors(1500, dim, 10, 5);
  HnswIndex::Options options;
  options.M = 12;
  options.ef_construction = 100;
  HnswIndex hnsw(options);
  LinearIndex linear;
  for (size_t i = 0; i < vecs.size(); ++i) {
    ASSERT_TRUE(hnsw.Add(i, vecs[i]).ok());
    ASSERT_TRUE(linear.Add(i, vecs[i]).ok());
  }
  auto queries = RandomVectors(30, dim, 99);
  double prev_recall = 0;
  for (size_t ef : {16u, 64u, 256u}) {
    size_t hits = 0;
    size_t total = 0;
    for (const auto& q : queries) {
      auto truth = linear.Search(q, 10);
      auto approx = hnsw.SearchEf(q, 10, ef);
      std::set<uint64_t> truth_ids;
      for (const auto& t : truth) truth_ids.insert(t.id);
      for (const auto& a : approx) hits += truth_ids.count(a.id);
      total += truth.size();
    }
    double recall = static_cast<double>(hits) / static_cast<double>(total);
    EXPECT_GE(recall, prev_recall - 0.03);  // allow small jitter
    prev_recall = recall;
  }
  EXPECT_GE(prev_recall, 0.95);
}

TEST(HnswIndexTest, DeterministicForSeed) {
  auto vecs = RandomVectors(400, 16, 33);
  HnswIndex::Options options;
  options.seed = 77;
  HnswIndex a(options);
  HnswIndex b(options);
  for (size_t i = 0; i < vecs.size(); ++i) {
    ASSERT_TRUE(a.Add(i, vecs[i]).ok());
    ASSERT_TRUE(b.Add(i, vecs[i]).ok());
  }
  EXPECT_EQ(a.max_layer(), b.max_layer());
  EXPECT_EQ(a.EdgeCount(), b.EdgeCount());
  auto queries = RandomVectors(10, 16, 55);
  for (const auto& q : queries) {
    auto ha = a.Search(q, 10);
    auto hb = b.Search(q, 10);
    ASSERT_EQ(ha.size(), hb.size());
    for (size_t i = 0; i < ha.size(); ++i) {
      EXPECT_EQ(ha[i].id, hb[i].id);
      EXPECT_EQ(ha[i].distance, hb[i].distance);
    }
  }
}

/// Builds the GraphPinned fixture: 2,000 unit vectors of dimension 64 at
/// the system's index settings.
std::unique_ptr<HnswIndex> PinnedIndex() {
  HnswIndex::Options options;
  options.M = 16;
  options.ef_construction = 120;
  options.seed = 2024;
  auto index = std::make_unique<HnswIndex>(options);
  auto vecs = RandomVectors(2000, 64, 1603);
  index->Reserve(vecs.size());
  for (size_t i = 0; i < vecs.size(); ++i) {
    EXPECT_TRUE(index->Add(i, vecs[i]).ok());
  }
  return index;
}

/// 64-bit fingerprint of the ids and distance bit patterns `index`
/// returns for `queries`.
uint64_t SearchFingerprint(const HnswIndex& index,
                           const std::vector<embedding::Vec>& queries) {
  uint64_t fp = 0;
  for (const auto& q : queries) {
    for (const auto& hit : index.SearchEf(q, 10, 64)) {
      fp = HashCombine(fp, hit.id);
      fp = HashCombine(fp, std::bit_cast<uint32_t>(hit.distance));
    }
  }
  return fp;
}

// The graph and every search answer are pinned bit for bit: a change to
// the distance arithmetic, the neighbour selection or the insertion order
// that perturbs a single edge or a single float changes these values.
TEST(HnswIndexTest, GraphPinned) {
  auto index = PinnedIndex();
  EXPECT_EQ(index->EdgeCount(), 54205u);
  EXPECT_EQ(index->max_layer(), 3);
  EXPECT_EQ(SearchFingerprint(*index, RandomVectors(50, 64, 1976)),
            10473721915805562268ull);
}

// Searches share nothing but the per-thread scratch: concurrent callers
// must each get the single-threaded answers.
TEST(HnswIndexTest, ConcurrentSearchMatchesSerial) {
  auto index = PinnedIndex();
  auto queries = RandomVectors(50, 64, 1976);
  std::vector<std::vector<SearchResult>> serial;
  for (const auto& q : queries) serial.push_back(index->SearchEf(q, 10, 64));

  constexpr int kThreads = 4;
  std::vector<std::vector<std::vector<SearchResult>>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the queries from a different offset, several
      // times, so the searches overlap.
      for (int rep = 0; rep < 3; ++rep) {
        got[t].assign(queries.size(), {});
        for (size_t j = 0; j < queries.size(); ++j) {
          size_t i = (j + 13 * t) % queries.size();
          got[t][i] = index->SearchEf(queries[i], 10, 64);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[t], serial) << "thread " << t;
  }
}

TEST(HnswIndexTest, IncrementalInsertsStaySearchable) {
  auto vecs = RandomVectors(600, 16, 44);
  HnswIndex index(HnswIndex::Options{});
  for (size_t i = 0; i < vecs.size(); ++i) {
    ASSERT_TRUE(index.Add(i, vecs[i]).ok());
    if (i % 150 == 149) {
      // Self-query must find the just-inserted vector.
      auto hits = index.Search(vecs[i], 1);
      ASSERT_FALSE(hits.empty());
      EXPECT_EQ(hits[0].id, i);
    }
  }
  EXPECT_EQ(index.size(), 600u);
}

TEST(HnswIndexTest, ResultsSortedByDistance) {
  auto vecs = RandomVectors(300, 16, 21);
  HnswIndex index(HnswIndex::Options{});
  for (size_t i = 0; i < vecs.size(); ++i) {
    ASSERT_TRUE(index.Add(i, vecs[i]).ok());
  }
  auto hits = index.Search(vecs[0], 20);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].id, 0u);  // the query vector itself is indexed
  for (size_t i = 1; i < hits.size(); ++i) {
    EXPECT_LE(hits[i - 1].distance, hits[i].distance);
  }
}

}  // namespace
}  // namespace unify::index
