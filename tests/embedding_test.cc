#include <cmath>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "embedding/hashed_embedder.h"
#include "embedding/vector_math.h"
#include "text/tokenizer.h"

namespace unify::embedding {
namespace {

TEST(VectorMathTest, DotAndNorm) {
  Vec a = {1, 2, 2};
  Vec b = {2, 0, 1};
  EXPECT_FLOAT_EQ(Dot(a, b), 4.0f);
  EXPECT_FLOAT_EQ(Norm(a), 3.0f);
}

TEST(VectorMathTest, NormalizeInPlace) {
  Vec v = {3, 4};
  NormalizeInPlace(v);
  EXPECT_NEAR(Norm(v), 1.0f, 1e-6);
  Vec zero = {0, 0};
  NormalizeInPlace(zero);  // must not divide by zero
  EXPECT_FLOAT_EQ(zero[0], 0.0f);
}

TEST(VectorMathTest, Distances) {
  Vec a = {1, 0};
  Vec b = {0, 1};
  EXPECT_NEAR(L2Distance(a, b), std::sqrt(2.0f), 1e-6);
  EXPECT_NEAR(CosineSimilarity(a, b), 0.0f, 1e-6);
  EXPECT_NEAR(CosineSimilarity(a, a), 1.0f, 1e-6);
  EXPECT_NEAR(CosineDistance(a, b), 1.0f, 1e-6);
}

TEST(VectorMathTest, AddScaled) {
  Vec a = {1, 1};
  AddScaled(a, {2, 4}, 0.5f);
  EXPECT_FLOAT_EQ(a[0], 2.0f);
  EXPECT_FLOAT_EQ(a[1], 3.0f);
}

TEST(HashedEmbedderTest, DeterministicUnitVectors) {
  HashedEmbedder e(32, 7);
  Vec a = e.Embed("tennis rackets are great");
  Vec b = e.Embed("tennis rackets are great");
  EXPECT_EQ(a, b);
  EXPECT_NEAR(Norm(a), 1.0f, 1e-5);
  EXPECT_EQ(a.size(), 32u);
}

TEST(HashedEmbedderTest, SharedWordsIncreaseSimilarity) {
  HashedEmbedder e(64, 7);
  Vec tennis1 = e.Embed("tennis serve practice every morning");
  Vec tennis2 = e.Embed("improving my tennis serve");
  Vec tax = e.Embed("income tax deduction paperwork");
  EXPECT_GT(CosineSimilarity(tennis1, tennis2),
            CosineSimilarity(tennis1, tax) + 0.2f);
}

TEST(HashedEmbedderTest, StemmingUnifiesInflections) {
  HashedEmbedder e(64, 7);
  // "training" and "train" should hash identically after stemming.
  EXPECT_EQ(e.Embed("training"), e.Embed("train"));
}

TEST(HashedEmbedderTest, EmptyTextIsZeroVector) {
  HashedEmbedder e(16, 7);
  Vec v = e.Embed("the of and");
  EXPECT_FLOAT_EQ(Norm(v), 0.0f);
}

TEST(TopicEmbedderTest, BoostTightensTopicClusters) {
  TopicEmbedder::Options options;
  options.dim = 64;
  options.noise_scale = 0.0f;
  TopicEmbedder with_topics(options, {"tennis", "golf"});
  Vec t1 = with_topics.Embed("tennis serve broke in the third set");
  Vec t2 = with_topics.Embed("my tennis forehand needs work");
  Vec g = with_topics.Embed("my golf swing needs work");
  EXPECT_GT(CosineSimilarity(t1, t2), CosineSimilarity(t1, g));
}

TEST(TopicEmbedderTest, AliasesPullImplicitTextsIntoCluster) {
  TopicEmbedder::Options options;
  options.dim = 64;
  options.noise_scale = 0.0f;
  TopicEmbedder::AliasMap aliases = {{"wimbledon", {"tennis"}},
                                     {"backhand", {"tennis"}}};
  TopicEmbedder e(options, {"tennis"}, aliases);
  Vec query = e.Embed("questions about tennis");
  Vec implicit = e.Embed("her backhand won the final at wimbledon");
  Vec unrelated = e.Embed("the recipe calls for fresh basil and lemon");
  EXPECT_GT(CosineSimilarity(query, implicit),
            CosineSimilarity(query, unrelated) + 0.3f);
}

TEST(TopicEmbedderTest, NoiseIsDeterministicPerText) {
  TopicEmbedder::Options options;
  options.dim = 32;
  options.noise_scale = 0.3f;
  TopicEmbedder e(options, {"tennis"});
  EXPECT_EQ(e.Embed("some text"), e.Embed("some text"));
  EXPECT_NE(e.Embed("some text"), e.Embed("some text!!! x"));
}

TEST(TopicEmbedderTest, GroupAliasCreatesSharedComponent) {
  TopicEmbedder::Options options;
  // High dimension keeps random cross-correlations small so the group
  // component dominates.
  options.dim = 256;
  options.noise_scale = 0.0f;
  TopicEmbedder::AliasMap aliases = {
      {"tennis", {"tennis", "ballsports"}},
      {"golf", {"golf", "ballsports"}},
      {"ball", {"ballsports"}},
      {"swimming", {"swimming"}},
  };
  TopicEmbedder e(options, {"tennis", "golf", "swimming", "ballsports"},
                  aliases);
  Vec group_query = e.Embed("questions about ball sports");
  Vec tennis_doc = e.Embed("a long tennis question");
  Vec swim_doc = e.Embed("a long swimming question");
  EXPECT_GT(CosineSimilarity(group_query, tennis_doc),
            CosineSimilarity(group_query, swim_doc) + 0.1f);
}

TEST(EmbedderTest, DefaultEmbedAllLoopsOverEmbed) {
  HashedEmbedder e(32, 7);
  std::vector<std::string_view> texts = {"tennis serve", "", "golf swing"};
  auto all = e.EmbedAll(texts);
  ASSERT_EQ(all.size(), texts.size());
  for (size_t i = 0; i < texts.size(); ++i) {
    EXPECT_EQ(all[i], e.Embed(texts[i]));
  }
  EXPECT_TRUE(e.EmbedAll({}).empty());
}

// EmbedAll's memo has 4,096 direct-mapped slots. A vocabulary well above
// that forces slot collisions and overwrites; every vector must still match
// per-text Embed bit for bit, including alias expansion and noise.
TEST(TopicEmbedderTest, EmbedAllMatchesEmbed) {
  Rng rng(4096);
  std::vector<std::string> vocab;
  for (int i = 0; i < 6000; ++i) {
    std::string word = "zq";
    for (int c = 0; c < 5; ++c) {
      word += static_cast<char>('a' + rng.NextUint64(26));
    }
    vocab.push_back(word);
  }
  std::vector<std::string> texts;
  for (int t = 0; t < 3000; ++t) {
    std::string text = (t % 5 == 0) ? "wimbledon tennis final" : "";
    for (int w = 0; w < 8; ++w) {
      text += " " + vocab[rng.NextUint64(vocab.size())];
    }
    texts.push_back(text);
  }
  texts.push_back("");  // no content tokens: the zero vector

  std::set<std::string> distinct;
  for (const auto& text : texts) {
    for (auto& tok : text::StemmedContentTokens(text)) distinct.insert(tok);
  }
  ASSERT_GT(distinct.size(), 4096u);

  TopicEmbedder::Options options;
  options.noise_scale = 0.15f;
  TopicEmbedder e(options, {"tennis"}, {{"wimbledon", {"tennis", "grass"}}});
  auto all = e.EmbedAll(
      std::vector<std::string_view>(texts.begin(), texts.end()));
  ASSERT_EQ(all.size(), texts.size());
  for (size_t i = 0; i < texts.size(); ++i) {
    ASSERT_EQ(all[i], e.Embed(texts[i])) << "text " << i << ": " << texts[i];
  }
}

}  // namespace
}  // namespace unify::embedding
