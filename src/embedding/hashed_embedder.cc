#include "embedding/hashed_embedder.h"

#include <algorithm>

#include "common/rng.h"
#include "text/tokenizer.h"

namespace unify::embedding {

namespace {

/// EmbedAll's memo of token directions: a direct-mapped table of
/// kSlots rows keyed by StableHash64(token), in one allocation. It is
/// exact: TokenDirection seeds its Rng from the token's hash alone, so a
/// row cached for one token is the direction of every token with that
/// hash. A slot collision only overwrites the row (a later miss).
class DirectionMemo {
 public:
  static constexpr size_t kSlots = 4096;

  DirectionMemo(const HashedEmbedder& base, size_t dim)
      : base_(base), dim_(dim), keys_(kSlots), filled_(kSlots, false),
        rows_(kSlots * dim) {}

  const float* Lookup(std::string_view token) {
    uint64_t h = StableHash64(token);
    size_t slot = h & (kSlots - 1);
    float* row = &rows_[slot * dim_];
    if (!filled_[slot] || keys_[slot] != h) {
      Vec dir = base_.TokenDirection(token);
      std::copy(dir.begin(), dir.end(), row);
      keys_[slot] = h;
      filled_[slot] = true;
    }
    return row;
  }

 private:
  const HashedEmbedder& base_;
  size_t dim_;
  std::vector<uint64_t> keys_;
  std::vector<bool> filled_;
  std::vector<float> rows_;
};

}  // namespace

HashedEmbedder::HashedEmbedder(size_t dim, uint64_t seed)
    : dim_(dim), seed_(seed) {}

Vec HashedEmbedder::TokenDirection(std::string_view stemmed_token) const {
  Rng rng(HashCombine(seed_, StableHash64(stemmed_token)));
  Vec dir(dim_);
  for (auto& x : dir) x = static_cast<float>(rng.Gaussian());
  NormalizeInPlace(dir);
  return dir;
}

Vec HashedEmbedder::Embed(std::string_view text) const {
  Vec out(dim_, 0.0f);
  for (const auto& tok : text::StemmedContentTokens(text)) {
    AddScaled(out, TokenDirection(tok), 1.0f);
  }
  NormalizeInPlace(out);
  return out;
}

TopicEmbedder::TopicEmbedder(Options options,
                             const std::vector<std::string>& topic_tokens,
                             const AliasMap& aliases)
    : options_(options), base_(options.dim, options.seed) {
  for (const auto& raw : topic_tokens) {
    boosts_[text::Stem(raw)] = options_.topic_boost;
  }
  for (const auto& [alias, canon] : aliases) {
    auto& targets = aliases_[text::Stem(alias)];
    for (const auto& c : canon) targets.push_back(text::Stem(c));
  }
}

template <typename Direction>
Vec TopicEmbedder::EmbedWith(std::string_view text,
                             Direction&& direction) const {
  Vec out(options_.dim, 0.0f);
  // out += w * direction(token): AddScaled's arithmetic, on a raw row.
  auto add = [&](std::string_view token, float w) {
    const float* dir = direction(token);
    for (size_t i = 0; i < out.size(); ++i) out[i] += w * dir[i];
  };
  size_t n_tokens = 0;
  for (const auto& tok : text::StemmedContentTokens(text)) {
    auto it = boosts_.find(tok);
    add(tok, (it == boosts_.end()) ? 1.0f : it->second);
    auto alias_it = aliases_.find(tok);
    if (alias_it != aliases_.end()) {
      for (const auto& canon : alias_it->second) {
        add(canon, options_.topic_boost);
      }
    }
    ++n_tokens;
  }
  if (options_.noise_scale > 0 && n_tokens > 0) {
    // Per-text deterministic perturbation: models the residual error of a
    // real embedding model without breaking reproducibility.
    Rng rng(HashCombine(options_.seed ^ 0x9e37u, StableHash64(text)));
    Vec noise(options_.dim);
    for (auto& x : noise) x = static_cast<float>(rng.Gaussian());
    NormalizeInPlace(noise);
    float base_norm = Norm(out);
    AddScaled(out, noise, options_.noise_scale * base_norm);
  }
  NormalizeInPlace(out);
  return out;
}

Vec TopicEmbedder::Embed(std::string_view text) const {
  Vec dir;
  return EmbedWith(text, [&](std::string_view token) {
    dir = base_.TokenDirection(token);
    return dir.data();
  });
}

std::vector<Vec> TopicEmbedder::EmbedAll(
    const std::vector<std::string_view>& texts) const {
  DirectionMemo memo(base_, options_.dim);
  std::vector<Vec> out;
  out.reserve(texts.size());
  for (std::string_view text : texts) {
    out.push_back(EmbedWith(text, [&](std::string_view token) {
      return memo.Lookup(token);
    }));
  }
  return out;
}

}  // namespace unify::embedding
