#ifndef UNIFY_COMMON_RNG_H_
#define UNIFY_COMMON_RNG_H_

#include <cstdint>
#include <string_view>
#include <vector>

namespace unify {

/// SplitMix64 step: a fast, high-quality 64-bit mixing function. Used for
/// seeding and for stateless hashing of identifiers.
uint64_t SplitMix64(uint64_t& state);

/// Stateless 64-bit hash of a byte string (FNV-1a finished with SplitMix64).
/// Stable across runs and platforms; every "LLM decision" in the simulator
/// hashes its inputs through this so results are reproducible.
uint64_t StableHash64(std::string_view data);

/// The FNV-1a state StableHash64 starts from.
inline constexpr uint64_t kFnv1aOffsetBasis = 0xcbf29ce484222325ULL;

/// Continues an FNV-1a state over `data`. Hashing a string in pieces
/// reaches the state of hashing it whole, so a shared prefix is hashed
/// once: StableHash64(a + b) ==
/// StableHashFinish(Fnv1aContinue(Fnv1aContinue(kFnv1aOffsetBasis, a), b)).
uint64_t Fnv1aContinue(uint64_t state, std::string_view data);

/// The SplitMix64 finisher StableHash64 applies to its FNV-1a state.
uint64_t StableHashFinish(uint64_t fnv_state);

/// Combines two hashes (boost::hash_combine style, 64-bit).
uint64_t HashCombine(uint64_t a, uint64_t b);

/// A deterministic xoshiro256++ pseudo-random generator.
///
/// All randomness in the library flows through explicitly seeded `Rng`
/// instances, so every experiment is bit-for-bit reproducible.
class Rng {
 public:
  /// Seeds the generator. Two instances with the same seed produce the same
  /// stream on all platforms.
  explicit Rng(uint64_t seed);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform in [0, n). Requires n > 0.
  uint64_t NextUint64(uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Standard normal via Box-Muller.
  double Gaussian();
  /// Normal with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  /// Bernoulli draw with probability `p` of returning true.
  bool Bernoulli(double p);

  /// Zipf-distributed integer in [0, n) with exponent `s` (s=0 is uniform).
  /// Uses the inverse-CDF over precomputable weights; O(n) per call is
  /// avoided by rejection-free cumulative search on demand for small n.
  uint64_t Zipf(uint64_t n, double s);

  /// Samples an index in [0, weights.size()) proportional to `weights`.
  /// Non-positive total weight falls back to uniform.
  size_t Categorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffles `v` in place.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = NextUint64(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Samples `k` distinct indices uniformly from [0, n) (k <= n), in
  /// selection order (not sorted).
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// Derives an independent child generator; stable for a given (seed, tag).
  Rng Fork(uint64_t tag) const;

 private:
  uint64_t s_[4];
  uint64_t seed_;
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace unify

#endif  // UNIFY_COMMON_RNG_H_
