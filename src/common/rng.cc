#include "common/rng.h"

#include <cmath>

namespace unify {

namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Fnv1aContinue(uint64_t state, std::string_view data) {
  for (unsigned char c : data) {
    state ^= c;
    state *= 0x100000001b3ULL;
  }
  return state;
}

uint64_t StableHashFinish(uint64_t fnv_state) {
  return SplitMix64(fnv_state);
}

uint64_t StableHash64(std::string_view data) {
  // FNV-1a over bytes, then a SplitMix64 finisher for avalanche.
  return StableHashFinish(Fnv1aContinue(kFnv1aOffsetBasis, data));
}

uint64_t HashCombine(uint64_t a, uint64_t b) {
  a ^= b + 0x9e3779b97f4a7c15ULL + (a << 12) + (a >> 4);
  uint64_t state = a;
  return SplitMix64(state);
}

Rng::Rng(uint64_t seed) : seed_(seed) {
  uint64_t state = seed;
  for (auto& s : s_) s = SplitMix64(state);
}

uint64_t Rng::Next() {
  // xoshiro256++
  const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextUint64(uint64_t n) {
  if (n == 0) return 0;
  // Lemire's multiply-shift with rejection for unbiased results.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
  uint64_t l = static_cast<uint64_t>(m);
  if (l < n) {
    uint64_t t = (~n + 1) % n;  // == 2^64 mod n
    while (l < t) {
      x = Next();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextUint64(span));
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::Gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Box-Muller.
  double u1 = NextDouble();
  double u2 = NextDouble();
  while (u1 <= 1e-300) u1 = NextDouble();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * Gaussian();
}

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

uint64_t Rng::Zipf(uint64_t n, double s) {
  if (n == 0) return 0;
  if (s <= 0.0) return NextUint64(n);
  // Cumulative inverse transform. n is small (categories, templates) in all
  // our uses, so O(n) is acceptable.
  double total = 0.0;
  for (uint64_t i = 1; i <= n; ++i) total += 1.0 / std::pow(double(i), s);
  double u = NextDouble() * total;
  double acc = 0.0;
  for (uint64_t i = 1; i <= n; ++i) {
    acc += 1.0 / std::pow(double(i), s);
    if (u <= acc) return i - 1;
  }
  return n - 1;
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += (w > 0 ? w : 0);
  if (total <= 0.0) return NextUint64(weights.size());
  double u = NextDouble() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += (weights[i] > 0 ? weights[i] : 0);
    if (u <= acc) return i;
  }
  return weights.size() - 1;
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  if (k > n) k = n;
  // Partial Fisher-Yates over an index array. Memory O(n); our corpora are
  // a few thousand documents so this is fine.
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  std::vector<size_t> out;
  out.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    size_t j = i + NextUint64(n - i);
    std::swap(idx[i], idx[j]);
    out.push_back(idx[i]);
  }
  return out;
}

Rng Rng::Fork(uint64_t tag) const { return Rng(HashCombine(seed_, tag)); }

}  // namespace unify
