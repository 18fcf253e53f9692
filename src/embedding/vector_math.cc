#include "embedding/vector_math.h"

#include <cmath>

#include "common/logging.h"

namespace unify::embedding {

float Dot(const Vec& a, const Vec& b) {
  UNIFY_CHECK(a.size() == b.size());
  float s = 0;
  for (size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

float Norm(const Vec& v) {
  float s = 0;
  for (float x : v) s += x * x;
  return std::sqrt(s);
}

void NormalizeInPlace(Vec& v) {
  float n = Norm(v);
  if (n <= 0) return;
  for (float& x : v) x /= n;
}

float L2Distance(const Vec& a, const Vec& b) {
  UNIFY_CHECK(a.size() == b.size());
  return L2DistanceRaw(a.data(), b.data(), a.size());
}

float CosineSimilarity(const Vec& a, const Vec& b) {
  float na = Norm(a);
  float nb = Norm(b);
  if (na <= 0 || nb <= 0) return 0;
  return Dot(a, b) / (na * nb);
}

float CosineDistance(const Vec& a, const Vec& b) {
  return 1.0f - CosineSimilarity(a, b);
}

void AddScaled(Vec& a, const Vec& b, float scale) {
  UNIFY_CHECK(a.size() == b.size());
  for (size_t i = 0; i < a.size(); ++i) a[i] += scale * b[i];
}

}  // namespace unify::embedding
