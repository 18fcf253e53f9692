#ifndef UNIFY_EMBEDDING_VECTOR_MATH_H_
#define UNIFY_EMBEDDING_VECTOR_MATH_H_

#include <cmath>
#include <cstddef>
#include <vector>

namespace unify::embedding {

/// Dense embedding vector. Embedders always return unit-normalized vectors,
/// so L2 distance and cosine distance are monotonically related.
using Vec = std::vector<float>;

/// Inner product. Requires equal dimensions.
float Dot(const Vec& a, const Vec& b);

/// Euclidean norm.
float Norm(const Vec& v);

/// Scales `v` to unit norm in place (no-op for the zero vector).
void NormalizeInPlace(Vec& v);

/// Euclidean distance between two rows of `dim` floats: one sequential
/// sum of squared differences, then `sqrt`. Every L2 distance in the
/// library is this loop, so raw rows (HnswIndex's vector array) and `Vec`s
/// get bit-identical distances. It is symmetric bit for bit: a[i] - b[i]
/// and b[i] - a[i] differ only in sign, so their squares are equal.
inline float L2DistanceRaw(const float* a, const float* b, size_t dim) {
  float s = 0;
  for (size_t i = 0; i < dim; ++i) {
    float d = a[i] - b[i];
    s += d * d;
  }
  return std::sqrt(s);
}

/// Euclidean distance. Requires equal dimensions.
float L2Distance(const Vec& a, const Vec& b);

/// Cosine similarity in [-1, 1]; 0 when either vector is zero.
float CosineSimilarity(const Vec& a, const Vec& b);

/// Cosine distance = 1 - cosine similarity, in [0, 2].
float CosineDistance(const Vec& a, const Vec& b);

/// a += scale * b. Requires equal dimensions.
void AddScaled(Vec& a, const Vec& b, float scale);

}  // namespace unify::embedding

#endif  // UNIFY_EMBEDDING_VECTOR_MATH_H_
