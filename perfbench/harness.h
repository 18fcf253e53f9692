#ifndef UNIFY_PERFBENCH_HARNESS_H_
#define UNIFY_PERFBENCH_HARNESS_H_

// Statistics, sampling and span helpers of the repository benchmark
// (perfbench/main.cc). Header-only so the helper tests link nothing else.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace unify::perfbench {

/// The regularized incomplete beta function I_x(a, b), by the continued
/// fraction of Numerical Recipes (modified Lentz).
inline double IncompleteBeta(double x, double a, double b) {
  if (x <= 0) return 0;
  if (x >= 1) return 1;
  // The continued fraction converges fast below the mean; use the
  // symmetry I_x(a, b) = 1 - I_{1-x}(b, a) above it.
  if (x > (a + 1) / (a + b + 2)) return 1 - IncompleteBeta(1 - x, b, a);
  const double front =
      std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
               a * std::log(x) + b * std::log1p(-x)) /
      a;
  constexpr double kTiny = 1e-300;
  auto guard = [](double v) { return std::abs(v) < kTiny ? kTiny : v; };
  double c = 1;
  double d = 1 / guard(1 - (a + b) * x / (a + 1));
  double h = d;
  for (int m = 1; m <= 100000; ++m) {
    const double m2 = 2.0 * m;
    double num = m * (b - m) * x / ((a + m2 - 1) * (a + m2));
    d = 1 / guard(1 + num * d);
    c = guard(1 + num / c);
    h *= d * c;
    num = -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1));
    d = 1 / guard(1 + num * d);
    c = guard(1 + num / c);
    h *= d * c;
    if (std::abs(d * c - 1) < 1e-15) break;
  }
  return front * h;
}

/// The p-th percentile (p in [0, 100]) of `values`, by the Harrell-Davis
/// estimator: a weighted mean of all order statistics, with Beta weights
/// centred on rank p(n + 1). Unlike picking the sample at (or between)
/// the nearest ranks, it moves smoothly with the sample, so a percentile
/// of data with long runs of tied values (one modelled latency per
/// query, repeated across requests) neither sticks to one value nor
/// jumps between neighbours. NaN when empty.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  const double q = std::clamp(p, 0.0, 100.0) / 100.0;
  if (n == 1 || q == 0) return values.front();
  if (q == 1) return values.back();
  const double a = q * (n + 1);
  const double b = (1 - q) * (n + 1);
  double sum = 0;
  double prev = 0;
  for (size_t i = 1; i <= n; ++i) {
    const double cur = IncompleteBeta(static_cast<double>(i) / n, a, b);
    sum += (cur - prev) * values[i - 1];
    prev = cur;
  }
  return sum;
}

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}

/// How many of `n` samples lie strictly above the p-th percentile rank.
/// A reported percentile needs at least ten samples beyond it.
inline size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  const double rank = p / 100.0 * static_cast<double>(n - 1);
  return n - 1 - static_cast<size_t>(std::floor(rank));
}

/// Zipf(s) popularity over ranks [0, n): rank r is drawn with probability
/// proportional to 1 / (r + 1)^s. Inverse-CDF sampling over precomputed
/// cumulative weights, so a draw is one binary search.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s) : cdf_(n) {
    double total = 0;
    for (size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  /// The rank whose cumulative probability first reaches `u` in [0, 1).
  size_t FromUniform(double u) const {
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return it == cdf_.end() ? cdf_.size() - 1 : it - cdf_.begin();
  }

  size_t Sample(std::mt19937_64& rng) const {
    return FromUniform(std::uniform_real_distribution<double>(0, 1)(rng));
  }

  /// Probability of drawing rank `r`.
  double Probability(size_t r) const {
    return r == 0 ? cdf_[0] : cdf_[r] - cdf_[r - 1];
  }

 private:
  std::vector<double> cdf_;
};

/// One timed interval recorded by the benchmark around a call into a
/// layer. `query` groups the spans of one request; `parent` is 0 for a
/// root span.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t query = 0;
  std::string name;
  /// Free-form attribute (the prompt type of an "llm" span).
  std::string attr;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
/// Returned in the order of `spans`.
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    const Span& p = spans[it->second];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) children[it->second].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_lo = 0;
    int64_t cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = spans[i].duration_ns() - covered;
  }
  return self;
}

/// Thread-safe in-memory span store. A span opened on a thread becomes
/// the parent of the spans opened later on the same thread until it
/// closes, and passes its query id on to them.
class SpanRecorder {
 public:
  SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  friend class ScopedBenchSpan;

  struct Open {
    const SpanRecorder* recorder;
    uint64_t id;
    uint64_t query;
  };
  static std::vector<Open>& Stack() {
    thread_local std::vector<Open> stack;
    return stack;
  }

  uint64_t NextId() {
    std::lock_guard<std::mutex> lock(mu_);
    return ++next_id_;
  }
  void Add(Span span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }

  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  uint64_t next_id_ = 0;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, records on destruction. A null
/// recorder makes it a no-op (the untraced run). `query` 0 inherits the
/// enclosing span's query id on this thread.
class ScopedBenchSpan {
 public:
  ScopedBenchSpan(SpanRecorder* recorder, std::string name,
                  std::string attr = "", uint64_t query = 0)
      : recorder_(recorder) {
    if (recorder_ == nullptr) return;
    auto& stack = SpanRecorder::Stack();
    span_.id = recorder_->NextId();
    if (!stack.empty() && stack.back().recorder == recorder_) {
      span_.parent = stack.back().id;
      span_.query = query != 0 ? query : stack.back().query;
    } else {
      span_.query = query;
    }
    span_.name = std::move(name);
    span_.attr = std::move(attr);
    stack.push_back({recorder_, span_.id, span_.query});
    span_.start_ns = recorder_->NowNs();
  }
  ~ScopedBenchSpan() {
    if (recorder_ == nullptr) return;
    span_.end_ns = recorder_->NowNs();
    SpanRecorder::Stack().pop_back();
    recorder_->Add(std::move(span_));
  }
  ScopedBenchSpan(const ScopedBenchSpan&) = delete;
  ScopedBenchSpan& operator=(const ScopedBenchSpan&) = delete;

  uint64_t query() const { return span_.query; }

  int64_t elapsed_ns() const {
    return recorder_ == nullptr ? 0 : recorder_->NowNs() - span_.start_ns;
  }

 private:
  SpanRecorder* recorder_;
  Span span_;
};

}  // namespace unify::perfbench

#endif  // UNIFY_PERFBENCH_HARNESS_H_
