#include "harness.h"

#include <cmath>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace unify::perfbench {
namespace {

// Reference values were computed independently, by Simpson integration
// of the Beta density.
TEST(PercentileTest, IncompleteBetaMatchesNumericIntegration) {
  EXPECT_NEAR(IncompleteBeta(0.3, 2.5, 4.0), 0.35219758590676475, 1e-9);
  EXPECT_NEAR(IncompleteBeta(0.5, 3.0, 3.0), 0.5, 1e-12);
  EXPECT_EQ(IncompleteBeta(0.0, 2, 3), 0.0);
  EXPECT_EQ(IncompleteBeta(1.0, 2, 3), 1.0);
  // Large parameters, as for p95 over thousands of samples.
  EXPECT_NEAR(IncompleteBeta(0.95, 8075.95, 425.05), 0.5, 0.02);
}

TEST(PercentileTest, IsTheHarrellDavisEstimate) {
  const std::vector<double> v = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 4);
  EXPECT_NEAR(Percentile(v, 50), 2.5, 1e-12);
  // The integrand behaves like t^0.25 at 0, so the reference is good to
  // about 1e-6 only.
  EXPECT_NEAR(Percentile(v, 25), 1.5429619851655763, 1e-6);
  EXPECT_NEAR(Percentile({0, 10}, 95), 9.865084822341622, 1e-6);
  EXPECT_DOUBLE_EQ(Median({7}), 7);
  EXPECT_TRUE(std::isnan(Percentile({}, 50)));
}

TEST(PercentileTest, MovesSmoothlyAcrossTiedValues) {
  // Six 1s and four 2s: the median lies inside the run of 1s, but the
  // estimate still reflects how close the 2s are.
  EXPECT_NEAR(Percentile({1, 1, 1, 1, 1, 1, 2, 2, 2, 2}, 50),
              1.2561948993679024, 1e-9);
  EXPECT_DOUBLE_EQ(Percentile(std::vector<double>(50, 3.5), 95), 3.5);
}

TEST(PercentileTest, TracksTheRankOnLargeSamples) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT_NEAR(Percentile(v, 95), 950.95, 0.5);
  EXPECT_NEAR(Percentile(v, 50), 500.5, 1e-6);
  double prev = 0;
  for (double p = 1; p < 100; p += 7) {
    const double q = Percentile(v, p);
    EXPECT_GT(q, prev);
    prev = q;
  }
}

TEST(PercentileTest, SamplesBeyondCountsTheTail) {
  EXPECT_EQ(SamplesBeyond(0, 95), 0u);
  EXPECT_EQ(SamplesBeyond(100, 95), 5u);
  EXPECT_EQ(SamplesBeyond(200, 95), 10u);
  EXPECT_EQ(SamplesBeyond(201, 95), 10u);
  EXPECT_EQ(SamplesBeyond(199, 95), 10u);
  EXPECT_EQ(SamplesBeyond(180, 95), 9u);
}

TEST(ZipfSamplerTest, ProbabilitiesFollowThePowerLaw) {
  ZipfSampler zipf(40, 1.0);
  double harmonic = 0;
  for (int r = 1; r <= 40; ++r) harmonic += 1.0 / r;
  double total = 0;
  for (size_t r = 0; r < 40; ++r) {
    EXPECT_NEAR(zipf.Probability(r), 1.0 / (r + 1) / harmonic, 1e-12);
    total += zipf.Probability(r);
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_EQ(zipf.FromUniform(0.0), 0u);
  EXPECT_EQ(zipf.FromUniform(0.999999999), 39u);
}

TEST(ZipfSamplerTest, SeededDrawsRepeatAndMatchFrequencies) {
  ZipfSampler zipf(40, 1.0);
  std::mt19937_64 a(7);
  std::mt19937_64 b(7);
  std::vector<int> hist(40, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const size_t r = zipf.Sample(a);
    ASSERT_EQ(r, zipf.Sample(b));
    ASSERT_LT(r, 40u);
    hist[r] += 1;
  }
  for (size_t r : {0u, 1u, 9u, 39u}) {
    EXPECT_NEAR(hist[r] / static_cast<double>(n), zipf.Probability(r), 0.005);
  }
}

TEST(ZipfSamplerTest, ExponentZeroIsUniform) {
  ZipfSampler zipf(4, 0.0);
  for (size_t r = 0; r < 4; ++r) EXPECT_NEAR(zipf.Probability(r), 0.25, 1e-12);
}

Span MakeSpan(uint64_t id, uint64_t parent, int64_t start, int64_t end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTimesTest, SubtractsTheUnionOfDirectChildren) {
  // root [0,100): children [10,30) and [20,50) overlap -> cover 40;
  // child [60,70) covers 10 more. The grandchild [12,18) is charged to
  // its own parent only.
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 100), MakeSpan(2, 1, 10, 30), MakeSpan(3, 1, 20, 50),
      MakeSpan(4, 1, 60, 70), MakeSpan(5, 2, 12, 18)};
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 10);
  EXPECT_EQ(self[4], 6);
}

TEST(SelfTimesTest, ClipsChildrenToTheParentAndIgnoresOrphans) {
  // A child recorded on another thread may outlive its parent.
  const std::vector<Span> spans = {MakeSpan(1, 0, 0, 10),
                                   MakeSpan(2, 1, 5, 25),
                                   MakeSpan(3, 99, 0, 4)};
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 5);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 4);
}

TEST(SpanRecorderTest, NestsSpansAndInheritsTheQueryId) {
  SpanRecorder recorder;
  {
    ScopedBenchSpan root(&recorder, "answer", "", 42);
    ScopedBenchSpan child(&recorder, "llm", "eval_predicate");
    EXPECT_EQ(child.query(), 42u);
  }
  { ScopedBenchSpan other(&recorder, "setup"); }
  { ScopedBenchSpan off(nullptr, "ignored"); }
  const std::vector<Span> spans = recorder.spans();
  ASSERT_EQ(spans.size(), 3u);
  // Recorded in closing order: child, root, other.
  EXPECT_EQ(spans[0].name, "llm");
  EXPECT_EQ(spans[0].attr, "eval_predicate");
  EXPECT_EQ(spans[0].parent, spans[1].id);
  EXPECT_EQ(spans[0].query, 42u);
  EXPECT_EQ(spans[1].parent, 0u);
  EXPECT_LE(spans[1].start_ns, spans[0].start_ns);
  EXPECT_GE(spans[1].end_ns, spans[0].end_ns);
  EXPECT_EQ(spans[2].parent, 0u);
  EXPECT_EQ(spans[2].query, 0u);
}

TEST(SpanRecorderTest, ThreadsKeepTheirOwnParents) {
  SpanRecorder recorder;
  ScopedBenchSpan root(&recorder, "root", "", 1);
  std::thread worker([&] { ScopedBenchSpan s(&recorder, "worker"); });
  worker.join();
  const std::vector<Span> spans = recorder.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[0].query, 0u);
}

}  // namespace
}  // namespace unify::perfbench
