// Morsel-driven intra-operator parallelism: unit tests for batch-aligned
// partition planning, plus end-to-end properties of the whole pipeline —
// answers (and LLM usage) must be byte-identical for every
// max_intra_op_parallelism setting, while the virtual makespan of
// LLM-heavy plans shrinks and the optimizer's predicted makespan tracks
// the measured one.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/telemetry_names.h"
#include "core/operators/physical_operator.h"
#include "core/runtime/service.h"
#include "core/runtime/unify.h"
#include "corpus/dataset_profile.h"
#include "corpus/workload.h"
#include "llm/sim_llm.h"
#include "nlq/render.h"

namespace unify::core {
namespace {

using corpus::Answer;

// ---------------------------------------------------------------------------
// Partition planning (pure functions)
// ---------------------------------------------------------------------------

TEST(PartitionPlanningTest, PlanPartitionCountRespectsBatchFloor) {
  // Morsels are whole LLM batches: never more partitions than batches.
  EXPECT_EQ(PlanPartitionCount(0, 16, 4), 1);
  EXPECT_EQ(PlanPartitionCount(100, 16, 1), 1);   // knob off
  EXPECT_EQ(PlanPartitionCount(16, 16, 4), 1);    // single batch
  EXPECT_EQ(PlanPartitionCount(20, 16, 4), 2);    // two batches
  EXPECT_EQ(PlanPartitionCount(100, 16, 4), 4);   // 7 batches, capped at 4
  EXPECT_EQ(PlanPartitionCount(100, 16, 64), 7);  // capped at batch count
  EXPECT_EQ(PlanPartitionCount(1000, 16, 8), 8);
}

TEST(PartitionPlanningTest, GroupBatchSecondsIsBatchAlignedAndOrderStable) {
  // Seven batches whose seconds are distinct powers of two: every morsel's
  // sum names exactly the batches it covers.
  std::vector<double> batches;
  for (int b = 0; b < 7; ++b) batches.push_back(static_cast<double>(1 << b));

  // Morsel i covers batches [7i/4, 7(i+1)/4): {0}, {1,2}, {3,4}, {5,6} —
  // contiguous, in order, non-empty, together covering every batch once.
  EXPECT_EQ(GroupBatchSeconds(batches, 4),
            (std::vector<double>{1, 2 + 4, 8 + 16, 32 + 64}));
}

TEST(PartitionPlanningTest, GroupBatchSecondsDegenerateCases) {
  EXPECT_EQ(GroupBatchSeconds({}, 4), (std::vector<double>{0}));
  // One batch -> one stream.
  EXPECT_EQ(GroupBatchSeconds({2.5}, 4), (std::vector<double>{2.5}));
  // Knob off -> one stream, summed in batch order.
  EXPECT_EQ(GroupBatchSeconds({1, 2, 3}, 1), (std::vector<double>{6}));
  // Never more morsels than batches.
  EXPECT_EQ(GroupBatchSeconds({1, 2, 3}, 8), (std::vector<double>{1, 2, 3}));
}

// ---------------------------------------------------------------------------
// End to end
// ---------------------------------------------------------------------------

class PartitionSystemTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto profile = corpus::SportsProfile();
    profile.doc_count = 500;
    corpus_ = new corpus::Corpus(corpus::GenerateCorpus(profile, 21));
    llm_ = new llm::SimulatedLlm(corpus_, llm::SimLlmOptions{});
    // Parallelism is a system setting: one system per level of the sweep.
    systems_ = new std::map<int, std::unique_ptr<UnifySystem>>();
    for (int parallelism : {1, 2, 4, 8}) {
      UnifyOptions options;
      // Frozen cost model: plan choice must not depend on which queries
      // ran earlier, so the sweep below compares like with like.
      options.cost_feedback = false;
      options.exec.max_intra_op_parallelism = parallelism;
      auto system = std::make_unique<UnifySystem>(corpus_, llm_, options);
      ASSERT_TRUE(system->Setup().ok());
      (*systems_)[parallelism] = std::move(system);
    }
  }
  static void TearDownTestSuite() {
    delete systems_;
    delete llm_;
    delete corpus_;
    systems_ = nullptr;
    llm_ = nullptr;
    corpus_ = nullptr;
  }

  static const UnifySystem& SystemAt(int parallelism) {
    return *systems_->at(parallelism);
  }

  static QueryResult AnswerAt(const std::string& text, int parallelism) {
    return SystemAt(parallelism).Answer(text);
  }

  /// An LLM-filter-heavy query: a semantic condition forces per-document
  /// LLM verification over most of the corpus.
  static std::string SemanticCountQuery() {
    nlq::QueryAst ast;
    ast.task = nlq::TaskKind::kCount;
    ast.entity = "questions";
    ast.docset.conditions = {nlq::Condition::Semantic("injury")};
    return nlq::Render(ast);
  }

  static corpus::Corpus* corpus_;
  static llm::SimulatedLlm* llm_;
  static std::map<int, std::unique_ptr<UnifySystem>>* systems_;
};

corpus::Corpus* PartitionSystemTest::corpus_ = nullptr;
llm::SimulatedLlm* PartitionSystemTest::llm_ = nullptr;
std::map<int, std::unique_ptr<UnifySystem>>* PartitionSystemTest::systems_ =
    nullptr;

TEST_F(PartitionSystemTest, AnswersByteIdenticalAcrossParallelism) {
  corpus::WorkloadOptions wopts;
  wopts.per_template = 1;
  auto workload = corpus::GenerateWorkload(*corpus_, wopts);
  ASSERT_FALSE(workload.empty());

  size_t compared = 0;
  for (size_t qi = 0; qi < workload.size(); qi += 3) {
    const auto& qc = workload[qi];
    QueryResult base = AnswerAt(qc.text, 1);
    if (!base.status.ok()) continue;  // failure parity checked below
    for (int parallelism : {2, 4, 8}) {
      QueryResult p = AnswerAt(qc.text, parallelism);
      ASSERT_TRUE(p.status.ok())
          << "parallelism " << parallelism << ": " << p.status;
      // The answer, the API spend, and the exact set of LLM calls must
      // not depend on the partitioning.
      EXPECT_EQ(p.answer.ToString(), base.answer.ToString())
          << qc.text << " @ parallelism " << parallelism;
      EXPECT_EQ(p.exec_dollars, base.exec_dollars) << qc.text;
      EXPECT_DOUBLE_EQ(p.metrics.counters[telemetry::kMetricLlmCalls],
                       base.metrics.counters[telemetry::kMetricLlmCalls])
          << qc.text;
    }
    ++compared;
  }
  EXPECT_GE(compared, 4u);
}

TEST_F(PartitionSystemTest, LlmFilterHeavyQuerySpeedsUpAtLeastTwofold) {
  const std::string query = SemanticCountQuery();
  QueryResult p1 = AnswerAt(query, 1);
  QueryResult p4 = AnswerAt(query, 4);
  ASSERT_TRUE(p1.status.ok()) << p1.status;
  ASSERT_TRUE(p4.status.ok()) << p4.status;
  EXPECT_EQ(p1.answer.ToString(), p4.answer.ToString());
  // The filter dominates the plan; with 4 morsels on the 4-server pool
  // its stream collapses to ~1/4, so end-to-end improves >= 2x.
  EXPECT_GE(p1.exec_seconds / p4.exec_seconds, 2.0)
      << "p1 " << p1.exec_seconds << "s vs p4 " << p4.exec_seconds << "s\n"
      << p4.plan_explain << "\n" << p4.timeline;
  // The morsels really ran: the partition counter fired.
  EXPECT_GE(p4.metrics.counters[telemetry::kMetricExecPartitions], 2.0);
  EXPECT_DOUBLE_EQ(
      p1.metrics.counters[telemetry::kMetricExecPartitions], 0.0);
}

TEST_F(PartitionSystemTest, PredictedMakespanTracksMeasured) {
  const std::string query = SemanticCountQuery();
  QueryResult p1 = AnswerAt(query, 1);
  QueryResult p4 = AnswerAt(query, 4);
  ASSERT_TRUE(p1.status.ok());
  ASSERT_TRUE(p4.status.ok());
  ASSERT_GT(p1.predicted_exec_seconds, 0);
  ASSERT_GT(p4.predicted_exec_seconds, 0);
  // The optimizer predicts the parallel speedup it just enabled...
  EXPECT_GE(p1.predicted_exec_seconds / p4.predicted_exec_seconds, 2.0);
  // ...and both predictions land within a small factor of the measured
  // makespans (the calibrated-cost-model regime).
  for (const QueryResult* r : {&p1, &p4}) {
    const double ratio = r->predicted_exec_seconds / r->exec_seconds;
    EXPECT_GT(ratio, 0.3) << r->predicted_exec_seconds << " vs "
                          << r->exec_seconds;
    EXPECT_LT(ratio, 3.0) << r->predicted_exec_seconds << " vs "
                          << r->exec_seconds;
  }
}

TEST_F(PartitionSystemTest, ExplainShowsMorselsAndStatsStayEqual) {
  const std::string query = SemanticCountQuery();
  QueryResult p1 = AnswerAt(query, 1);
  QueryResult p4 = AnswerAt(query, 4);
  ASSERT_TRUE(p1.status.ok());
  ASSERT_TRUE(p4.status.ok());
  EXPECT_NE(p4.plan_explain.find("morsels"), std::string::npos)
      << p4.plan_explain;
  EXPECT_EQ(p1.plan_explain.find("morsels"), std::string::npos);
  // Total LLM resource usage (calls and seconds of stream time) is the
  // same work, just laid out differently on the servers.
  EXPECT_DOUBLE_EQ(p1.metrics.counters[telemetry::kMetricLlmCalls],
                   p4.metrics.counters[telemetry::kMetricLlmCalls]);
  EXPECT_DOUBLE_EQ(p1.metrics.counters[telemetry::kMetricLlmSeconds],
                   p4.metrics.counters[telemetry::kMetricLlmSeconds]);
}

TEST_F(PartitionSystemTest, ServedQueriesRunAtTheSystemParallelism) {
  UnifyService::Options sopts;
  sopts.num_workers = 2;
  const std::string query = SemanticCountQuery();

  // A service over the parallelism-4 system: morsels ran.
  UnifyService parallel(&SystemAt(4), sopts);
  QueryResult served = parallel.Answer(query);
  ASSERT_TRUE(served.status.ok()) << served.status;
  EXPECT_GE(served.metrics.counters[telemetry::kMetricExecPartitions], 2.0);

  // A service over the sequential system: one stream per node.
  UnifyService sequential(&SystemAt(1), sopts);
  QueryResult seq = sequential.Answer(query);
  ASSERT_TRUE(seq.status.ok()) << seq.status;
  EXPECT_DOUBLE_EQ(
      seq.metrics.counters[telemetry::kMetricExecPartitions], 0.0);
  EXPECT_EQ(served.answer.ToString(), seq.answer.ToString());
}

}  // namespace
}  // namespace unify::core
