#ifndef UNIFY_PERFBENCH_LAYERS_H_
#define UNIFY_PERFBENCH_LAYERS_H_

// The traced run's layer replays: each layer's public functions are
// called directly on the workload's own inputs, timed from outside by
// benchmark spans, and checked against the live system.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/runtime/unify.h"
#include "corpus/corpus.h"
#include "corpus/workload.h"
#include "llm/llm_client.h"
#include "llm/sim_llm.h"
#include "harness.h"

namespace unify::perfbench {

/// One generated corpus with its simulated LLM and query workload.
struct Dataset {
  std::unique_ptr<corpus::Corpus> corpus;
  std::unique_ptr<llm::SimulatedLlm> sim;
  std::vector<corpus::QueryCase> queries;
};

/// Benchmark-owned decorator around the simulated LLM: while a recorder
/// is attached, every call becomes an "llm" span whose attribute is the
/// prompt type, and is counted per (span query id, prompt type). Every
/// query-time layer crosses this boundary.
class SpannedLlm : public llm::LlmClient {
 public:
  SpannedLlm(llm::LlmClient* base, SpanRecorder* recorder)
      : base_(base), recorder_(recorder) {}
  llm::LlmResult Call(const llm::LlmCall& call) override;
  llm::LlmUsage usage() const override { return base_->usage(); }
  void ResetUsage() override { base_->ResetUsage(); }

  /// Null detaches the recorder: calls pass straight through.
  void set_recorder(SpanRecorder* recorder) { recorder_.store(recorder); }
  /// Calls per prompt type made under spans of query id `query`.
  std::map<std::string, int64_t> CallsOf(uint64_t query) const;

 private:
  llm::LlmClient* base_;
  std::atomic<SpanRecorder*> recorder_;
  mutable std::mutex mu_;
  std::map<uint64_t, std::map<std::string, int64_t>> calls_;
};

/// Work counts of the replays, summed over a workload's corpora. Times
/// come from the spans; these are the denominators and exact counts.
struct ReplayCounts {
  int64_t docs_embedded = 0;
  int64_t index_adds = 0;
  int64_t index_edges = 0;
  double index_build_seconds = 0;
  double embed_seconds = 0;
  int64_t hnsw_searches = 0;
  int64_t linear_searches = 0;
  double recall_sum = 0;
  int64_t recall_queries = 0;
  int64_t plans_generated = 0;
  int64_t plan_llm_calls = 0;
  int64_t plan_backtracks = 0;
  int64_t sce_estimates = 0;
  int64_t sce_samples = 0;
  /// Every equality check that failed, as a readable line.
  std::vector<std::string> failures;
};

/// Replays the set-up layers of `system` (set up over `dataset`) and
/// checks them against the live system: Embed of every document must
/// reproduce the system's vector exactly; a rebuilt HNSW index must have
/// the live index's EdgeCount() and answer the workload's searches
/// identically. Also times HNSW and exact searches for the workload's
/// queries and measures recall@10. Call right after Setup(), so that the
/// replays and the set-up they are subtracted from run close in time.
void ReplayIndexLayers(const core::UnifySystem& system,
                       const Dataset& dataset, SpanRecorder* recorder,
                       ReplayCounts* counts);

/// Replays the query-time layers for every `query_stride`-th query:
/// PlanGenerator::Generate -> PhysicalOptimizer::SelectBest ->
/// PlanExecutor::Begin/Run/Finish must give the same answer, exec virtual
/// seconds and per-prompt-type LLM calls as UnifySystem::Answer from the
/// same cache state. Then every SCE estimate of those plans' filter
/// conditions must repeat exactly. `llm` is the decorator under
/// `system`'s client stack; `next_query` numbers the replay spans.
void ReplayQueryLayers(core::UnifySystem& system, const Dataset& dataset,
                       size_t query_stride, SpannedLlm* llm,
                       SpanRecorder* recorder, uint64_t* next_query,
                       ReplayCounts* counts);

}  // namespace unify::perfbench

#endif  // UNIFY_PERFBENCH_LAYERS_H_
