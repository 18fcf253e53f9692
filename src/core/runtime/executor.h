#ifndef UNIFY_CORE_RUNTIME_EXECUTOR_H_
#define UNIFY_CORE_RUNTIME_EXECUTOR_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/trace.h"
#include "core/physical/physical_plan.h"
#include "corpus/answer.h"
#include "exec/schedule.h"
#include "exec/virtual_pool.h"

namespace unify::core {

/// The outcome of executing one physical plan.
struct ExecutionResult {
  Status status = Status::OK();
  corpus::Answer answer;
  /// Virtual end-to-end execution time: operator streams scheduled on the
  /// LLM server pool respecting plan dependencies (Section III-C).
  double virtual_seconds = 0;
  /// Total LLM stream time across all operators (resource usage).
  double llm_seconds_total = 0;
  /// Total API spend across all operators.
  double llm_dollars_total = 0;
  int64_t llm_calls = 0;
  /// True when plan adjustment fired (an operator failed and was retried
  /// with a different implementation).
  bool adjusted = false;
  /// True when graceful degradation absorbed a terminal transient failure:
  /// `status` is OK, the answer is partial/empty, and `degraded_detail`
  /// names the failure (Finish's graceful_degradation must be set).
  bool degraded = false;
  std::string degraded_detail;
  /// Human-readable execution timeline: one line per operator with its
  /// virtual start/finish on the server pool and measured LLM usage,
  /// followed by one marker line per mid-query replan (when any fired).
  std::string timeline;
};

/// What execution actually measured for one DAG node — the "actual" side
/// of EXPLAIN ANALYZE (the "estimated" side lives on PhysicalNode).
/// Indexed like PhysicalPlan::nodes / PlanExecutor::node_stats().
struct NodeExecution {
  /// False when the node never ran (an upstream failure aborted the DAG).
  bool executed = false;
  /// Measured input cardinality (max over input values, the same
  /// convention the optimizer uses for est_in_card).
  double actual_in_card = 0;
  /// Measured output cardinality of the value the node produced.
  double actual_out_card = 0;
  /// Morsel streams the node's run was laid out as (1 = one stream).
  int partitions = 1;
  /// True when plan adjustment fired on this node (its first impl failed).
  bool adjusted = false;
  /// Alternative implementations tried during adjustment.
  int retries = 0;
  /// Virtual interval on the server pool, relative to the query's ready
  /// time, and the wait for a free server inside it.
  double virt_start = 0;
  double virt_finish = 0;
  double queue_wait_seconds = 0;
};

/// A materialization point at which the adaptive engine paused: node
/// `node` just finished with a cardinality q-error at or above the
/// configured threshold, and un-executed nodes remain that a replan could
/// still improve. The pipeline answers with ApplyReplan (adopting a
/// re-lowered suffix or not) and calls Run again to resume.
struct ReplanRequest {
  int node = -1;
  std::string output_var;
  double observed_card = 0;
  double estimated_card = 0;
  /// QError(estimated_card, observed_card) — the trigger value.
  double qerror = 0;
  /// Absolute virtual time on the execution pool at which the trigger
  /// node finished (private pools start at 0, shared pools at the query's
  /// execution-ready time). Re-optimization costs its suffix from here.
  double elapsed_seconds = 0;
  /// Which plan nodes have finished executing (indexed like plan.nodes).
  std::vector<bool> executed;
  /// Every cardinality execution has materialized so far, keyed by the
  /// producing node's output variable — the facts handed to
  /// PhysicalOptimizer::Reoptimize as CardinalityOverrides.
  std::map<std::string, double> observed_cards;
};

/// One mid-query re-optimization, adopted or not (docs/replanning.md).
/// Produced by the query pipeline's replan loop, retained on QueryResult
/// for EXPLAIN ANALYZE, the flight recorder, and the \replan shell view.
struct ReplanRecord {
  /// The materialization point that fired the trigger.
  int trigger_node = -1;
  std::string trigger_var;
  double observed_card = 0;
  double estimated_card = 0;
  double qerror = 0;
  /// Absolute virtual time at which the trigger node finished.
  double elapsed_seconds = 0;
  /// The planner-tier replan decision call, charged to the query.
  double decision_seconds = 0;
  double decision_dollars = 0;
  /// Whether the re-lowered suffix was adopted (strictly better predicted
  /// cost-to-go under the query's objective) and what changed.
  bool adopted = false;
  int nodes_rechosen = 0;
  /// Geometric-mean observed/estimated cardinality bias the re-optimizer
  /// measured over executed nodes.
  double est_bias = 1.0;
  /// Predicted cost-to-go of the un-executed suffix under the measured
  /// cardinalities, in the query's objective (virtual seconds under
  /// kTime, dollars under kDollars): keeping the old impls vs the
  /// re-lowered ones.
  double old_suffix_cost = 0;
  double new_suffix_cost = 0;
  /// Plan nodes whose impl or args the adopted replan changed.
  std::vector<int> relowered_nodes;
  /// Every plan node still un-executed when the trigger fired (the
  /// suffix the predicted costs above cover) — the basis of the
  /// completion-time improved/not-improved audit.
  std::vector<int> suffix_nodes;
  /// Human-readable one-line summary (flight recorder detail).
  std::string detail;
};

/// The one-line account of a replan shared by the flight recorder detail
/// ("replan @ t=...") and EXPLAIN ANALYZE ("replan #N @ t=..."):
/// "@ t=<elapsed>s: <var> observed <card> vs est <card> (q-err <q>) ->
/// adopted (...)" or "... -> kept plan".
std::string FormatReplan(const ReplanRecord& record);

/// The execution module (paper Section III-C): runs a physical plan with
/// parallel topological execution, dynamic plan adjustment on operator
/// failure, and virtual-time accounting on the simulated LLM server pool.
///
/// Execution is a resumable engine: Begin() sets up the state, Run()
/// materializes one node at a time in virtual dispatch order on the
/// calling thread, and Finish() assembles the result. With
/// Options::reoptimize set, Run() pauses at materialization points whose
/// observed cardinality diverges from the optimizer's estimate, so the
/// query pipeline can re-optimize the un-executed suffix mid-flight
/// (ApplyReplan, docs/replanning.md); otherwise it runs to completion in
/// one call.
class PlanExecutor {
 public:
  struct Options {
    /// LLM servers (paper: 4 local Llamas).
    int num_servers = 4;
    /// Disable DAG parallelism (the Unify–noLO ablation, Section VII-D).
    bool parallel = true;
    /// Morsel-driven intra-operator parallelism: the one run of a
    /// partitionable per-document LLM operator is laid out as up to this
    /// many morsels of contiguous whole batches, occupying distinct
    /// virtual servers concurrently. Only the virtual timeline depends on
    /// it: answers, LLM calls and dollars are bit-identical for every
    /// setting, and 1 is the single-stream model.
    int max_intra_op_parallelism = 1;
    /// Mid-query re-optimization (docs/replanning.md): pause Run() at
    /// materialization points whose cardinality q-error reaches the
    /// threshold, letting the pipeline re-lower the un-executed suffix
    /// with measured cardinalities. Off, Run() never pauses.
    bool reoptimize = false;
    /// Observed-vs-estimated cardinality q-error at or above which a
    /// materialization point yields a ReplanRequest.
    double reoptimize_qerror_threshold = 3.0;
    /// Replan pauses per query (each costs one planner-tier decision
    /// call).
    int max_reoptimizations = 2;
  };

  /// Everything one plan execution carries across the staged engine's
  /// pauses: the (possibly replanned) plan, bound variable values, the
  /// incremental virtual-time schedule, and the replans applied so far.
  /// Created by Begin(), advanced by Run(), finalized by Finish(). Only
  /// the query's own thread touches it. Not copyable (its scheduler
  /// refers to `plan.dag`); construct in place and pass by reference.
  struct ExecutionState {
    ExecutionState() = default;
    ExecutionState(const ExecutionState&) = delete;
    ExecutionState& operator=(const ExecutionState&) = delete;

    /// The plan being executed. ApplyReplan swaps in the re-lowered plan;
    /// executed nodes are pinned verbatim by the Reoptimize contract.
    PhysicalPlan plan;
    Trace* trace = nullptr;
    std::unique_ptr<ScopedSpan> exec_span;
    std::map<std::string, Value> vars;
    bool adjusted = false;
    Status run_status = Status::OK();
    /// Span of each DAG node, for post-hoc virtual-interval annotation.
    std::vector<SpanId> node_spans;
    /// Which nodes have finished executing.
    std::vector<bool> done;
    /// Nodes already checked against the replan trigger (so a resumed
    /// Run() never re-fires on the same materialization point).
    std::vector<bool> replan_checked;

    /// Virtual-time accounting: each node's measured cost is placed on
    /// the pool the moment it materializes, so elapsed time is known at
    /// pause points. `base` is the query's ready time on the pool; the
    /// scheduler also picks the dispatch order, and a replan pause floors
    /// the un-executed suffix to trigger finish + decision time.
    double base = 0;
    std::unique_ptr<exec::VirtualLlmPool> local_pool;
    exec::VirtualLlmPool* pool = nullptr;
    std::optional<exec::ListScheduler> scheduler;

    /// Replans applied so far and their charged decision costs.
    std::vector<ReplanRecord> replans;
    int replan_yields = 0;
    double replan_seconds = 0;
    double replan_dollars = 0;
    int64_t replan_calls = 0;
  };

  PlanExecutor(ExecContext ctx, Options options)
      : ctx_(ctx), options_(options) {}

  /// Initializes `state` for executing `plan`. When `trace` is non-null
  /// an "execute" span (child of `parent`) is recorded with one
  /// "exec.node" span per DAG node, annotated by Finish() with the node's
  /// virtual-time interval on the simulated server pool.
  ///
  /// `shared_pool` is the virtual LLM server pool of a UnifyService
  /// serving session: this plan's operator streams compete with every
  /// other in-flight query's, so the reported virtual times include
  /// cross-query queueing; it must outlive the execution. The plan
  /// becomes ready on it at `start_seconds` (the query's arrival +
  /// planning time). Null = a fresh private pool of
  /// Options::num_servers starting at 0 (the standalone
  /// one-query-at-a-time model).
  void Begin(const PhysicalPlan& plan, ExecutionState& state,
             Trace* trace = nullptr, SpanId parent = kNoSpan,
             exec::VirtualLlmPool* shared_pool = nullptr,
             double start_seconds = 0);

  /// Executes nodes one at a time in the dispatch order of the list
  /// scheduler (exec::ListScheduler) until
  /// either a materialization point trips the replan trigger — returning
  /// the ReplanRequest to answer with ApplyReplan before calling Run
  /// again — or the DAG completes or fails (returns nullopt; call
  /// Finish).
  std::optional<ReplanRequest> Run(ExecutionState& state);

  /// Records the outcome of one replan consideration. `new_plan` non-null
  /// adopts the re-lowered plan for the un-executed suffix (executed
  /// nodes must be pinned verbatim, the Reoptimize contract); null keeps
  /// the current plan. Either way the decision call's cost is charged to
  /// the query and the suffix is floored to the pause's end (the barrier
  /// models execution waiting for the planner's verdict).
  void ApplyReplan(ExecutionState& state, ReplanRecord record,
                   const PhysicalPlan* new_plan);

  /// Assembles the ExecutionResult (converting the answer variable to an
  /// Answer): totals (including replan decision charges), the timeline
  /// with replan markers, the Section V-D fallback and graceful
  /// degradation. With `graceful_degradation`
  /// (UnifyOptions::graceful_degradation), a DAG that failed with a
  /// *transient* LLM failure (llm::IsTransientLlmFailure) even the
  /// fallback could not cure finishes degraded with an empty answer
  /// instead of a failed status (docs/resilience.md).
  ExecutionResult Finish(ExecutionState& state,
                         bool graceful_degradation = false);

  /// After execution, per-node measured stats (for cost-model feedback).
  const std::vector<OpStats>& node_stats() const { return node_stats_; }

  /// After execution, what each node actually did (EXPLAIN ANALYZE).
  const std::vector<NodeExecution>& node_executions() const {
    return node_executions_;
  }

  /// When the Section V-D fallback produced the answer, a synthetic
  /// execution record + stats for the fallback generation (it has no plan
  /// node), so EXPLAIN ANALYZE can show what actually answered the query.
  const std::optional<NodeExecution>& fallback_execution() const {
    return fallback_execution_;
  }
  const OpStats& fallback_stats() const { return fallback_stats_; }

 private:
  /// Executes one DAG node once, with plan adjustment on failure and
  /// stats + execution-record bookkeeping. Returns its measured cost for
  /// the scheduler: one LLM stream, or its morsel streams when the node
  /// is partitionable and parallelism > 1.
  StatusOr<exec::NodeCost> RunNode(ExecutionState& state, int u);

  ExecContext ctx_;
  Options options_;
  std::vector<OpStats> node_stats_;
  std::vector<NodeExecution> node_executions_;
  std::optional<NodeExecution> fallback_execution_;
  OpStats fallback_stats_;
};

}  // namespace unify::core

#endif  // UNIFY_CORE_RUNTIME_EXECUTOR_H_
