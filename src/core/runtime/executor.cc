#include "core/runtime/executor.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <sstream>

#include "common/metrics.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "common/telemetry_names.h"
#include "core/operators/custom_ops.h"
#include "core/operators/physical_operator.h"

namespace unify::core {
namespace {

/// Rounds of alternative implementations a failing operator tries during
/// plan adjustment.
constexpr int kMaxAdjustments = 2;

}  // namespace

std::string FormatReplan(const ReplanRecord& record) {
  std::ostringstream os;
  os << "@ t=" << FormatDouble(record.elapsed_seconds, 1) << "s: "
     << record.trigger_var << " observed "
     << FormatDouble(record.observed_card, 0) << " vs est "
     << FormatDouble(record.estimated_card, 0) << " (q-err "
     << FormatDouble(record.qerror, 2) << ") -> ";
  if (record.adopted) {
    os << "adopted (" << record.nodes_rechosen
       << " nodes re-lowered, suffix est "
       << FormatDouble(record.old_suffix_cost, 3) << " -> "
       << FormatDouble(record.new_suffix_cost, 3) << ")";
  } else {
    os << "kept plan";
  }
  return os.str();
}

void PlanExecutor::Begin(const PhysicalPlan& plan, ExecutionState& state,
                         Trace* trace, SpanId parent,
                         exec::VirtualLlmPool* shared_pool,
                         double start_seconds) {
  state.plan = plan;
  state.trace = trace;
  state.exec_span =
      std::make_unique<ScopedSpan>(trace, telemetry::kSpanExecute, parent);
  node_stats_.assign(plan.nodes.size(), OpStats{});
  node_executions_.assign(plan.nodes.size(), NodeExecution{});
  fallback_execution_.reset();
  fallback_stats_ = OpStats{};
  state.node_spans.assign(plan.nodes.size(), kNoSpan);
  state.done.assign(plan.nodes.size(), false);
  state.replan_checked.assign(plan.nodes.size(), false);
  const bool shared = shared_pool != nullptr;
  state.base = shared ? start_seconds : 0.0;
  if (!shared) {
    state.local_pool = std::make_unique<exec::VirtualLlmPool>(
        std::max(1, options_.num_servers));
  }
  state.pool = shared ? shared_pool : state.local_pool.get();
  state.scheduler.emplace(state.plan.dag, state.pool, !options_.parallel,
                          state.base);
}

StatusOr<exec::NodeCost> PlanExecutor::RunNode(ExecutionState& state,
                                               int u) {
  const PhysicalNode& node = state.plan.nodes[u];
  Trace* trace = state.trace;
  NodeExecution& record = node_executions_[u];
  ScopedSpan node_span(trace, telemetry::kSpanExecNode,
                       state.exec_span->id());
  state.node_spans[u] = node_span.id();
  MetricAddCounter(telemetry::kMetricExecNodes);
  if (trace != nullptr) {
    node_span.AddAttr("op", node.logical.op_name);
    node_span.AddAttr("impl", PhysicalImplName(node.impl));
    node_span.AddAttr("output_var", node.logical.output_var);
  }
  std::vector<Value> inputs;
  for (const auto& in : node.logical.input_vars) {
    if (in.empty()) continue;
    auto it = state.vars.find(in);
    if (it == state.vars.end()) {
      return Status::FailedPrecondition("missing input variable " + in +
                                        " for " + node.logical.op_name);
    }
    inputs.push_back(it->second);
  }
  for (const Value& in : inputs) {
    record.actual_in_card =
        std::max(record.actual_in_card,
                 static_cast<double>(in.Cardinality()));
  }

  ExecContext ctx = ctx_;  // per-node copy (cheap; pointers only)

  auto output = ExecuteOp(node.logical.op_name, node.impl,
                          node.logical.args, inputs, ctx);

  // Plan adjustment (Section III-C): when an operator fails to produce
  // the expected result, retry with alternative physical
  // implementations instead of restarting the whole plan.
  if (!output.ok()) {
    state.adjusted = true;
    node_span.AddAttr("adjusted", true);
    record.adjusted = true;
    MetricAddCounter(telemetry::kMetricExecAdjustments);
    for (int attempt = 0;
         attempt < kMaxAdjustments && !output.ok(); ++attempt) {
      bool retried = false;
      for (PhysicalImpl alt :
           CandidateImpls(node.logical.op_name, node.logical.args)) {
        if (alt == node.impl) continue;
        if (node.logical.requires_semantics && !ImplSemanticCapable(alt)) {
          continue;
        }
        ++record.retries;
        auto retry = ExecuteOp(node.logical.op_name, alt,
                               node.logical.args, inputs, ctx);
        if (retry.ok()) {
          output = std::move(retry);
          retried = true;
          break;
        }
      }
      if (!retried) break;
    }
  }

  if (!output.ok()) {
    node_span.AddAttr("status", output.status().ToString());
    return output.status();
  }
  if (trace != nullptr) {
    node_span.AddAttr("llm_seconds", output->stats.llm_seconds);
    node_span.AddAttr("llm_calls", output->stats.llm_calls);
    node_span.AddAttr("cpu_seconds", output->stats.cpu_seconds);
    node_span.AddAttr("dollars", output->stats.llm_dollars);
  }
  exec::NodeCost cost;
  cost.cpu_seconds = output->stats.cpu_seconds;
  cost.llm_seconds = output->stats.llm_seconds;
  // Morsels: the first impl's run over a flat document list, laid out as
  // contiguous runs of its whole LLM batches (plan adjustment's retries
  // and custom ops run as one stream).
  const int parallelism = options_.max_intra_op_parallelism;
  const PhysicalOperator* family = FindPhysicalOperator(node.logical.op_name);
  if (parallelism > 1 && !record.adjusted && family != nullptr &&
      family->SupportsPartitioning(node.logical.op_name, node.impl) &&
      !inputs.empty() && inputs[0].is<DocList>() &&
      (ctx.custom_ops == nullptr ||
       ctx.custom_ops->Find(node.logical.op_name) == nullptr)) {
    std::vector<double> morsels =
        GroupBatchSeconds(output->stats.llm_batch_seconds, parallelism);
    if (morsels.size() > 1) {
      MetricAddCounter(telemetry::kMetricExecPartitions,
                       static_cast<double>(morsels.size()));
      node_span.AddAttr("partitions", static_cast<int64_t>(morsels.size()));
      record.partitions = static_cast<int>(morsels.size());
      cost.llm_partitions = std::move(morsels);
      cost.max_parallelism = parallelism;
    }
  }
  node_stats_[u] = std::move(output->stats);
  record.executed = true;
  record.actual_out_card = static_cast<double>(output->value.Cardinality());
  state.done[u] = true;
  if (!node.logical.output_var.empty()) {
    state.vars[node.logical.output_var] = std::move(output->value);
  }
  return cost;
}

std::optional<ReplanRequest> PlanExecutor::Run(ExecutionState& state) {
  if (!state.run_status.ok()) return std::nullopt;
  const size_t n = state.plan.nodes.size();
  exec::ListScheduler& scheduler = *state.scheduler;
  while (true) {
    const int u = scheduler.Next();
    if (u < 0) {
      state.run_status = scheduler.status();
      return std::nullopt;
    }
    StatusOr<exec::NodeCost> cost = RunNode(state, u);
    if (!cost.ok()) {
      state.run_status = cost.status();
      return std::nullopt;
    }
    const double finish = scheduler.Place(u, *cost);

    // Materialization-point trigger: pause when the node's observed
    // cardinality diverges from the optimizer's estimate and un-executed
    // nodes remain that a replan could still improve.
    if (options_.reoptimize && !state.replan_checked[u]) {
      state.replan_checked[u] = true;
      const PhysicalNode& node = state.plan.nodes[u];
      size_t remaining = 0;
      for (bool d : state.done) remaining += d ? 0 : 1;
      if (remaining > 0 &&
          state.replan_yields < options_.max_reoptimizations &&
          !node.logical.output_var.empty()) {
        const double qerr = QError(node.est_out_card,
                                   node_executions_[u].actual_out_card);
        if (qerr >= options_.reoptimize_qerror_threshold) {
          ++state.replan_yields;
          ReplanRequest req;
          req.node = u;
          req.output_var = node.logical.output_var;
          req.observed_card = node_executions_[u].actual_out_card;
          req.estimated_card = node.est_out_card;
          req.qerror = qerr;
          req.elapsed_seconds = finish;
          req.executed = state.done;
          for (size_t i = 0; i < n; ++i) {
            if (!state.done[i]) continue;
            const std::string& var =
                state.plan.nodes[i].logical.output_var;
            if (!var.empty()) {
              req.observed_cards[var] =
                  node_executions_[i].actual_out_card;
            }
          }
          return req;
        }
      }
    }
  }
}

void PlanExecutor::ApplyReplan(ExecutionState& state, ReplanRecord record,
                               const PhysicalPlan* new_plan) {
  // The decision call is charged to the query whether or not the suffix
  // is adopted, and the pause is a barrier: nothing resumes before the
  // planner's verdict lands on the virtual clock.
  state.replan_seconds += record.decision_seconds;
  state.replan_dollars += record.decision_dollars;
  state.replan_calls += 1;
  state.scheduler->SetFloor(record.elapsed_seconds + record.decision_seconds);
  record.adopted = new_plan != nullptr;
  for (size_t i = 0; i < state.plan.nodes.size(); ++i) {
    if (!state.done[i]) record.suffix_nodes.push_back(static_cast<int>(i));
  }
  if (new_plan != nullptr) {
    for (int i : record.suffix_nodes) {
      const PhysicalNode& before = state.plan.nodes[i];
      const PhysicalNode& after = new_plan->nodes[i];
      if (before.impl != after.impl ||
          before.logical.args != after.logical.args) {
        record.relowered_nodes.push_back(i);
      }
    }
    state.plan = *new_plan;
  }
  ScopedSpan replan_span(state.trace, telemetry::kSpanExecReplan,
                         state.exec_span->id());
  if (state.trace != nullptr) {
    replan_span.AddAttr("trigger_node", static_cast<int64_t>(
                                            record.trigger_node));
    replan_span.AddAttr("trigger_var", record.trigger_var);
    replan_span.AddAttr("qerror", record.qerror);
    replan_span.AddAttr("adopted", record.adopted);
    replan_span.AddAttr("nodes_rechosen",
                        static_cast<int64_t>(record.nodes_rechosen));
    replan_span.AddAttr("decision_seconds", record.decision_seconds);
    replan_span.AddAttr("old_suffix_cost", record.old_suffix_cost);
    replan_span.AddAttr("new_suffix_cost", record.new_suffix_cost);
  }
  state.replans.push_back(std::move(record));
}

ExecutionResult PlanExecutor::Finish(ExecutionState& state,
                                     bool graceful_degradation) {
  ExecutionResult result;
  ScopedSpan& exec_span = *state.exec_span;
  Trace* trace = state.trace;
  for (size_t i = 0; i < node_stats_.size(); ++i) {
    const OpStats& stats = node_stats_[i];
    result.llm_seconds_total += stats.llm_seconds;
    result.llm_dollars_total += stats.llm_dollars;
    result.llm_calls += stats.llm_calls;
  }
  // Replan decision calls are execution-side spend: their virtual time is
  // already modeled by the resume barrier, their dollars/calls land here.
  result.llm_seconds_total += state.replan_seconds;
  result.llm_dollars_total += state.replan_dollars;
  result.llm_calls += state.replan_calls;

  // Report times relative to the query's own ready time, so standalone
  // and served queries read the same way; contention shows up as a
  // longer makespan and per-node queue waits.
  const exec::ListScheduler& scheduler = *state.scheduler;
  const std::vector<double>& start = scheduler.start();
  const std::vector<double>& finish = scheduler.finish();
  result.virtual_seconds = scheduler.makespan() - state.base;
  // Annotate each node span with its virtual interval on the server
  // pool, plus the time it spent waiting for a free server.
  for (size_t i = 0; i < state.plan.nodes.size(); ++i) {
    const double busy =
        node_stats_[i].cpu_seconds + node_stats_[i].llm_seconds;
    const double queue_wait = std::max(
        0.0, finish[i] - start[i] - busy);
    MetricObserve(telemetry::kMetricExecQueueWait, queue_wait);
    node_executions_[i].virt_start = start[i] - state.base;
    node_executions_[i].virt_finish = finish[i] - state.base;
    node_executions_[i].queue_wait_seconds = queue_wait;
    if (trace != nullptr && state.node_spans[i] != kNoSpan) {
      trace->SetVirtualInterval(state.node_spans[i],
                                start[i] - state.base,
                                finish[i] - state.base);
      trace->AddAttr(state.node_spans[i], "queue_wait_seconds", queue_wait);
    }
  }
  // Fraction of the pool's capacity the plan actually kept busy.
  if (result.virtual_seconds > 0) {
    const double capacity =
        static_cast<double>(state.pool->num_servers()) *
        result.virtual_seconds;
    const double occupancy = result.llm_seconds_total / capacity;
    MetricSetGauge(telemetry::kMetricExecPoolOccupancy, occupancy);
    exec_span.AddAttr("pool_occupancy", occupancy);
  }
  exec_span.SetVirtualInterval(0, result.virtual_seconds);
  // Execution timeline for observability.
  std::string timeline;
  char line[256];
  for (size_t i = 0; i < state.plan.nodes.size(); ++i) {
    std::snprintf(line, sizeof(line),
                  "t=%8.2fs..%8.2fs  %-10s <%s> -> %s  (llm %.2fs, %lld "
                  "calls)\n",
                  start[i] - state.base,
                  finish[i] - state.base,
                  state.plan.nodes[i].logical.op_name.c_str(),
                  PhysicalImplName(state.plan.nodes[i].impl),
                  state.plan.nodes[i].logical.output_var.c_str(),
                  node_stats_[i].llm_seconds,
                  static_cast<long long>(node_stats_[i].llm_calls));
    timeline += line;
  }
  for (size_t r = 0; r < state.replans.size(); ++r) {
    const ReplanRecord& rec = state.replans[r];
    std::snprintf(line, sizeof(line),
                  "t=%8.2fs  -- replan #%zu after %s: observed %.0f vs "
                  "est %.0f (q-err %.1f) -> %s\n",
                  rec.elapsed_seconds - state.base, r + 1,
                  rec.trigger_var.c_str(), rec.observed_card,
                  rec.estimated_card, rec.qerror,
                  rec.adopted ? "suffix re-lowered" : "kept plan");
    timeline += line;
  }
  result.timeline = std::move(timeline);

  result.adjusted = state.adjusted;
  auto finalize = [&]() {
    if (trace == nullptr) return;
    exec_span.AddAttr("virtual_seconds", result.virtual_seconds);
    exec_span.AddAttr("llm_seconds", result.llm_seconds_total);
    exec_span.AddAttr("llm_calls", result.llm_calls);
    exec_span.AddAttr("dollars", result.llm_dollars_total);
    exec_span.AddAttr("adjusted", result.adjusted);
    if (!result.status.ok()) {
      exec_span.AddAttr("status", result.status.ToString());
    }
  };
  if (!state.run_status.ok()) {
    // Plan adjustment, stage 2 (Section III-C): an operator failed with
    // every implementation (e.g. a zero-denominator ratio, an empty
    // aggregate). Instead of restarting from scratch, replan the query
    // through the Section V-D fallback strategies.
    if (ctx_.llm != nullptr && !state.plan.query_text.empty()) {
      ScopedSpan fallback_span(trace, telemetry::kSpanExecFallback,
                               exec_span.id());
      fallback_span.AddAttr("failed_status", state.run_status.ToString());
      llm::LlmCall choose;
      choose.type = llm::PromptType::kChooseFallbackStrategy;
      choose.tier = llm::ModelTier::kPlanner;
      choose.fields["query"] = state.plan.query_text;
      llm::LlmResult strategy = ctx_.llm->Call(choose);
      result.llm_seconds_total += strategy.seconds;
      result.llm_dollars_total += strategy.dollars;
      result.llm_calls += 1;
      // Status contract: a failed strategy choice must not be mistaken for
      // a completion. Fall back to the default RAG strategy explicitly
      // (the call's time/dollars are already charged above).
      const std::string chosen =
          strategy.status.ok() ? strategy.Get("strategy", "rag") : "rag";
      if (!strategy.status.ok()) {
        fallback_span.AddAttr("choose_status", strategy.status.ToString());
      }

      OpArgs args{{"query", state.plan.query_text},
                  {"strategy", chosen},
                  {"retrieve_k", "100"}};
      fallback_span.AddAttr("strategy", chosen);
      DocList all;
      all.reserve(ctx_.corpus->size());
      for (uint64_t id = 0; id < ctx_.corpus->size(); ++id) {
        all.push_back(id);
      }
      ExecContext ctx = ctx_;
      auto fallback = ExecuteOp("Generate", PhysicalImpl::kLlmGenerate,
                                args, {Value::Docs(std::move(all))}, ctx);
      if (fallback.ok()) {
        result.llm_seconds_total += fallback->stats.llm_seconds;
        result.llm_dollars_total += fallback->stats.llm_dollars;
        result.llm_calls += fallback->stats.llm_calls;
        // The fallback generation is one more stream on the server pool.
        const double fb_ready = state.base + result.virtual_seconds +
                                fallback->stats.cpu_seconds;
        result.virtual_seconds =
            state.pool->ScheduleStream(fb_ready,
                                       fallback->stats.llm_seconds) -
            state.base;
        // A synthetic execution record for the fallback generation — it
        // has no plan node, but EXPLAIN ANALYZE should still show what
        // actually produced the answer (docs/replanning.md).
        fallback_stats_ = fallback->stats;
        fallback_stats_.llm_seconds += strategy.seconds;
        fallback_stats_.llm_dollars += strategy.dollars;
        fallback_stats_.llm_calls += 1;
        NodeExecution fb;
        fb.executed = true;
        fb.adjusted = true;
        fb.actual_in_card = static_cast<double>(ctx_.corpus->size());
        fb.actual_out_card =
            static_cast<double>(fallback->value.Cardinality());
        fb.virt_start = fb_ready - state.base;
        fb.virt_finish = result.virtual_seconds;
        fb.queue_wait_seconds =
            std::max(0.0, fb.virt_finish - fb.virt_start -
                              fallback->stats.llm_seconds);
        fallback_execution_ = fb;
        result.answer = fallback->value.ToAnswer();
        result.adjusted = true;
        finalize();
        return result;
      }
    }
    // Graceful degradation, the last line of defense: a *transient* LLM
    // failure that survived retries, plan adjustment AND the fallback
    // replan becomes a degraded (partial/empty) answer instead of a
    // failed query, when the caller opted in.
    if (graceful_degradation &&
        llm::IsTransientLlmFailure(state.run_status)) {
      result.degraded = true;
      result.degraded_detail =
          "graceful degradation absorbed: " + state.run_status.ToString();
      result.answer = corpus::Answer::None();
      exec_span.AddAttr("degraded", true);
      exec_span.AddAttr("degraded_detail", result.degraded_detail);
      finalize();
      return result;
    }
    result.status = state.run_status;
    result.answer = corpus::Answer::None();
    finalize();
    return result;
  }
  auto it = state.vars.find(state.plan.answer_var);
  if (it == state.vars.end()) {
    result.status = Status::NotFound("answer variable " +
                                     state.plan.answer_var + " not bound");
    result.answer = corpus::Answer::None();
    finalize();
    return result;
  }
  result.answer = it->second.ToAnswer();
  finalize();
  return result;
}

}  // namespace unify::core
