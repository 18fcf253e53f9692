#include "core/baselines/manual.h"

#include <map>

#include "common/logging.h"
#include "core/logical/logical_plan.h"
#include "core/physical/optimizer.h"
#include "core/runtime/executor.h"
#include "nlq/parse.h"
#include "nlq/reduction.h"

namespace unify::core {

ManualBaseline::ManualBaseline(ExecContext ctx,
                               const CardinalityEstimator* estimator,
                               const CostModel* cost_model, Options options)
    : ctx_(ctx),
      estimator_(estimator),
      cost_model_(cost_model != nullptr ? cost_model : &own_cost_model_),
      options_(options) {}

MethodResult ManualBaseline::Run(const std::string& query) {
  MethodResult result;
  result.plan_seconds = options_.human_seconds;

  // The expert understands the query perfectly and writes the canonical
  // decomposition by hand.
  auto parsed = nlq::Parse(query);
  if (!parsed.ok()) {
    result.status = parsed.status();
    return result;
  }
  LogicalPlan plan;
  plan.query_text = query;
  nlq::QueryAst ast = *parsed;
  std::map<std::string, int> producer;  // var -> node id
  int var_counter = 0;
  int guard = 0;
  while (!nlq::IsFullyReduced(ast) && ++guard < 40) {
    auto steps = nlq::ApplicableSteps(ast);
    if (steps.empty()) {
      result.status = Status::Internal("manual decomposition stuck");
      return result;
    }
    const nlq::ReductionStep& step = steps.front();
    LogicalNode node;
    node.op_name = step.op_name;
    node.args = step.args;
    for (const auto& in : step.input_vars) {
      node.input_vars.push_back(in.empty() ? kDocsVar : in);
    }
    std::string out_var(1, 'V');
    out_var += std::to_string(++var_counter);
    node.output_var = std::move(out_var);
    node.output_desc = step.output_desc;
    node.requires_semantics = step.requires_semantics;
    int id = plan.dag.AddNode();
    plan.nodes.push_back(node);
    // The human wires dependencies correctly by construction.
    for (const auto& in : node.input_vars) {
      auto it = producer.find(in);
      if (it != producer.end()) {
        UNIFY_CHECK_OK(plan.dag.AddEdge(it->second, id));
      }
    }
    producer[node.output_var] = id;
    ast = nlq::ApplyStep(ast, step, node.output_var);
  }
  plan.answer_var = ast.final_var.empty() && !plan.nodes.empty()
                        ? plan.nodes.back().output_var
                        : ast.final_var;

  // Expert physical choices: ground-truth cardinalities, cost-based.
  OptimizerOptions oopts;
  oopts.mode = PhysicalMode::kGroundTruthCards;
  oopts.corpus_size = ctx_.corpus->size();
  oopts.num_categories = ctx_.corpus->knowledge().categories().size();
  oopts.num_servers = options_.num_servers;
  oopts.seed = options_.seed;
  PhysicalOptimizer optimizer(cost_model_, estimator_, oopts);
  auto physical = optimizer.Optimize(plan);
  if (!physical.ok()) {
    result.status = physical.status();
    return result;
  }

  PlanExecutor::Options eopts;
  eopts.num_servers = options_.num_servers;
  PlanExecutor executor(ctx_, eopts);
  PlanExecutor::ExecutionState state;
  executor.Begin(*physical, state);
  executor.Run(state);
  ExecutionResult exec = executor.Finish(state);
  result.exec_seconds = exec.virtual_seconds;
  result.answer = exec.answer;
  result.status = exec.status;
  result.total_seconds = result.plan_seconds + result.exec_seconds;
  return result;
}

}  // namespace unify::core
