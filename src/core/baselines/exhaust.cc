#include "core/baselines/exhaust.h"

#include "core/physical/optimizer.h"
#include "core/runtime/executor.h"

namespace unify::core {

ExhaustBaseline::ExhaustBaseline(ExecContext ctx, Options options)
    : ctx_(ctx), options_(options) {
  registry_ = OperatorRegistry::Default();
  matcher_ = std::make_unique<OperatorMatcher>(&registry_, 48,
                                               options_.seed ^ 0x5151);
}

MethodResult ExhaustBaseline::Run(const std::string& query) {
  MethodResult result;

  // Exhaustive logical search: τ = 1, many candidate plans, every
  // alternative reduction explored.
  PlanGenerator::Options gopts;
  gopts.n_c = options_.max_plans;
  gopts.tau = 1.0;
  gopts.max_variants = 4;
  gopts.max_llm_calls = options_.max_llm_calls;
  PlanGenerator generator(&registry_, matcher_.get(), ctx_.llm, gopts);
  auto generated = generator.Generate(query);
  if (!generated.ok()) {
    result.status = generated.status();
    return result;
  }
  result.plan_seconds += generated->planning_seconds;

  // Execute *every* candidate, unoptimized (random valid implementations,
  // no ordering, no cost model), one plan after another.
  OptimizerOptions oopts;
  oopts.mode = PhysicalMode::kRule;
  oopts.corpus_size = ctx_.corpus->size();
  oopts.num_categories = ctx_.corpus->knowledge().categories().size();
  oopts.num_servers = options_.num_servers;
  oopts.seed = options_.seed;

  // "All possible execution plans": every logical candidate under several
  // physical configurations, each fully executed.
  std::vector<corpus::Answer> answers;
  for (const auto& lp : generated->plans) {
    for (int variant = 0; variant < options_.physical_variants; ++variant) {
      OptimizerOptions vopts = oopts;
      vopts.seed = options_.seed + 0x9e37 * static_cast<uint64_t>(variant);
      PhysicalOptimizer optimizer(&cost_model_, nullptr, vopts);
      auto physical = optimizer.Optimize(lp);
      if (!physical.ok()) continue;
      PlanExecutor::Options eopts;
      eopts.num_servers = options_.num_servers;
      PlanExecutor executor(ctx_, eopts);
      PlanExecutor::ExecutionState state;
      executor.Begin(*physical, state);
      executor.Run(state);
      ExecutionResult exec = executor.Finish(state);
      result.exec_seconds += exec.virtual_seconds;  // plans run sequentially
      if (exec.status.ok()) answers.push_back(exec.answer);
    }
  }

  if (answers.empty()) {
    result.status = Status::Internal("Exhaust produced no answers");
    return result;
  }

  // LLM feedback selects the final answer among the candidates.
  llm::LlmCall select;
  select.type = llm::PromptType::kSelectAnswer;
  select.tier = llm::ModelTier::kPlanner;
  for (const auto& a : answers) select.items.push_back(a.ToString());
  llm::LlmResult choice = ctx_.llm->Call(select);
  result.exec_seconds += choice.seconds;
  const std::string chosen = choice.Get("choice");
  result.answer = answers.front();
  for (const auto& a : answers) {
    if (a.ToString() == chosen) {
      result.answer = a;
      break;
    }
  }
  result.total_seconds = result.plan_seconds + result.exec_seconds;
  return result;
}

}  // namespace unify::core
