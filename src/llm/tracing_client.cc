#include "llm/tracing_client.h"

#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/telemetry_names.h"

namespace unify::llm {

const char* PromptTypeName(PromptType type) {
  switch (type) {
    case PromptType::kSemanticParse:
      return "semantic_parse";
    case PromptType::kRerankOperators:
      return "rerank_operators";
    case PromptType::kReduceQuery:
      return "reduce_query";
    case PromptType::kSimpleQuestion:
      return "simple_question";
    case PromptType::kDependencyCheck:
      return "dependency_check";
    case PromptType::kEvalPredicate:
      return "eval_predicate";
    case PromptType::kExtractValue:
      return "extract_value";
    case PromptType::kClassifyDoc:
      return "classify_doc";
    case PromptType::kSemanticAggregate:
      return "semantic_aggregate";
    case PromptType::kGenerateAnswer:
      return "generate_answer";
    case PromptType::kChooseFallbackStrategy:
      return "choose_fallback_strategy";
    case PromptType::kGenerateCode:
      return "generate_code";
    case PromptType::kReplanDecision:
      return "replan_decision";
    case PromptType::kPlanOneShot:
      return "plan_one_shot";
    case PromptType::kDecompose:
      return "decompose";
    case PromptType::kSelectAnswer:
      return "select_answer";
  }
  return "unknown";
}

namespace {

/// The five per-type counter names of one PromptType.
struct TypeMetricNames {
  std::string calls, in_tokens, out_tokens, seconds, dollars;
};

/// Per-type metric names, built once and indexed by PromptType.
const std::vector<TypeMetricNames>& MetricNamesByType() {
  static const std::vector<TypeMetricNames> names = [] {
    std::vector<TypeMetricNames> table;
    for (int t = 0; t <= static_cast<int>(PromptType::kSelectAnswer); ++t) {
      const std::string suffix =
          std::string(".") + PromptTypeName(static_cast<PromptType>(t));
      table.push_back({telemetry::kMetricLlmCalls + suffix,
                       telemetry::kMetricLlmInTokens + suffix,
                       telemetry::kMetricLlmOutTokens + suffix,
                       telemetry::kMetricLlmSeconds + suffix,
                       telemetry::kMetricLlmDollars + suffix});
    }
    return table;
  }();
  return names;
}

}  // namespace

LlmResult TracingLlmClient::Call(const LlmCall& call) {
  LlmResult result = base_->Call(call);
  const TypeMetricNames& names =
      MetricNamesByType()[static_cast<size_t>(call.type)];
  MetricAddCounter(names.calls);
  MetricAddCounter(names.in_tokens, static_cast<double>(result.in_tokens));
  MetricAddCounter(names.out_tokens, static_cast<double>(result.out_tokens));
  MetricAddCounter(names.seconds, result.seconds);
  MetricAddCounter(names.dollars, result.dollars);
  MetricObserve(telemetry::kMetricLlmCallSeconds, result.seconds);
  return result;
}

}  // namespace unify::llm
