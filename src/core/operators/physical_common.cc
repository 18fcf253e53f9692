#include "core/operators/physical_common.h"

#include <algorithm>
#include <unordered_map>

#include "common/stats.h"
#include "common/string_util.h"
#include "text/field_extractor.h"
#include "text/keyword_matcher.h"
#include "text/tokenizer.h"

namespace unify::core::internal {

Status WrongInput(const std::string& op, const char* expect) {
  return Status::InvalidArgument(op + ": expected " + expect + " input");
}

int64_t ArgInt(const OpArgs& args, const char* key, int64_t dflt) {
  auto it = args.find(key);
  if (it == args.end()) return dflt;
  return ParseInt64(it->second).value_or(dflt);
}

std::string ArgStr(const OpArgs& args, const char* key,
                   const std::string& dflt) {
  auto it = args.find(key);
  return it == args.end() ? dflt : it->second;
}

StatusOr<Value> BroadcastDocs(
    const std::string& op, const Value& input,
    const std::function<StatusOr<DocList>(const DocList&)>& fn) {
  if (input.is<DocList>()) {
    UNIFY_ASSIGN_OR_RETURN(DocList out, fn(input.get<DocList>()));
    return Value(Value::Rep(std::move(out)));
  }
  if (input.is<GroupedDocs>()) {
    GroupedDocs out;
    for (const auto& [label, docs] : input.get<GroupedDocs>().groups) {
      UNIFY_ASSIGN_OR_RETURN(DocList filtered, fn(docs));
      out.groups.emplace_back(label, std::move(filtered));
    }
    return Value(Value::Rep(std::move(out)));
  }
  return WrongInput(op, "documents");
}

std::vector<DocList> BatchDocs(const DocList& docs, const ExecContext& ctx) {
  std::vector<DocList> batches;
  size_t batch_size = std::max(1, ctx.llm_batch_size);
  for (size_t i = 0; i < docs.size(); i += batch_size) {
    DocList batch(docs.begin() + i,
                  docs.begin() + std::min(docs.size(), i + batch_size));
    batches.push_back(std::move(batch));
  }
  return batches;
}

bool SurfaceConditionMatch(const corpus::Document& doc, const OpArgs& args) {
  auto kind = args.find("kind");
  if (kind != args.end() && kind->second == "numeric") {
    auto attr = args.find("attribute");
    if (attr == args.end()) return false;
    auto extracted = RegexExtractValue(doc, attr->second);
    if (!extracted.has_value()) return false;
    int64_t v = static_cast<int64_t>(*extracted);
    auto get = [&](const char* key) -> int64_t {
      auto it = args.find(key);
      if (it == args.end()) return 0;
      return ParseInt64(it->second).value_or(0);
    };
    int64_t value = get("value");
    int64_t value2 = get("value2");
    auto cmp_it = args.find("cmp");
    const std::string cmp = cmp_it == args.end() ? "gt" : cmp_it->second;
    if (cmp == "gt") return v > value;
    if (cmp == "ge") return v >= value;
    if (cmp == "lt") return v < value;
    if (cmp == "le") return v <= value;
    if (cmp == "eq") return v == value;
    if (cmp == "between") return v >= value && v <= value2;
    return false;
  }
  // Semantic phrase via surface keywords.
  auto phrase = args.find("phrase");
  std::string text_phrase =
      phrase != args.end() ? phrase->second
                           : (args.count("condition") ? args.at("condition")
                                                      : "");
  return text::KeywordMatcher(text_phrase).MatchesAny(doc.text);
}

StatusOr<DocList> LlmFilterDocs(const DocList& docs, const OpArgs& args,
                                ExecContext& ctx, OpStats& stats) {
  DocList kept;
  // The prompt is built once; only the items change per batch.
  llm::LlmCall call;
  call.type = llm::PromptType::kEvalPredicate;
  call.tier = llm::ModelTier::kWorker;
  for (const char* key :
       {"kind", "phrase", "attribute", "cmp", "value", "value2",
        "condition"}) {
    auto it = args.find(key);
    if (it != args.end()) call.fields[key] = it->second;
  }
  for (const auto& batch : BatchDocs(docs, ctx)) {
    call.items.clear();
    for (uint64_t id : batch) call.items.push_back(std::to_string(id));
    llm::LlmResult result = ctx.llm->Call(call);
    if (!result.status.ok()) return result.status;
    if (result.items.size() != batch.size()) {
      return Status::Internal("LLM filter returned wrong item count");
    }
    stats.llm_seconds += result.seconds;
    stats.llm_dollars += result.dollars;
    stats.llm_calls += 1;
    stats.llm_batch_seconds.push_back(result.seconds);
    for (size_t i = 0; i < batch.size(); ++i) {
      if (result.items[i] == "yes") kept.push_back(batch[i]);
    }
  }
  return kept;
}

std::string RuleClassify(const corpus::Document& doc,
                         const corpus::DatasetProfile& profile) {
  // Tokenize the document once; keyword lookups are then O(1) per keyword
  // instead of re-scanning the text per (category, keyword) pair.
  std::unordered_map<std::string, size_t> token_counts;
  for (const auto& tok : text::StemmedContentTokens(doc.text)) {
    ++token_counts[tok];
  }
  auto count = [&](const std::string& word) -> size_t {
    auto it = token_counts.find(text::Stem(word));
    return it == token_counts.end() ? 0 : it->second;
  };
  size_t best_hits = 0;
  std::string best;
  for (const auto& cat : profile.categories) {
    size_t hits = 0;
    for (const auto& kw : cat.keywords) hits += count(kw);
    // Category-name tokens count too ("machine learning" in text).
    bool name_present = true;
    for (const auto& tok : text::StemmedContentTokens(cat.name)) {
      if (token_counts.count(tok) == 0) name_present = false;
    }
    if (name_present) hits += 1;
    if (hits > best_hits) {
      best_hits = hits;
      best = cat.name;
    }
  }
  return best;
}

StatusOr<std::vector<std::string>> LlmClassifyDocs(const DocList& docs,
                                                   const std::string& by,
                                                   ExecContext& ctx,
                                                   OpStats& stats) {
  std::vector<std::string> labels;
  labels.reserve(docs.size());
  llm::LlmCall call;
  call.type = llm::PromptType::kClassifyDoc;
  call.tier = llm::ModelTier::kWorker;
  call.fields["by"] = by;
  for (const auto& batch : BatchDocs(docs, ctx)) {
    call.items.clear();
    for (uint64_t id : batch) call.items.push_back(std::to_string(id));
    llm::LlmResult result = ctx.llm->Call(call);
    if (!result.status.ok()) return result.status;
    if (result.items.size() != batch.size()) {
      return Status::Internal("LLM classify returned wrong item count");
    }
    stats.llm_seconds += result.seconds;
    stats.llm_dollars += result.dollars;
    stats.llm_calls += 1;
    stats.llm_batch_seconds.push_back(result.seconds);
    for (auto& label : result.items) labels.push_back(std::move(label));
  }
  return labels;
}

std::optional<double> RegexExtractValue(const corpus::Document& doc,
                                        const std::string& attribute) {
  auto v = text::FieldExtractor::ExtractInt(doc.text, attribute);
  if (!v.has_value()) return std::nullopt;
  return static_cast<double>(*v);
}

StatusOr<std::vector<double>> LlmExtractValues(const DocList& docs,
                                               const std::string& attribute,
                                               ExecContext& ctx,
                                               OpStats& stats) {
  std::vector<double> values;
  values.reserve(docs.size());
  llm::LlmCall call;
  call.type = llm::PromptType::kExtractValue;
  call.tier = llm::ModelTier::kWorker;
  call.fields["attribute"] = attribute;
  for (const auto& batch : BatchDocs(docs, ctx)) {
    call.items.clear();
    for (uint64_t id : batch) call.items.push_back(std::to_string(id));
    llm::LlmResult result = ctx.llm->Call(call);
    if (!result.status.ok()) return result.status;
    if (result.items.size() != batch.size()) {
      return Status::Internal("LLM extract returned wrong item count");
    }
    stats.llm_seconds += result.seconds;
    stats.llm_dollars += result.dollars;
    stats.llm_calls += 1;
    stats.llm_batch_seconds.push_back(result.seconds);
    for (const auto& item : result.items) {
      values.push_back(ParseDouble(item).value_or(0.0));
    }
  }
  return values;
}

StatusOr<double> AggregateValues(const std::vector<double>& values,
                                 const std::string& op_name,
                                 const OpArgs& args) {
  if (values.empty()) {
    return Status::FailedPrecondition("aggregate over empty input");
  }
  SampleStats stats;
  stats.AddAll(values);
  if (op_name == "Sum") return stats.sum();
  if (op_name == "Average") return stats.Mean();
  if (op_name == "Min") return stats.Min();
  if (op_name == "Max") return stats.Max();
  if (op_name == "Median") return stats.Median();
  if (op_name == "Percentile") {
    int p = 90;
    if (auto it = args.find("p"); it != args.end()) {
      p = static_cast<int>(ParseInt64(it->second).value_or(90));
    }
    return stats.Quantile(p / 100.0);
  }
  return Status::InvalidArgument("unknown aggregate: " + op_name);
}

}  // namespace unify::core::internal
