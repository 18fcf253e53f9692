// Reproduction digest: pins the paper workload bit for bit.
//
// Runs every method of bench_overall (Figure 4) plus the Unify ablations
// and serving configurations below on all four dataset profiles at smoke
// scale, and reduces each (config, dataset, query) to one line holding a
// 64-bit hash of everything the reproduction reports for it: status code,
// answer, plan/exec virtual seconds and dollars (as hex floats, so the
// comparison is exact), the chosen physical implementation per plan node,
// the execution timeline and the replan count. The lines must equal the
// checked-in tests/data/repro_digest.txt byte for byte.
//
// On a mismatch the test writes the actual digest next to the test binary
// (repro_digest.actual.txt) and prints every differing line. A change
// that is meant to move the numbers replaces the checked-in file with
// that output and says why in the same commit.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/baselines/exhaust.h"
#include "core/baselines/llm_plan.h"
#include "core/baselines/manual.h"
#include "core/baselines/rag.h"
#include "core/baselines/retrieval.h"
#include "core/baselines/sample.h"
#include "core/runtime/service.h"
#include "core/runtime/unify.h"
#include "corpus/dataset_profile.h"
#include "corpus/workload.h"
#include "llm/sim_llm.h"

namespace unify::core {
namespace {

constexpr size_t kMaxDocs = 300;
constexpr int kQueriesPerTemplate = 1;
constexpr uint64_t kSeed = 2024;  // bench_util.h's MakeDataset seed

std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// Everything one method reports for one query, serialized for hashing.
struct Outcome {
  Status status = Status::OK();
  corpus::Answer answer;
  double plan_seconds = 0;
  double exec_seconds = 0;
  double exec_dollars = 0;
  std::vector<std::string> impls;
  std::string timeline;
  size_t replans = 0;

  uint64_t Digest() const {
    std::ostringstream os;
    os << static_cast<int>(status.code()) << '\n'
       << answer.ToString() << '\n'
       << Hex(plan_seconds) << ' ' << Hex(exec_seconds) << ' '
       << Hex(exec_dollars) << '\n';
    for (const std::string& impl : impls) os << impl << ';';
    os << '\n' << timeline << '\n' << replans;
    return StableHash64(os.str());
  }
};

/// Forwards to the simulated LLM and sums the dollars of the calls made
/// since the last Take(), so a baseline's spend is exact however many
/// calls ran before it (a difference of cumulative usage would round
/// differently as the history grows).
class DollarMeter : public llm::LlmClient {
 public:
  explicit DollarMeter(llm::LlmClient* base) : base_(base) {}
  llm::LlmResult Call(const llm::LlmCall& call) override {
    llm::LlmResult result = base_->Call(call);
    dollars_ += result.dollars;
    return result;
  }
  llm::LlmUsage usage() const override { return base_->usage(); }
  void ResetUsage() override { base_->ResetUsage(); }
  double Take() {
    const double dollars = dollars_;
    dollars_ = 0;
    return dollars;
  }

 private:
  llm::LlmClient* base_;
  double dollars_ = 0;
};

Outcome FromMethod(const MethodResult& r, double dollars) {
  Outcome o;
  o.status = r.status;
  o.answer = r.answer;
  o.plan_seconds = r.plan_seconds;
  o.exec_seconds = r.exec_seconds;
  o.exec_dollars = dollars;
  return o;
}

Outcome FromQuery(const QueryResult& r) {
  Outcome o;
  o.status = r.status;
  o.answer = r.answer;
  o.plan_seconds = r.plan_seconds;
  o.exec_seconds = r.exec_seconds;
  o.exec_dollars = r.exec_dollars;
  for (const PlanNodeAnalysis& n : r.plan_analysis) {
    o.impls.push_back(n.op_name + "<" + n.impl + ">");
  }
  o.timeline = r.timeline;
  o.replans = r.replans.size();
  return o;
}

/// The Unify configurations: each is a separate system over the same
/// corpus and simulated LLM.
struct UnifyConfig {
  std::string name;
  std::function<void(UnifyOptions&)> tweak;
};

std::vector<UnifyConfig> UnifyConfigs() {
  return {
      {"Unify", [](UnifyOptions&) {}},
      {"Unify-noLO", [](UnifyOptions& o) { o.exec.parallel = false; }},
      {"Unify-p4",
       [](UnifyOptions& o) { o.exec.max_intra_op_parallelism = 4; }},
      {"Unify-cache", [](UnifyOptions& o) { o.cache.enabled = true; }},
      {"Unify-reopt",
       [](UnifyOptions& o) {
         o.card_est_scale = 12;
         o.exec.reoptimize = true;
       }},
      {"Unify-faults",
       [](UnifyOptions& o) {
         o.faults.rates.timeout = 0.02;
         o.faults.rates.rate_limit = 0.02;
         o.faults.rates.malformed = 0.02;
         o.graceful_degradation = true;
       }},
      // The same faults with retries off and no degradation: operators
      // fail, so plan adjustment, the Section V-D fallback and failed
      // queries are pinned too.
      {"Unify-fragile",
       [](UnifyOptions& o) {
         o.faults.rates.timeout = 0.02;
         o.faults.rates.rate_limit = 0.02;
         o.faults.rates.malformed = 0.02;
         o.resilience.retry.max_attempts = 1;
       }},
  };
}

/// Appends one digest line per (config, query) of `profile` to `out`.
void DigestDataset(corpus::DatasetProfile profile, std::ostream& out) {
  if (profile.doc_count > kMaxDocs) profile.doc_count = kMaxDocs;
  const corpus::Corpus corpus = corpus::GenerateCorpus(profile, kSeed);
  llm::SimulatedLlm llm(&corpus, llm::SimLlmOptions{});
  corpus::WorkloadOptions wopts;
  wopts.per_template = kQueriesPerTemplate;
  wopts.seed = kSeed ^ 0x77;
  const std::vector<corpus::QueryCase> workload =
      corpus::GenerateWorkload(corpus, wopts);

  std::vector<UnifyConfig> configs = UnifyConfigs();
  std::vector<std::unique_ptr<UnifySystem>> systems;
  for (const UnifyConfig& config : configs) {
    UnifyOptions options;
    config.tweak(options);
    systems.push_back(std::make_unique<UnifySystem>(&corpus, &llm, options));
    ASSERT_TRUE(systems.back()->Setup().ok()) << config.name;
  }
  // The served configuration: a 1-worker service answering synchronously.
  UnifySystem served_system(&corpus, &llm, UnifyOptions{});
  ASSERT_TRUE(served_system.Setup().ok());
  UnifyService::Options sopts;
  sopts.num_workers = 1;
  UnifyService service(&served_system, sopts);

  // The baselines as bench_overall wires them, metered.
  DollarMeter meter(&llm);
  const UnifySystem& system = *systems.front();
  SentenceRetriever retriever(&corpus, &system.doc_embedder());
  ASSERT_TRUE(retriever.Build().ok());
  ExecContext ctx;
  ctx.corpus = &corpus;
  ctx.llm = &meter;
  ctx.doc_embedder = &system.doc_embedder();
  ctx.doc_index = &system.doc_index();
  RagBaseline rag(&retriever, &meter, {});
  RecurRagBaseline recur_rag(&retriever, &meter, {});
  LlmPlanBaseline llm_plan(&retriever, ctx, {});
  SampleBaseline sample(&corpus, &meter, {});
  ExhaustBaseline exhaust(ctx, ExhaustBaseline::Options{});
  ManualBaseline manual(ctx, &system.estimator(), &system.cost_model(),
                        ManualBaseline::Options{});
  std::vector<std::pair<std::string, Method*>> baselines = {
      {"RAG", &rag},         {"RecurRAG", &recur_rag},
      {"LLMPlan", &llm_plan}, {"Sample", &sample},
      {"Exhaust", &exhaust}, {"Manual", &manual}};

  auto emit = [&](const std::string& config, size_t q, const Outcome& o) {
    char line[160];
    std::snprintf(line, sizeof(line), "%s %s q%02zu %016llx\n",
                  config.c_str(), profile.name.c_str(), q,
                  static_cast<unsigned long long>(o.Digest()));
    out << line;
  };
  // Query-major, like bench_overall: Manual reads the default system's
  // cost model, which absorbs feedback from every earlier Unify query.
  for (size_t q = 0; q < workload.size(); ++q) {
    const std::string& text = workload[q].text;
    for (auto& [name, method] : baselines) {
      MethodResult r = method->Run(text);
      emit(name, q, FromMethod(r, meter.Take()));
    }
    for (size_t c = 0; c < configs.size(); ++c) {
      emit(configs[c].name, q, FromQuery(systems[c]->Answer(text)));
    }
    emit("Unify-served", q, FromQuery(service.Answer(text)));
  }
}

std::map<std::string, std::string> KeyedLines(const std::string& text) {
  std::map<std::string, std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const size_t key_end = line.rfind(' ');
    lines[line.substr(0, key_end)] = line;
  }
  return lines;
}

TEST(ReproDigestTest, MatchesCheckedInDigest) {
  std::ostringstream actual;
  for (const corpus::DatasetProfile& profile : corpus::AllProfiles()) {
    DigestDataset(profile, actual);
    if (::testing::Test::HasFatalFailure()) return;
  }

  std::ifstream expected_file(UNIFY_REPRO_DIGEST_FILE);
  EXPECT_TRUE(expected_file.good())
      << "cannot read " << UNIFY_REPRO_DIGEST_FILE;
  std::stringstream expected;
  if (expected_file.good()) expected << expected_file.rdbuf();
  if (expected.str() == actual.str()) return;

  std::ofstream(UNIFY_REPRO_DIGEST_ACTUAL) << actual.str();
  const auto want = KeyedLines(expected.str());
  const auto got = KeyedLines(actual.str());
  std::ostringstream diff;
  size_t differing = 0;
  for (const auto& [key, line] : want) {
    auto it = got.find(key);
    if (it == got.end()) {
      diff << "  missing:  " << line << '\n';
      ++differing;
    } else if (it->second != line) {
      diff << "  expected: " << line << "\n  actual:   " << it->second
           << '\n';
      ++differing;
    }
  }
  for (const auto& [key, line] : got) {
    if (want.count(key) == 0) {
      diff << "  extra:    " << line << '\n';
      ++differing;
    }
  }
  ADD_FAILURE() << differing << " digest line(s) differ from "
                << UNIFY_REPRO_DIGEST_FILE << "; actual digest written to "
                << UNIFY_REPRO_DIGEST_ACTUAL << "\n"
                << diff.str();
}

}  // namespace
}  // namespace unify::core
