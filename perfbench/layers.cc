#include "layers.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "core/logical/plan_generator.h"
#include "core/physical/optimizer.h"
#include "core/runtime/executor.h"
#include "index/hnsw_index.h"
#include "index/linear_index.h"
#include "llm/tracing_client.h"

namespace unify::perfbench {
namespace {

constexpr size_t kSearchK = 10;
/// Enough searches that the per-search mean is steady at ~100 µs each.
constexpr size_t kMinSearches = 2000;

// The HNSW parameters UnifySystem::Setup() indexes documents with. The
// rebuilt index must reproduce the live EdgeCount(), so drift here fails
// the run instead of silently measuring a different index.
index::HnswIndex::Options LiveIndexOptions(const core::UnifyOptions& o) {
  index::HnswIndex::Options h;
  h.M = 16;
  h.ef_construction = 120;
  h.ef_search = 96;
  h.seed = o.seed ^ 0x1d8;
  return h;
}

// The optimizer options UnifySystem::Setup() derives from UnifyOptions.
// The plan replay must reproduce Answer()'s exec virtual seconds, so
// drift here fails the run.
core::OptimizerOptions LiveOptimizerOptions(const core::UnifyOptions& o,
                                            const corpus::Corpus& corpus) {
  core::OptimizerOptions oopts;
  oopts.mode = o.physical_mode;
  oopts.objective = o.objective;
  oopts.reuse_sce_across_queries = o.reuse_sce_across_queries;
  oopts.corpus_size = corpus.size();
  oopts.num_categories = corpus.knowledge().categories().size();
  oopts.num_servers = o.exec.num_servers;
  oopts.max_intra_op_parallelism =
      std::max(1, o.exec.max_intra_op_parallelism);
  oopts.llm_batch_size = o.llm_batch_size;
  oopts.index_candidate_factor = o.index_candidate_factor;
  oopts.card_est_scale = o.card_est_scale;
  oopts.seed = o.seed ^ 0xabcd;
  return oopts;
}

std::string ConditionKey(const core::OpArgs& args) {
  std::ostringstream os;
  for (const auto& [k, v] : args) os << k << '=' << v << ';';
  return os.str();
}

std::string Hex(double v) {
  std::ostringstream os;
  os << std::hexfloat << v;
  return os.str();
}

void ClearCache(const core::UnifySystem& system) {
  if (system.llm_cache() != nullptr) system.llm_cache()->Clear();
}

// Returns the rebuilt index for ReplaySearch's equality check.
std::unique_ptr<index::HnswIndex> ReplayEmbedAndIndex(
    const core::UnifySystem& system, const corpus::Corpus& corpus,
    SpanRecorder* recorder, ReplayCounts* counts) {
  const auto& docs = corpus.docs();
  const auto& live_vecs = system.doc_vecs();
  std::vector<embedding::Vec> vecs(docs.size());
  {
    ScopedBenchSpan span(recorder, "embedding.embed");
    for (size_t i = 0; i < docs.size(); ++i) {
      vecs[i] = system.doc_embedder().Embed(docs[i].text);
    }
    counts->embed_seconds += span.elapsed_ns() * 1e-9;
  }
  counts->docs_embedded += static_cast<int64_t>(docs.size());
  if (vecs != live_vecs) {
    counts->failures.push_back(corpus.name() +
                               ": replayed Embed differs from doc_vecs()");
  }

  auto rebuilt =
      std::make_unique<index::HnswIndex>(LiveIndexOptions(system.options()));
  {
    ScopedBenchSpan span(recorder, "index.build");
    for (size_t i = 0; i < docs.size(); ++i) {
      Status st = rebuilt->Add(docs[i].id, live_vecs[i]);
      if (!st.ok()) counts->failures.push_back("index add: " + st.ToString());
    }
    counts->index_build_seconds += span.elapsed_ns() * 1e-9;
  }
  counts->index_adds += static_cast<int64_t>(docs.size());
  counts->index_edges += static_cast<int64_t>(rebuilt->EdgeCount());
  if (rebuilt->EdgeCount() != system.doc_index().EdgeCount()) {
    counts->failures.push_back(
        corpus.name() + ": rebuilt index has " +
        std::to_string(rebuilt->EdgeCount()) + " edges, live index " +
        std::to_string(system.doc_index().EdgeCount()));
  }
  return rebuilt;
}

void ReplaySearch(const core::UnifySystem& system, const Dataset& dataset,
                  const index::HnswIndex& rebuilt, SpanRecorder* recorder,
                  ReplayCounts* counts) {
  const corpus::Corpus& corpus = *dataset.corpus;
  index::LinearIndex linear;
  for (size_t i = 0; i < corpus.size(); ++i) {
    (void)linear.Add(corpus.docs()[i].id, system.doc_vecs()[i]);
  }
  const size_t ef = LiveIndexOptions(system.options()).ef_search;
  std::vector<embedding::Vec> queries;
  for (const auto& q : dataset.queries) {
    queries.push_back(system.doc_embedder().Embed(q.text));
  }
  const size_t reps = (kMinSearches + queries.size() - 1) / queries.size();

  // Recall of the live index against exact search, and the rebuilt
  // index's answers against the live index's.
  for (const auto& v : queries) {
    auto approx = system.doc_index().SearchEf(v, kSearchK, ef);
    auto exact = linear.Search(v, kSearchK);
    if (rebuilt.SearchEf(v, kSearchK, ef) != approx) {
      counts->failures.push_back(corpus.name() +
                                 ": rebuilt index answers a search "
                                 "differently from the live index");
    }
    size_t hits = 0;
    for (const auto& e : exact) {
      hits += std::count_if(approx.begin(), approx.end(),
                            [&](const auto& a) { return a.id == e.id; });
    }
    counts->recall_sum +=
        exact.empty() ? 1.0 : static_cast<double>(hits) / exact.size();
    counts->recall_queries += 1;
  }

  size_t sink = 0;
  {
    ScopedBenchSpan span(recorder, "index.search");
    for (size_t r = 0; r < reps; ++r) {
      for (const auto& v : queries) {
        sink += system.doc_index().SearchEf(v, kSearchK, ef).size();
      }
    }
  }
  {
    ScopedBenchSpan span(recorder, "index.linear_search");
    for (size_t r = 0; r < reps; ++r) {
      for (const auto& v : queries) sink += linear.Search(v, kSearchK).size();
    }
  }
  const int64_t n = static_cast<int64_t>(reps * queries.size());
  counts->hnsw_searches += n;
  counts->linear_searches += n;
  if (sink != 2 * reps * queries.size() * std::min(kSearchK, corpus.size())) {
    counts->failures.push_back(corpus.name() + ": short search results");
  }
}

}  // namespace

llm::LlmResult SpannedLlm::Call(const llm::LlmCall& call) {
  SpanRecorder* recorder = recorder_.load();
  ScopedBenchSpan span(recorder, "llm", llm::PromptTypeName(call.type));
  if (recorder != nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    calls_[span.query()][llm::PromptTypeName(call.type)] += 1;
  }
  return base_->Call(call);
}

std::map<std::string, int64_t> SpannedLlm::CallsOf(uint64_t query) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = calls_.find(query);
  return it == calls_.end() ? std::map<std::string, int64_t>{} : it->second;
}

void ReplayIndexLayers(const core::UnifySystem& system,
                       const Dataset& dataset, SpanRecorder* recorder,
                       ReplayCounts* counts) {
  ReplaySearch(system, dataset,
               *ReplayEmbedAndIndex(system, *dataset.corpus, recorder, counts),
               recorder, counts);
}

void ReplayQueryLayers(core::UnifySystem& system, const Dataset& dataset,
                       size_t query_stride, SpannedLlm* llm,
                       SpanRecorder* recorder, uint64_t* next_query,
                       ReplayCounts* counts) {
  const corpus::Corpus& corpus = *dataset.corpus;
  const core::UnifyOptions& options = system.options();

  // The query-time layers, on the system's own client stack (the
  // TracingLlmClient every internal component calls through).
  llm::LlmClient* stack = system.testing_hooks().llm;
  core::PlanGenerator generator(&system.registry(), &system.matcher(), stack,
                                options.plan);
  const core::OptimizerOptions oopts = LiveOptimizerOptions(options, corpus);
  core::PhysicalOptimizer optimizer(&system.cost_model(), &system.estimator(),
                                    oopts);
  core::ExecContext ectx;
  ectx.corpus = &corpus;
  ectx.llm = stack;
  ectx.custom_ops = options.custom_ops;
  ectx.doc_embedder = &system.doc_embedder();
  ectx.doc_index = &system.doc_index();
  ectx.llm_batch_size = options.llm_batch_size;
  core::PlanExecutor::Options eopts = options.exec;
  eopts.max_intra_op_parallelism =
      std::max(1, options.exec.max_intra_op_parallelism);
  eopts.reoptimize = false;

  std::map<std::string, core::OpArgs> conditions;
  for (size_t i = 0; i < dataset.queries.size(); i += query_stride) {
    const std::string& text = dataset.queries[i].text;
    const std::string where = corpus.name() + " query " +
                              std::to_string(i) + " \"" + text + "\": ";
    // Replay before the live call: with cost feedback on, Answer()
    // updates the cost model, so the replay must see the model the live
    // call starts from. Both start from an empty answer cache.
    const uint64_t replay_id = (*next_query)++;
    ClearCache(system);
    core::ExecutionResult replay;
    replay.status = Status::Internal("replay did not run");
    {
      ScopedBenchSpan root(recorder, "replay", text, replay_id);
      StatusOr<core::PlanGenerator::Result> generated =
          Status::Internal("not generated");
      {
        ScopedBenchSpan span(recorder, "plan.generate");
        generated = generator.Generate(text);
      }
      if (generated.ok()) {
        counts->plans_generated += 1;
        counts->plan_llm_calls += generated->llm_calls;
        counts->plan_backtracks += generated->backtracks;
        for (const auto& plan : generated->plans) {
          for (const auto& node : plan.nodes) {
            if (node.op_name == "Filter") {
              conditions.emplace(ConditionKey(node.args), node.args);
            }
          }
        }
        StatusOr<core::PhysicalPlan> physical =
            Status::Internal("not optimized");
        {
          ScopedBenchSpan span(recorder, "optimize.select");
          physical = optimizer.SelectBest(generated->plans, oopts);
        }
        if (physical.ok()) {
          ScopedBenchSpan span(recorder, "exec");
          core::PlanExecutor executor(ectx, eopts);
          core::PlanExecutor::ExecutionState state;
          executor.Begin(*physical, state);
          if (executor.Run(state).has_value()) {
            counts->failures.push_back(where + "replay paused for a replan");
          }
          replay = executor.Finish(state);
        }
      }
    }

    const uint64_t live_id = (*next_query)++;
    ClearCache(system);
    core::QueryResult live;
    {
      ScopedBenchSpan root(recorder, "replay.answer", text, live_id);
      core::QueryRequest request;
      request.text = text;
      live = system.Answer(request);
    }
    if (!live.status.ok() || !replay.status.ok()) {
      counts->failures.push_back(where + "live " + live.status.ToString() +
                                 ", replay " + replay.status.ToString());
      continue;
    }
    if (live.answer.ToString() != replay.answer.ToString()) {
      counts->failures.push_back(where + "replay answered " +
                                 replay.answer.ToString() + ", Answer() " +
                                 live.answer.ToString());
    }
    if (live.exec_seconds != replay.virtual_seconds) {
      counts->failures.push_back(where + "replay exec " +
                                 Hex(replay.virtual_seconds) +
                                 "s, Answer() exec " +
                                 Hex(live.exec_seconds) + "s");
    }
    if (llm->CallsOf(replay_id) != llm->CallsOf(live_id)) {
      counts->failures.push_back(where +
                                 "replay and Answer() made different LLM "
                                 "calls per prompt type");
    }
  }

  // Semantic cardinality estimation of the plans' filter conditions, each
  // estimated twice from an empty cache: the estimator is seeded from the
  // condition, so both must agree exactly.
  for (const auto& [key, args] : conditions) {
    core::SceEstimate first;
    for (int rep = 0; rep < 2; ++rep) {
      ClearCache(system);
      StatusOr<core::SceEstimate> est = Status::Internal("not estimated");
      {
        ScopedBenchSpan span(recorder, "sce.estimate");
        est = system.estimator().EstimateCondition(
            args, core::SceMethod::kImportance, /*salt=*/0);
      }
      if (!est.ok()) {
        counts->failures.push_back("sce " + key + ": " +
                                   est.status().ToString());
        break;
      }
      counts->sce_estimates += 1;
      counts->sce_samples += est->samples;
      if (rep == 0) {
        first = *est;
      } else if (est->cardinality != first.cardinality ||
                 est->samples != first.samples) {
        counts->failures.push_back("sce " + key +
                                   ": repeated estimate differs");
      }
    }
  }
  ClearCache(system);
}

}  // namespace unify::perfbench
