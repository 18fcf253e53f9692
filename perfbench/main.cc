// The repository benchmark: runs one workload against Unify's public API
// and prints one JSON record with its metrics.
//
//   perfbench --workload analyst|dashboard|large_corpus --seed N
//             --seconds S --trace 0|1 [--spans-out FILE] [--git-head SHA]
//
// --trace 0 measures the end-to-end metrics (tracing off). --trace 1 runs
// an untraced pass, the same pass again under benchmark spans, and the
// layer replays (layers.h), and reports the per-layer metrics. Every
// answer is checked against the generated ground truth; work that must
// repeat exactly (virtual seconds, dollars, answers, index edges, LLM
// call counts) is compared run against run, and any difference exits
// with code 3 without a record. See perfbench/README.md.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/runtime/query.h"
#include "core/runtime/service.h"
#include "core/runtime/unify.h"
#include "corpus/answer.h"
#include "corpus/corpus.h"
#include "corpus/dataset_profile.h"
#include "corpus/workload.h"
#include "harness.h"
#include "layers.h"
#include "llm/sim_llm.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace unify::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Rounds of set-up (and, for the round-based workloads, query passes) per
/// run: set-up time is the median over them, and rounds after the first
/// must reproduce the first exactly.
constexpr int kMinRounds = 3;
constexpr uint64_t kAnalystDataSeed = 2023;
/// Answers below this accuracy mean the program, not the workload, broke:
/// the paper-scale workloads score well above it.
constexpr double kMinAccuracyPct = 60;
/// The dashboard's closed-loop clients (one per core of the reference
/// 4-core machine), each its own tenant.
constexpr int kDashboardClients = 4;
constexpr int kDashboardHotQueries = 40;
constexpr double kDashboardZipf = 1.0;
constexpr uint64_t kDashboardDataSeed = 2024;
/// Requests per client in each of the traced run's two dashboard passes.
constexpr int kDashboardTracedPerClient = 500;
constexpr size_t kLargeCorpusDocs = 10000;
constexpr int kLargeCorpusPerTemplate = 10;
constexpr uint64_t kLargeCorpusDataSeed = 2025;
/// About 1/11 of the ~180k entries (33 MB) the 200 distinct large_corpus
/// queries put in an unbounded cache: the cache is miss- and evict-bound.
constexpr size_t kLargeCorpusCacheEntries = 16384;
/// Replay every n-th query of a corpus (about 20 per corpus).
constexpr size_t kAnalystReplayStride = 5;
constexpr size_t kDashboardReplayStride = 2;
constexpr size_t kLargeCorpusReplayStride = 10;

/// Prompt types the Unify query path can issue with re-optimization off;
/// each gets an llm.calls.<type> metric in the traced run.
const char* const kPromptTypes[] = {
    "semantic_parse",     "rerank_operators",  "reduce_query",
    "simple_question",    "dependency_check",  "eval_predicate",
    "extract_value",      "classify_doc",      "semantic_aggregate",
    "generate_answer",    "choose_fallback_strategy", "generate_code",
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
  std::string git_head = "unknown";
};

[[noreturn]] void Fail(int code, const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(code);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Fail(2, "missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else if (flag == "--git-head") {
      args.git_head = value;
    } else {
      Fail(2, "unknown flag " + flag);
    }
  }
  if (args.workload != "analyst" && args.workload != "dashboard" &&
      args.workload != "large_corpus") {
    Fail(2, "--workload must be analyst, dashboard or large_corpus");
  }
  return args;
}

/// A sanitizer or unoptimized build measures a different program.
void RequireReleaseBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  Fail(2, "refusing to report from a sanitizer build");
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  Fail(2, "refusing to report from a sanitizer build");
#endif
#endif
#ifndef NDEBUG
  Fail(2, "refusing to report from a build with assertions on");
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    Fail(2, std::string("refusing to report from a ") + PERFBENCH_BUILD_TYPE +
                " build; configure with CMAKE_BUILD_TYPE=Release");
  }
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double CpuSeconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return u.ru_utime.tv_sec + u.ru_stime.tv_sec +
         1e-6 * (u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return u.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// What one run reports.
struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Readable reasons the outputs are wrong; empty = correct.
  std::vector<std::string> wrong;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  /// Workload facts recorded with the result (loop, clients, corpus
  /// sizes, cache capacity, measured working set).
  std::vector<std::pair<std::string, std::string>> info;

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void Info(const std::string& key, const std::string& value) {
    info.push_back({key, value});
  }
};

// --- inputs ---------------------------------------------------------------

/// Corpus `index` of a workload from `corpus_seed`, and its query
/// instantiations from `query_seed`.
Dataset MakeDataset(corpus::DatasetProfile profile, uint64_t corpus_seed,
                    uint64_t query_seed, int index, int per_template) {
  Dataset ds;
  ds.corpus = std::make_unique<corpus::Corpus>(corpus::GenerateCorpus(
      profile,
      HashCombine(corpus_seed, 0x1000 + static_cast<uint64_t>(index))));
  ds.sim = std::make_unique<llm::SimulatedLlm>(ds.corpus.get(),
                                               llm::SimLlmOptions{});
  corpus::WorkloadOptions wopts;
  wopts.per_template = per_template;
  wopts.seed =
      HashCombine(query_seed, 0x2000 + static_cast<uint64_t>(index));
  ds.queries = corpus::GenerateWorkload(*ds.corpus, wopts);
  return ds;
}

/// Orders the hot set by Zipf rank: every template's first instance, then
/// every template's second, so the most popular panels are distinct kinds
/// of question rather than two instances of the same template.
std::vector<corpus::QueryCase> PopularityOrder(
    std::vector<corpus::QueryCase> queries) {
  std::map<int, int> seen;
  std::vector<std::pair<std::pair<int, int>, size_t>> keys;
  for (size_t i = 0; i < queries.size(); ++i) {
    const int t = queries[i].template_id;
    keys.push_back({{seen[t]++, t}, i});
  }
  std::sort(keys.begin(), keys.end());
  std::vector<corpus::QueryCase> ordered;
  for (const auto& [key, i] : keys) ordered.push_back(std::move(queries[i]));
  return ordered;
}

std::vector<Dataset> MakeDatasets(const Args& args) {
  std::vector<Dataset> data;
  if (args.workload == "analyst") {
    int i = 0;
    for (const auto& profile : corpus::AllProfiles()) {
      data.push_back(MakeDataset(profile, kAnalystDataSeed, args.seed, i++, 5));
    }
  } else if (args.workload == "dashboard") {
    // A dashboard's panels are fixed: the corpus and hot set do not vary
    // with the seed, which draws only the clients' request streams.
    data.push_back(
        MakeDataset(corpus::SportsProfile(), kDashboardDataSeed,
                    kDashboardDataSeed, 0, 2));
    data[0].queries = PopularityOrder(std::move(data[0].queries));
    data[0].queries.resize(
        std::min<size_t>(data[0].queries.size(), kDashboardHotQueries));
  } else {
    // The corpus and its 200 distinct queries are fixed, so the virtual
    // metrics do not jump between template clusters from seed to seed; the
    // seed orders the session, which moves what the capped cache holds and
    // what cost feedback has learned when each query arrives.
    corpus::DatasetProfile profile = corpus::SportsProfile();
    profile.doc_count = kLargeCorpusDocs;
    data.push_back(MakeDataset(profile, kLargeCorpusDataSeed,
                               kLargeCorpusDataSeed, 0,
                               kLargeCorpusPerTemplate));
    std::mt19937_64 rng(HashCombine(args.seed, 0x4000));
    std::shuffle(data[0].queries.begin(), data[0].queries.end(), rng);
  }
  return data;
}

core::UnifyOptions WorkloadOptions(const std::string& workload) {
  core::UnifyOptions options;
  options.collect_trace = false;
  if (workload == "dashboard") {
    options.cache.enabled = true;
    options.cost_feedback = false;
  } else if (workload == "large_corpus") {
    options.cache.enabled = true;
    options.cache.max_entries = kLargeCorpusCacheEntries;
  }
  return options;
}

core::QueryRequest Request(const std::string& text,
                           const std::string& tag = "") {
  core::QueryRequest request;
  request.text = text;
  request.client_tag = tag;
  return request;
}

/// Everything about a result that must repeat exactly for the same query
/// on the same inputs: answer, virtual seconds, dollars and the program's
/// own per-prompt-type LLM call counters.
std::string Fingerprint(const core::QueryResult& r) {
  std::ostringstream os;
  os << r.status.ToString() << '|' << r.answer.ToString() << '|'
     << std::hexfloat << r.total_seconds << '|' << r.exec_dollars;
  for (const auto& [name, value] : r.metrics.counters) {
    if (name.rfind("llm.calls.", 0) == 0) os << '|' << name << '=' << value;
  }
  return os.str();
}

/// Modelled API spend of one query: planning, cardinality estimation and
/// execution, from the query's own llm.dollars.<prompt type> counters.
/// (QueryResult::exec_dollars alone is exactly 0 once the dashboard's
/// cache holds its working set.)
double QueryDollars(const core::QueryResult& r) {
  double dollars = 0;
  for (const auto& [name, value] : r.metrics.counters) {
    if (name.rfind("llm.dollars.", 0) == 0) dollars += value;
  }
  return dollars;
}

// --- end-to-end measurements ----------------------------------------------

/// Per-request observations of a query phase.
struct Observations {
  std::vector<double> setup_s;  ///< one value per set-up round
  /// Per request (dashboard) or per query, the median over the rounds'
  /// repeats of it (analyst, large_corpus): a slow spell of the machine
  /// during one round then does not shift the percentiles.
  std::vector<double> wall_ms;
  /// Completed queries per second of query phase, one value per round
  /// (the dashboard has one query phase).
  std::vector<double> throughput_qps;
  /// Virtual-clock samples: the canonical pass (analyst, large_corpus) or
  /// every request (dashboard).
  std::vector<double> virt_s;
  std::vector<double> dollars;
  int64_t judged = 0;
  int64_t accurate = 0;
};

void ReportEndToEnd(const Observations& obs, Report* report) {
  if (SamplesBeyond(obs.wall_ms.size(), 95) < 10 ||
      SamplesBeyond(obs.virt_s.size(), 95) < 10) {
    report->wrong.push_back("fewer than ten samples beyond p95 (" +
                            std::to_string(obs.wall_ms.size()) + " wall, " +
                            std::to_string(obs.virt_s.size()) + " virtual)");
  }
  double dollars = 0;
  for (double d : obs.dollars) dollars += d;
  const double accuracy =
      obs.judged == 0 ? 0 : 100.0 * obs.accurate / obs.judged;
  if (accuracy < kMinAccuracyPct) {
    report->wrong.push_back("accuracy " + std::to_string(accuracy) +
                            "% is below " +
                            std::to_string(kMinAccuracyPct) + "%");
  }
  report->Metric("setup_s", Median(obs.setup_s), "s");
  report->Metric("query_ms_p50", Percentile(obs.wall_ms, 50), "ms");
  report->Metric("query_ms_p95", Percentile(obs.wall_ms, 95), "ms");
  report->Metric("throughput_qps", Median(obs.throughput_qps), "1/s");
  report->Metric("virt_s_p50", Percentile(obs.virt_s, 50), "s");
  report->Metric("virt_s_p95", Percentile(obs.virt_s, 95), "s");
  report->Metric("dollars_per_query",
                 obs.dollars.empty() ? 0 : dollars / obs.dollars.size(), "USD");
  report->Metric("accuracy_pct", accuracy, "%");
  report->Metric("success_pct",
                 report->attempted == 0
                     ? 0
                     : 100.0 * (report->attempted - report->failed) /
                           report->attempted,
                 "%");
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
  report->Info("wall_samples", std::to_string(obs.wall_ms.size()));
  report->Info("virtual_samples", std::to_string(obs.virt_s.size()));
}

/// Compares a repeat's fingerprints against the first occurrence.
class DeterminismCheck {
 public:
  void Expect(const std::string& key, const std::string& value) {
    auto [it, inserted] = first_.emplace(key, value);
    if (!inserted && it->second != value && mismatches_.size() < 5) {
      mismatches_.push_back(key + ": first " + it->second + ", now " + value);
    }
  }
  /// Exits with code 3 when any repeat differed.
  void Enforce() const {
    if (mismatches_.empty()) return;
    for (const auto& m : mismatches_) {
      std::fprintf(stderr, "perfbench: NOT DETERMINISTIC: %s\n", m.c_str());
    }
    Fail(3, "values that must repeat exactly differed between runs");
  }

 private:
  std::map<std::string, std::string> first_;
  std::vector<std::string> mismatches_;
};

/// analyst and large_corpus: each round sets every corpus up afresh and
/// answers its queries one at a time (closed loop, one client). Rounds
/// repeat until the query phase has lasted `seconds` (at least
/// kMinRounds), and must reproduce round one exactly.
void RunRounds(const Args& args, std::vector<Dataset>& data,
               Report* report) {
  const core::UnifyOptions options = WorkloadOptions(args.workload);
  Observations obs;
  DeterminismCheck determinism;
  std::vector<std::vector<double>> query_ms;  // [query][round]
  double query_phase_s = 0;
  for (int round = 0; round < kMinRounds || query_phase_s < args.seconds;
       ++round) {
    double setup = 0;
    double round_s = 0;
    int64_t round_completed = 0;
    size_t flat = 0;
    for (size_t d = 0; d < data.size(); ++d) {
      const Dataset& ds = data[d];
      core::UnifySystem system(ds.corpus.get(), ds.sim.get(), options);
      const auto t0 = Clock::now();
      Status st = system.Setup();
      setup += Seconds(Clock::now() - t0);
      if (!st.ok()) Fail(1, "Setup failed: " + st.ToString());
      determinism.Expect(ds.corpus->name() + " index edges",
                         std::to_string(system.doc_index().EdgeCount()));
      for (size_t q = 0; q < ds.queries.size(); ++q) {
        const auto& qc = ds.queries[q];
        const auto start = Clock::now();
        core::QueryResult r = system.Answer(Request(qc.text));
        const double wall = Seconds(Clock::now() - start);
        round_s += wall;
        if (round == 0) query_ms.emplace_back();
        query_ms[flat++].push_back(1e3 * wall);
        report->attempted += 1;
        if (r.status.ok()) {
          round_completed += 1;
        } else {
          report->failed += 1;
        }
        determinism.Expect(ds.corpus->name() + " query " + std::to_string(q),
                           Fingerprint(r));
        if (round == 0) {
          obs.virt_s.push_back(r.total_seconds);
          obs.dollars.push_back(QueryDollars(r));
          obs.judged += 1;
          obs.accurate +=
              corpus::Answer::Equivalent(r.answer, qc.ground_truth) ? 1 : 0;
        }
      }
      if (round == 0 && options.cache.enabled) {
        const llm::CacheStats cs = system.llm_cache()->stats();
        report->Info(ds.corpus->name() + " cache entries after one pass",
                     std::to_string(cs.entries));
        report->Info(ds.corpus->name() + " cache evictions in one pass",
                     std::to_string(cs.evictions));
        report->Info(ds.corpus->name() + " cache hits/misses in one pass",
                     std::to_string(cs.item_hits) + "/" +
                         std::to_string(cs.item_misses));
      }
    }
    obs.setup_s.push_back(setup);
    query_phase_s += round_s;
    obs.throughput_qps.push_back(round_completed / round_s);
  }
  determinism.Enforce();
  for (const auto& repeats : query_ms) obs.wall_ms.push_back(Median(repeats));
  report->Info("rounds", std::to_string(obs.setup_s.size()));
  ReportEndToEnd(obs, report);
}

/// The dashboard's Zipf-popular request stream of one client.
class ClientStream {
 public:
  ClientStream(uint64_t seed, int client)
      : rng_(HashCombine(seed, 0x3000 + static_cast<uint64_t>(client))),
        zipf_(kDashboardHotQueries, kDashboardZipf) {}
  size_t Next() { return zipf_.Sample(rng_); }

 private:
  std::mt19937_64 rng_;
  ZipfSampler zipf_;
};

/// What the benchmark keeps of one dashboard request. Not the whole
/// QueryResult: thousands of those (each with a metrics snapshot) would
/// put the benchmark's own memory into peak_rss_mb.
struct Served {
  size_t query = 0;
  double wall_ms = 0;
  bool ok = false;
  bool accurate = false;
  std::string answer;
  double virt_s = 0;
  double dollars = 0;
  double queue_wait_ms = 0;
};

/// Runs kDashboardClients closed-loop clients against `service`. Each
/// sends its next request when the previous answer arrives, until
/// `deadline` (or for `per_client` requests when nonzero).
std::vector<Served> DriveClients(core::UnifyService& service,
                                 const Dataset& ds, uint64_t seed,
                                 Clock::time_point deadline, int per_client,
                                 SpanRecorder* recorder,
                                 std::atomic<uint64_t>* next_query) {
  std::vector<std::vector<Served>> per(kDashboardClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kDashboardClients; ++c) {
    clients.emplace_back([&, c] {
      ClientStream stream(seed, c);
      const std::string tag = "tenant-" + std::to_string(c);
      for (int n = 0; per_client > 0 ? n < per_client
                                     : Clock::now() < deadline;
           ++n) {
        Served s;
        s.query = stream.Next();
        ScopedBenchSpan root(recorder, "submit", "",
                             next_query->fetch_add(1));
        const auto start = Clock::now();
        const core::QueryResult r =
            service.Submit(Request(ds.queries[s.query].text, tag)).get();
        s.wall_ms = 1e3 * Seconds(Clock::now() - start);
        s.ok = r.status.ok();
        s.accurate = corpus::Answer::Equivalent(
            r.answer, ds.queries[s.query].ground_truth);
        s.answer = r.answer.ToString();
        s.virt_s = r.total_seconds;
        s.dollars = QueryDollars(r);
        s.queue_wait_ms = 1e3 * r.queue_wall_seconds;
        per[c].push_back(std::move(s));
      }
    });
  }
  for (auto& t : clients) t.join();
  std::vector<Served> all;
  for (auto& v : per) {
    for (auto& s : v) all.push_back(std::move(s));
  }
  return all;
}

/// Answers the hot set once, in order, through `service`: fills the
/// cache's working set and records the reference answers every later
/// request must reproduce byte for byte.
std::vector<std::string> WarmUp(core::UnifyService& service,
                                const Dataset& ds, Report* report) {
  std::vector<std::string> reference;
  for (const auto& qc : ds.queries) {
    core::QueryResult r = service.Answer(Request(qc.text, "warmup"));
    if (!r.status.ok()) {
      report->wrong.push_back("warm-up query failed: " + r.status.ToString());
    }
    reference.push_back(r.answer.ToString());
  }
  return reference;
}

void CheckServed(const std::vector<Served>& served,
                 const std::vector<std::string>& reference, Report* report,
                 Observations* obs) {
  int64_t changed = 0;
  for (const auto& s : served) {
    report->attempted += 1;
    if (!s.ok) {
      report->failed += 1;
      continue;
    }
    if (s.answer != reference[s.query]) changed += 1;
    if (obs == nullptr) continue;
    obs->wall_ms.push_back(s.wall_ms);
    obs->virt_s.push_back(s.virt_s);
    obs->dollars.push_back(s.dollars);
    obs->judged += 1;
    obs->accurate += s.accurate ? 1 : 0;
  }
  if (changed > 0) {
    report->wrong.push_back(std::to_string(changed) +
                            " served answers differ from the sequential "
                            "warm-up answers");
  }
}

core::UnifyService::Options DashboardServiceOptions() {
  core::UnifyService::Options sopts;
  sopts.num_workers = kDashboardClients;
  return sopts;
}

void RunDashboard(const Args& args, std::vector<Dataset>& data,
                  Report* report) {
  const Dataset& ds = data[0];
  const core::UnifyOptions options = WorkloadOptions(args.workload);
  Observations obs;
  DeterminismCheck edges;
  std::unique_ptr<core::UnifySystem> system;
  for (int round = 0; round < kMinRounds; ++round) {
    system = std::make_unique<core::UnifySystem>(ds.corpus.get(),
                                                 ds.sim.get(), options);
    const auto t0 = Clock::now();
    Status st = system->Setup();
    obs.setup_s.push_back(Seconds(Clock::now() - t0));
    if (!st.ok()) Fail(1, "Setup failed: " + st.ToString());
    edges.Expect("index edges",
                 std::to_string(system->doc_index().EdgeCount()));
  }
  edges.Enforce();
  core::UnifyService service(system.get(), DashboardServiceOptions());
  const std::vector<std::string> reference = WarmUp(service, ds, report);
  const llm::CacheStats warm = service.stats().cache;

  std::atomic<uint64_t> next_query{1};
  const auto start = Clock::now();
  std::vector<Served> served = DriveClients(
      service, ds, args.seed,
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds)),
      0, nullptr, &next_query);
  const double query_phase_s = Seconds(Clock::now() - start);
  CheckServed(served, reference, report, &obs);
  obs.throughput_qps.push_back(
      static_cast<double>(obs.wall_ms.size()) / query_phase_s);

  const core::UnifyService::Stats stats = service.stats();
  report->Info("cache entries after warm-up / capacity",
               std::to_string(warm.entries) + "/" +
                   std::to_string(options.cache.max_entries));
  report->Info("cache hits/misses/coalesced in the query phase",
               std::to_string(stats.cache.item_hits - warm.item_hits) + "/" +
                   std::to_string(stats.cache.item_misses - warm.item_misses) +
                   "/" +
                   std::to_string(stats.cache.coalesced - warm.coalesced));
  report->Info("admission rejections", std::to_string(stats.rejected));
  ReportEndToEnd(obs, report);
}

// --- traced run -------------------------------------------------------------

/// Span windows of the traced passes and what the passes measured besides
/// spans. Layer metrics are computed from spans inside the windows.
struct TracedPasses {
  std::vector<std::pair<int64_t, int64_t>> windows;
  double untraced_wall_s = 0;
  double traced_wall_s = 0;
  double traced_cpu_s = 0;
  int64_t queries = 0;
  std::vector<double> queue_wait_ms;
  double pool_busy_s = 0;
  double pool_capacity_s = 0;
  int64_t cache_hits = 0;
  int64_t cache_lookups = 0;
  int64_t cache_evictions = 0;
  int64_t cache_coalesced = 0;
  double setup_span_s = 0;
};

void AddCacheDelta(const llm::CacheStats& before, const llm::CacheStats& after,
                   TracedPasses* passes) {
  const int64_t hits = after.item_hits - before.item_hits;
  const int64_t misses = after.item_misses - before.item_misses;
  const int64_t coalesced = after.coalesced - before.coalesced;
  passes->cache_hits += hits;
  passes->cache_lookups += hits + misses + coalesced;
  passes->cache_coalesced += coalesced;
  passes->cache_evictions += after.evictions - before.evictions;
}

/// Busy share of each query's private server pool, from EXPLAIN ANALYZE.
void AddPrivatePoolBusy(const core::QueryResult& r, int servers,
                        TracedPasses* passes) {
  for (const auto& node : r.plan_analysis) {
    passes->pool_busy_s += node.actual_seconds;
  }
  passes->pool_capacity_s += servers * r.exec_seconds;
}

llm::CacheStats CacheOf(const core::UnifySystem& system) {
  return system.llm_cache() != nullptr ? system.llm_cache()->stats()
                                       : llm::CacheStats{};
}

/// analyst and large_corpus, traced: per corpus, an untraced round and a
/// traced round on fresh systems (cost feedback makes a pass change the
/// system it runs on), then the layer replays on the traced system.
void TraceRounds(const Args& args, std::vector<Dataset>& data,
                 SpanRecorder* recorder, TracedPasses* passes,
                 ReplayCounts* counts, Report* report) {
  const core::UnifyOptions options = WorkloadOptions(args.workload);
  const size_t stride = args.workload == "analyst" ? kAnalystReplayStride
                                                   : kLargeCorpusReplayStride;
  DeterminismCheck determinism;
  uint64_t next_query = 1;
  for (size_t d = 0; d < data.size(); ++d) {
    const Dataset& ds = data[d];
    for (bool traced : {false, true}) {
      SpannedLlm llm(ds.sim.get(), nullptr);
      core::UnifySystem system(ds.corpus.get(), &llm, options);
      llm.set_recorder(traced ? recorder : nullptr);
      Status st;
      {
        ScopedBenchSpan span(traced ? recorder : nullptr, "setup");
        st = system.Setup();
        passes->setup_span_s += span.elapsed_ns() * 1e-9;
      }
      if (!st.ok()) Fail(1, "Setup failed: " + st.ToString());
      determinism.Expect(ds.corpus->name() + " index edges",
                         std::to_string(system.doc_index().EdgeCount()));
      if (traced) ReplayIndexLayers(system, ds, recorder, counts);
      const llm::CacheStats cache_before = CacheOf(system);
      const double cpu0 = CpuSeconds();
      const int64_t window_start = recorder->NowNs();
      const auto start = Clock::now();
      for (size_t q = 0; q < ds.queries.size(); ++q) {
        core::QueryResult r;
        {
          ScopedBenchSpan root(traced ? recorder : nullptr, "answer", "",
                               next_query++);
          r = system.Answer(Request(ds.queries[q].text));
        }
        report->attempted += 1;
        if (!r.status.ok()) report->failed += 1;
        determinism.Expect(ds.corpus->name() + " query " + std::to_string(q),
                           Fingerprint(r));
        if (traced) {
          AddPrivatePoolBusy(r, options.exec.num_servers, passes);
          passes->queue_wait_ms.push_back(1e3 * r.queue_wall_seconds);
        }
      }
      const double wall = Seconds(Clock::now() - start);
      if (!traced) {
        passes->untraced_wall_s += wall;
        continue;
      }
      passes->traced_wall_s += wall;
      passes->traced_cpu_s += CpuSeconds() - cpu0;
      passes->windows.push_back({window_start, recorder->NowNs()});
      passes->queries += static_cast<int64_t>(ds.queries.size());
      AddCacheDelta(cache_before, CacheOf(system), passes);
      ReplayQueryLayers(system, ds, stride, &llm, recorder, &next_query,
                        counts);
    }
  }
  determinism.Enforce();
}

/// dashboard, traced: one set-up, the warm-up, then the same fixed client
/// streams untraced and traced, then the layer replays.
void TraceDashboard(const Args& args, std::vector<Dataset>& data,
                    SpanRecorder* recorder, TracedPasses* passes,
                    ReplayCounts* counts, Report* report) {
  const Dataset& ds = data[0];
  const core::UnifyOptions options = WorkloadOptions(args.workload);
  SpannedLlm llm(ds.sim.get(), recorder);
  core::UnifySystem system(ds.corpus.get(), &llm, options);
  {
    ScopedBenchSpan span(recorder, "setup");
    Status st = system.Setup();
    passes->setup_span_s += span.elapsed_ns() * 1e-9;
    if (!st.ok()) Fail(1, "Setup failed: " + st.ToString());
  }
  ReplayIndexLayers(system, ds, recorder, counts);
  std::atomic<uint64_t> next_query{1};
  {
    core::UnifyService service(&system, DashboardServiceOptions());
    llm.set_recorder(nullptr);
    const std::vector<std::string> reference = WarmUp(service, ds, report);
    // Untraced, traced, traced, untraced: slow drifts of the machine's
    // speed cancel out of the overhead.
    for (bool traced : {false, true, true, false}) {
      llm.set_recorder(traced ? recorder : nullptr);
      const core::UnifyService::Stats before = service.stats();
      const double cpu0 = CpuSeconds();
      const int64_t window_start = recorder->NowNs();
      const auto start = Clock::now();
      std::vector<Served> served = DriveClients(
          service, ds, args.seed, Clock::time_point::max(),
          kDashboardTracedPerClient, traced ? recorder : nullptr,
          &next_query);
      const double wall = Seconds(Clock::now() - start);
      CheckServed(served, reference, report, nullptr);
      if (!traced) {
        passes->untraced_wall_s += wall;
        continue;
      }
      const core::UnifyService::Stats after = service.stats();
      passes->traced_wall_s += wall;
      passes->traced_cpu_s += CpuSeconds() - cpu0;
      passes->windows.push_back({window_start, recorder->NowNs()});
      passes->queries += static_cast<int64_t>(served.size());
      for (const auto& s : served) {
        passes->queue_wait_ms.push_back(s.queue_wait_ms);
      }
      passes->pool_busy_s += after.pool_busy_seconds - before.pool_busy_seconds;
      passes->pool_capacity_s +=
          std::max(1, options.exec.num_servers) *
          (after.pool_now - before.pool_now);
      AddCacheDelta(before.cache, after.cache, passes);
    }
  }
  uint64_t replay_query = next_query.load();
  llm.set_recorder(recorder);
  ReplayQueryLayers(system, ds, kDashboardReplayStride, &llm, recorder,
                    &replay_query, counts);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

void ReportLayers(const std::vector<Span>& spans, const TracedPasses& passes,
                  const ReplayCounts& counts, Report* report) {
  const std::vector<int64_t> self = SelfTimes(spans);
  auto in_pass = [&](const Span& s) {
    for (const auto& [lo, hi] : passes.windows) {
      if (s.start_ns >= lo && s.start_ns <= hi) return true;
    }
    return false;
  };
  std::map<std::string, double> total_s;
  std::map<std::string, double> self_s;
  std::map<std::string, int64_t> count;
  std::map<std::string, int64_t> llm_by_type;
  double llm_self_s = 0;
  double root_s = 0;
  int64_t llm_calls = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    total_s[s.name] += s.duration_ns() * 1e-9;
    self_s[s.name] += self[i] * 1e-9;
    count[s.name] += 1;
    if (!in_pass(s)) continue;
    if (s.name == "llm") {
      llm_calls += 1;
      llm_self_s += self[i] * 1e-9;
      llm_by_type[s.attr] += 1;
    } else if (s.name == "answer" || s.name == "submit") {
      root_s += s.duration_ns() * 1e-9;
    }
  }
  auto mean_ms = [&](const std::string& name) {
    return 1e3 * Ratio(total_s[name], static_cast<double>(count[name]));
  };

  report->Metric("embedding.embed_us",
                 1e6 * Ratio(counts.embed_seconds, counts.docs_embedded), "us");
  report->Metric("index.add_us",
                 1e6 * Ratio(counts.index_build_seconds, counts.index_adds),
                 "us");
  report->Metric("index.build_s", counts.index_build_seconds, "s");
  report->Metric("index.edges", static_cast<double>(counts.index_edges),
                 "count");
  report->Metric("index.search_us",
                 1e6 * Ratio(total_s["index.search"], counts.hnsw_searches),
                 "us");
  report->Metric(
      "index.linear_search_us",
      1e6 * Ratio(total_s["index.linear_search"], counts.linear_searches),
      "us");
  report->Metric("index.recall_at_10",
                 Ratio(counts.recall_sum, counts.recall_queries), "ratio");
  report->Metric("setup.rest_s",
                 passes.setup_span_s - counts.embed_seconds -
                     counts.index_build_seconds,
                 "s");
  const double queries = static_cast<double>(passes.queries);
  report->Metric("llm.calls_per_query", Ratio(llm_calls, queries), "count");
  report->Metric("llm.self_ms_per_query", 1e3 * Ratio(llm_self_s, queries),
                 "ms");
  report->Metric("llm.self_share", Ratio(llm_self_s, root_s), "ratio");
  for (const char* type : kPromptTypes) {
    report->Metric(std::string("llm.calls.") + type,
                   static_cast<double>(llm_by_type[type]), "count");
  }
  report->Metric("plan.generate_ms", mean_ms("plan.generate"), "ms");
  report->Metric("plan.llm_calls_per_query",
                 Ratio(counts.plan_llm_calls, counts.plans_generated),
                 "count");
  report->Metric("plan.backtracks_per_query",
                 Ratio(counts.plan_backtracks, counts.plans_generated),
                 "count");
  report->Metric("optimize.select_ms", mean_ms("optimize.select"), "ms");
  report->Metric("sce.estimate_ms", mean_ms("sce.estimate"), "ms");
  report->Metric("sce.samples_per_estimate",
                 Ratio(counts.sce_samples, counts.sce_estimates), "count");
  report->Metric("exec.self_ms",
                 1e3 * Ratio(self_s["exec"], static_cast<double>(count["exec"])),
                 "ms");
  report->Metric("cache.hit_ratio",
                 Ratio(passes.cache_hits, passes.cache_lookups), "ratio");
  report->Metric("cache.evictions_per_query",
                 Ratio(passes.cache_evictions, queries), "count");
  report->Metric("cache.coalesced_per_query",
                 Ratio(passes.cache_coalesced, queries), "count");
  report->Metric("serve.queue_wait_ms_p50",
                 Percentile(passes.queue_wait_ms, 50), "ms");
  report->Metric("serve.queue_wait_ms_p95",
                 Percentile(passes.queue_wait_ms, 95), "ms");
  report->Metric("serve.cpu_share",
                 Ratio(passes.traced_cpu_s,
                       passes.traced_wall_s *
                           std::max(1u, std::thread::hardware_concurrency())),
                 "ratio");
  report->Metric("pool.busy_share",
                 Ratio(passes.pool_busy_s, passes.pool_capacity_s), "ratio");
  report->Metric("trace.overhead_pct",
                 100 * Ratio(passes.traced_wall_s - passes.untraced_wall_s,
                             passes.untraced_wall_s),
                 "%");
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) Fail(1, "cannot write " + path);
  for (const Span& s : spans) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"query\":" << s.query << ",\"name\":" << JsonString(s.name)
        << ",\"attr\":" << JsonString(s.attr) << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
}

void RunTraced(const Args& args, std::vector<Dataset>& data, Report* report) {
  SpanRecorder recorder;
  TracedPasses passes;
  ReplayCounts counts;
  if (args.workload == "dashboard") {
    TraceDashboard(args, data, &recorder, &passes, &counts, report);
  } else {
    TraceRounds(args, data, &recorder, &passes, &counts, report);
  }
  for (const auto& f : counts.failures) {
    report->wrong.push_back("replay check: " + f);
  }
  const std::vector<Span> spans = recorder.spans();
  ReportLayers(spans, passes, counts, report);
  if (!args.spans_out.empty()) WriteSpans(args.spans_out, spans);
}

std::string RecordJson(const Args& args, const Report& report) {
  std::ostringstream os;
  os << "{\"header\":{\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"compiler\":" << JsonString(PERFBENCH_COMPILER)
     << ",\"build_type\":" << JsonString(PERFBENCH_BUILD_TYPE)
     << ",\"git_head\":" << JsonString(args.git_head)
     << ",\"workload\":" << JsonString(args.workload)
     << ",\"seed\":" << args.seed << ",\"trace\":" << (args.trace ? 1 : 0)
     << "},\"info\":{";
  for (size_t i = 0; i < report.info.size(); ++i) {
    os << (i ? "," : "") << JsonString(report.info[i].first) << ":"
       << JsonString(report.info[i].second);
  }
  os << "},\"wrong\":[";
  for (size_t i = 0; i < report.wrong.size(); ++i) {
    os << (i ? "," : "") << JsonString(report.wrong[i]);
  }
  os << "],\"correct\":" << (report.wrong.empty() ? "true" : "false")
     << ",\"attempted\":" << report.attempted
     << ",\"failed\":" << report.failed << ",\"metrics\":{";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& [name, vu] = report.metrics[i];
    os << (i ? "," : "") << JsonString(name)
       << ":{\"value\":" << JsonNumber(vu.first)
       << ",\"unit\":" << JsonString(vu.second) << "}";
  }
  os << "}}";
  return os.str();
}

}  // namespace
}  // namespace unify::perfbench

int main(int argc, char** argv) {
  using namespace unify::perfbench;
  const Args args = ParseArgs(argc, argv);
  RequireReleaseBuild();
  std::vector<Dataset> data = MakeDatasets(args);
  Report report;
  std::string sizes;
  size_t queries = 0;
  for (const auto& ds : data) {
    sizes += (sizes.empty() ? "" : " ") + ds.corpus->name() + "=" +
             std::to_string(ds.corpus->size());
    queries += ds.queries.size();
  }
  report.Info("corpus_docs", sizes);
  report.Info("queries", std::to_string(queries));
  if (args.trace) {
    RunTraced(args, data, &report);
  } else if (args.workload == "dashboard") {
    RunDashboard(args, data, &report);
  } else {
    RunRounds(args, data, &report);
  }
  std::printf("%s\n", RecordJson(args, report).c_str());
  return 0;
}
