// Noisy-neighbor scheduling benchmark: one heavy tenant floods the
// serving queue with a burst, then N light tenants each submit a few
// queries. A single worker drains the backlog, so dispatch order alone
// decides how long each tenant's queries sit queued. The same arrival
// stream runs through the service's core::FairScheduler twice:
//
//   "fifo" — every request under one client_tag: the one-tenant,
//            equal-weight case is plain FIFO, so light queries wait
//            behind the entire heavy burst;
//   "fair" — each request under its own tenant's tag, equal weights:
//            deficit round-robin interleaves tenants, so light queries
//            ride out in the next few rounds no matter how deep the heavy
//            backlog is.
//
// Reports per-tenant p50/p99 WALL queue time (QueryResult::
// queue_wall_seconds) per mode and the light-tenant p99 improvement.
// Scheduling must change only WHEN queries run, never WHAT they answer:
// every answer is compared byte-for-byte across the two modes.
//
// Writes BENCH_scheduler.json. `--smoke` shrinks the corpus/burst so the
// binary doubles as a ctest smoke test (bench_scheduler_smoke), asserting
// the fair scheduler keeps light-tenant p99 queue time at least 2x lower
// than FIFO with zero answer changes. Scale knobs: bench_util.h.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"

namespace unify::bench {
namespace {

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t idx = std::min(
      v.size() - 1,
      static_cast<size_t>(std::ceil(p * static_cast<double>(v.size()))) -
          (p > 0 ? 1 : 0));
  return v[idx];
}

constexpr const char* kHeavyTenant = "heavy";

struct Slot {
  std::string tenant;
  std::string text;
};

struct TenantTimes {
  int queries = 0;
  double p50 = 0;
  double p99 = 0;
};

struct ModeResult {
  std::string mode;
  std::map<std::string, TenantTimes> tenants;
  double light_p50 = 0;
  double light_p99 = 0;
  double heavy_p99 = 0;
  int64_t rejected = 0;
  std::vector<std::string> answers;  // per slot, for the identity check
};

ModeResult RunMode(const core::UnifySystem& system,
                   const std::vector<Slot>& slots, bool fair) {
  core::UnifyService::Options sopts;
  sopts.num_workers = 1;  // dispatch order alone decides queue time
  sopts.max_queue_depth = static_cast<int>(slots.size()) + 8;
  // Equal weights: the isolation comes purely from round-robining
  // tenants, not from deprioritizing the heavy one.
  sopts.default_tenant_weight = 1.0;
  core::UnifyService service(&system, sopts);

  // One submitter thread, heavy burst first: everything lands in the
  // queue while the worker is still serving the first query.
  std::vector<std::future<core::QueryResult>> futures;
  futures.reserve(slots.size());
  for (const auto& slot : slots) {
    core::QueryRequest request;
    request.text = slot.text;
    request.client_tag = fair ? slot.tenant : "all";
    futures.push_back(service.Submit(std::move(request)));
  }

  ModeResult result;
  result.mode = fair ? "fair" : "fifo";
  std::map<std::string, std::vector<double>> queue_times;
  std::vector<double> light_times;
  for (size_t i = 0; i < slots.size(); ++i) {
    core::QueryResult r = futures[i].get();
    if (!r.status.ok()) {
      std::printf("%s: query failed: %s\n", result.mode.c_str(),
                  r.status.ToString().c_str());
    }
    result.answers.push_back(r.answer.ToString());
    queue_times[slots[i].tenant].push_back(r.queue_wall_seconds);
    if (slots[i].tenant != kHeavyTenant) {
      light_times.push_back(r.queue_wall_seconds);
    }
  }
  for (auto& [tenant, times] : queue_times) {
    TenantTimes t;
    t.queries = static_cast<int>(times.size());
    t.p50 = Percentile(times, 0.50);
    t.p99 = Percentile(times, 0.99);
    result.tenants[tenant] = t;
  }
  result.light_p50 = Percentile(light_times, 0.50);
  result.light_p99 = Percentile(light_times, 0.99);
  result.heavy_p99 = Percentile(queue_times[kHeavyTenant], 0.99);
  result.rejected = service.stats().rejected;
  return result;
}

int Run(bool smoke) {
  BenchScale scale = BenchScale::FromEnv();
  if (smoke) {
    scale.max_docs = 200;
    scale.per_template = 1;
  } else if (scale.max_docs == 0) {
    scale.max_docs = 400;
  }
  corpus::DatasetProfile profile;
  for (const auto& p : corpus::AllProfiles()) {
    if (p.name == "sports") profile = p;
  }
  BenchDataset ds = MakeDataset(profile, scale);

  core::UnifyOptions uopts;
  uopts.collect_trace = false;
  // Freeze cost-model feedback so both schedulers plan every query
  // identically — the setting under which answers must be byte-equal.
  uopts.cost_feedback = false;
  core::UnifySystem system(ds.corpus.get(), ds.llm.get(), uopts);
  if (auto st = system.Setup(); !st.ok()) {
    std::printf("setup failed: %s\n", st.ToString().c_str());
    return 1;
  }

  std::vector<std::string> queries;
  for (const auto& qc : ds.workload) {
    queries.push_back(qc.text);
    if (queries.size() >= 8) break;
  }

  const int heavy_burst = smoke ? 64 : 128;
  const int light_tenants = smoke ? 4 : 8;
  const int light_each = smoke ? 2 : 3;
  std::vector<Slot> slots;
  for (int i = 0; i < heavy_burst; ++i) {
    slots.push_back(
        {kHeavyTenant, queries[static_cast<size_t>(i) % queries.size()]});
  }
  for (int i = 0; i < light_each; ++i) {
    for (int t = 0; t < light_tenants; ++t) {
      slots.push_back({"light-" + std::to_string(t),
                       queries[static_cast<size_t>(t + i) % queries.size()]});
    }
  }

  PrintHeaderLine(
      "noisy neighbor: 1 heavy (" + std::to_string(heavy_burst) +
      "-query burst) vs " + std::to_string(light_tenants) + " light (" +
      std::to_string(light_each) + " each), 1 worker, " +
      std::to_string(ds.corpus->size()) + " docs");

  std::vector<ModeResult> modes;
  for (bool fair : {false, true}) {
    modes.push_back(RunMode(system, slots, fair));
  }
  for (const auto& mode : modes) {
    std::printf("\n%-5s  %-10s %8s %12s %12s\n", mode.mode.c_str(),
                "tenant", "queries", "queue-p50", "queue-p99");
    for (const auto& [tenant, t] : mode.tenants) {
      std::printf("       %-10s %8d %10.4fs %10.4fs\n", tenant.c_str(),
                  t.queries, t.p50, t.p99);
    }
  }

  const ModeResult& fifo = modes[0];
  const ModeResult& fair = modes[1];
  const bool answers_identical = fifo.answers == fair.answers;
  const double improvement =
      fair.light_p99 > 0 ? fifo.light_p99 / fair.light_p99 : 0;
  std::printf(
      "\nlight-tenant p99 queue time: fifo %.4fs, fair %.4fs (%.1fx %s)\n",
      fifo.light_p99, fair.light_p99, improvement,
      improvement >= 2.0 ? "better; >= 2x target met"
                         : "below the 2x target");
  std::printf("answers byte-identical across schedulers: %s\n",
              answers_identical ? "yes" : "NO");

  std::ofstream out("BENCH_scheduler.json");
  out << "{\n  \"benchmark\": \"scheduler\",\n";
  out << "  \"dataset\": \"" << ds.name << "\",\n";
  out << "  \"docs\": " << ds.corpus->size() << ",\n";
  out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  out << "  \"heavy_burst\": " << heavy_burst << ",\n";
  out << "  \"light_tenants\": " << light_tenants << ",\n";
  out << "  \"light_queries_each\": " << light_each << ",\n";
  out << "  \"answers_identical\": " << (answers_identical ? "true" : "false")
      << ",\n";
  out << "  \"light_p99_improvement\": " << improvement << ",\n";
  out << "  \"modes\": [\n";
  for (size_t m = 0; m < modes.size(); ++m) {
    const auto& mode = modes[m];
    out << "    {\"mode\": \"" << mode.mode << "\", \"rejected\": "
        << mode.rejected << ", \"light_queue_p50_seconds\": "
        << mode.light_p50 << ", \"light_queue_p99_seconds\": "
        << mode.light_p99 << ", \"heavy_queue_p99_seconds\": "
        << mode.heavy_p99 << ", \"tenants\": [\n";
    size_t t = 0;
    for (const auto& [tenant, times] : mode.tenants) {
      out << "      {\"tenant\": \"" << tenant << "\", \"queries\": "
          << times.queries << ", \"queue_p50_seconds\": " << times.p50
          << ", \"queue_p99_seconds\": " << times.p99 << "}"
          << (++t < mode.tenants.size() ? "," : "") << "\n";
    }
    out << "    ]}" << (m + 1 < modes.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote BENCH_scheduler.json\n");

  // Acceptance checks (also the ctest smoke assertions): the fair
  // scheduler must shield light tenants from the heavy burst without
  // changing a single answer or rejecting anything.
  int failures = 0;
  if (!answers_identical) {
    std::printf("FAIL: answers differ between fifo and fair runs\n");
    failures += 1;
  }
  if (improvement < 2.0) {
    std::printf("FAIL: light-tenant p99 improvement %.2fx < 2x\n",
                improvement);
    failures += 1;
  }
  if (fifo.rejected != 0 || fair.rejected != 0) {
    std::printf("FAIL: unexpected rejections (fifo %lld, fair %lld)\n",
                static_cast<long long>(fifo.rejected),
                static_cast<long long>(fair.rejected));
    failures += 1;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace unify::bench

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return unify::bench::Run(smoke);
}
