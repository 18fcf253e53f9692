#include "core/runtime/service.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/telemetry_names.h"
#include "core/runtime/plan_analysis.h"

namespace unify::core {

UnifyService::UnifyService(const UnifySystem* system, Options options)
    : system_(system),
      options_(options),
      pool_(std::max(1, system->options().exec.num_servers)),
      recorder_(FlightRecorder::Options{options.flight_recorder_capacity,
                                        options.slow_query_capacity}),
      slo_([&options] {
        SloTracker::Options slo;
        slo.latency_objective_seconds = options.slo_latency_seconds;
        slo.target = options.slo_target;
        return slo;
      }()),
      epoch_(std::chrono::steady_clock::now()) {
  FairScheduler::Options fopts;
  fopts.default_weight = options_.default_tenant_weight;
  fopts.tenant_weights = options_.tenant_weights;
  fopts.per_tenant_queue_depth = options_.per_tenant_queue_depth;
  fopts.per_tenant_max_concurrency = options_.per_tenant_max_concurrency;
  // The serving clock: queue-age shedding compares request deadlines
  // against the shared pool's virtual time, the same clock execution
  // charges deadlines against.
  fopts.now = [this] { return pool_.Now(); };
  sched_ = std::make_unique<FairScheduler>(std::move(fopts));
  const int n = std::max(1, options_.num_workers);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  if (options_.http_port != 0) StartHttpEndpoint();
}

UnifyService::~UnifyService() {
  // Stop the endpoint before any member is destroyed: its handlers read
  // the counters, recorder, ledger, and pool. Stop() joins every
  // in-flight connection.
  if (http_ != nullptr) http_->Stop();
  // Drain, don't drop: Dequeue() keeps handing out (or shedding) queued
  // tasks after Shutdown() until the queues empty, so every submitted
  // future resolves before the workers exit.
  sched_->Shutdown();
  for (std::thread& t : workers_) t.join();
}

void UnifyService::WorkerLoop() {
  FairScheduler::Task task;
  while (sched_->Dequeue(&task)) {
    task.run();
    sched_->OnComplete(task.tenant);
    // Release the closures (promise, request) before blocking in Dequeue.
    task = FairScheduler::Task();
  }
}

double UnifyService::UptimeSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

std::future<QueryResult> UnifyService::Submit(QueryRequest request) {
  auto promise = std::make_shared<std::promise<QueryResult>>();
  std::future<QueryResult> future = promise->get_future();
  // The same derivation AnswerInternal uses, so flight-recorder events
  // match the QueryResult's id.
  const uint64_t query_id = request.query_id != 0
                                ? request.query_id
                                : StableHash64(request.text);

  ServeEvent event;
  event.query_id = query_id;
  event.client_tag = request.client_tag;
  QueryResult failed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (inflight_ >= options_.max_queue_depth) {
      // Global admission control: the scheduler refines it with
      // per-tenant caps but never loosens it. The ledger is updated under
      // mu_, so stats() (which snapshots counters and tenants in one mu_
      // section) never sees the reject counted but the tenant map not yet
      // updated (lock-order note in service.h).
      rejected_ += 1;
      MetricAddCounter(telemetry::kMetricServeRejected);
      tenant_ledger_.RecordRejection(request.client_tag);
      failed.status = Status::ResourceExhausted(
          "serving queue full (" + std::to_string(inflight_) + " in flight, "
          "max_queue_depth " + std::to_string(options_.max_queue_depth) +
          ")");
      failed.phase = QueryPhase::kAdmission;
      failed.client_tag = request.client_tag;
      failed.query_id = query_id;
      event.kind = ServeEventKind::kReject;
      event.phase = QueryPhaseName(failed.phase);
      event.detail = failed.status.message();
    } else {
      auto req = std::make_shared<QueryRequest>(std::move(request));
      FairScheduler::Task task;
      task.tenant = req->client_tag;
      task.priority = req->priority;
      task.deadline_seconds = req->deadline_seconds > 0
                                  ? req->deadline_seconds
                                  : options_.default_deadline_seconds;
      task.arrival_seconds = req->arrival_seconds;
      const auto enqueued = std::chrono::steady_clock::now();
      task.run = [this, promise, req, enqueued] {
        const double queue_wall_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          enqueued)
                .count();
        promise->set_value(Serve(*req, queue_wall_seconds));
      };
      task.shed = [this, promise, req, query_id](double queue_wall_seconds) {
        promise->set_value(ShedResult(*req, query_id, queue_wall_seconds));
      };
      // Enqueue under mu_ (mu_ -> sched.mu_; the scheduler never calls
      // out while holding its lock, so the order cannot invert): the
      // tenant-cap check and the admission counters commit atomically —
      // no rollback path, and stats() sees them move together.
      if (Status st = sched_->Enqueue(std::move(task)); !st.ok()) {
        rejected_ += 1;
        MetricAddCounter(telemetry::kMetricServeRejected);
        tenant_ledger_.RecordRejection(req->client_tag);
        failed.status = std::move(st);
        failed.phase = QueryPhase::kAdmission;
        failed.client_tag = req->client_tag;
        failed.query_id = query_id;
        event.kind = ServeEventKind::kTenantReject;
        event.phase = QueryPhaseName(failed.phase);
        event.detail = failed.status.message();
      } else {
        submitted_ += 1;
        inflight_ += 1;
        MetricAddCounter(telemetry::kMetricServeSubmitted);
        MetricSetGauge(telemetry::kMetricServeInflight,
                       static_cast<double>(inflight_));
        event.kind = ServeEventKind::kAdmit;
      }
    }
  }
  const bool admitted = event.kind == ServeEventKind::kAdmit;
  recorder_.Record(std::move(event));
  if (!admitted) promise->set_value(std::move(failed));
  return future;
}

QueryResult UnifyService::ShedResult(const QueryRequest& request,
                                     uint64_t query_id,
                                     double queue_wall_seconds) {
  const double deadline = request.deadline_seconds > 0
                              ? request.deadline_seconds
                              : options_.default_deadline_seconds;
  QueryResult result;
  char detail[160];
  std::snprintf(detail, sizeof(detail),
                "shed while queued: deadline %gs after virtual arrival %g "
                "already passed before dispatch",
                deadline, request.arrival_seconds);
  result.status = Status::DeadlineExceeded(detail);
  result.phase = QueryPhase::kAdmission;
  result.client_tag = request.client_tag;
  result.query_id = query_id;
  result.queue_wall_seconds = queue_wall_seconds;
  {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_ -= 1;
    shed_ += 1;
    MetricSetGauge(telemetry::kMetricServeInflight,
                   static_cast<double>(inflight_));
    // A shed counts for the tenant as a failed query with a deadline
    // miss; it counts in neither completed_ nor deadline_exceeded_ (those
    // are for *served* queries) — stats().shed carries it.
    tenant_ledger_.RecordCompletion(result);
  }

  // A shed is a user-visible failure: it burns SLO error budget exactly
  // like a served failure does.
  const double now_uptime = UptimeSeconds();
  const SloTracker::Outcome slo = slo_.Record(now_uptime, false);
  MetricAddCounter(telemetry::kMetricSloBad);
  MetricSetGauge(telemetry::kMetricSloBurnRateFast, slo.burn_rate_fast);
  MetricSetGauge(telemetry::kMetricSloBurnRateSlow, slo.burn_rate_slow);
  MetricSetGauge(telemetry::kMetricServeUptime, now_uptime);

  ServeEvent shed;
  shed.kind = ServeEventKind::kShed;
  shed.query_id = query_id;
  shed.client_tag = result.client_tag;
  shed.phase = QueryPhaseName(result.phase);
  shed.detail = result.status.message();
  shed.queue_wall_seconds = queue_wall_seconds;
  if (slo.breach_started) {
    char breach_detail[160];
    std::snprintf(breach_detail, sizeof(breach_detail),
                  "burn rate fast %.2f / slow %.2f over threshold %.2f "
                  "(target %g)",
                  slo.burn_rate_fast, slo.burn_rate_slow,
                  slo_.options().breach_burn_rate, slo_.options().target);
    ServeEvent breach = shed;
    breach.kind = ServeEventKind::kSloBreach;
    breach.detail = breach_detail;
    recorder_.Record(std::move(breach));
  }
  recorder_.Record(std::move(shed));
  return result;
}

QueryResult UnifyService::Serve(const QueryRequest& request,
                                double queue_wall_seconds) {
  MetricObserve(telemetry::kMetricServeQueueWait, queue_wall_seconds);
  {
    ServeEvent start;
    start.kind = ServeEventKind::kStart;
    start.query_id = request.query_id != 0 ? request.query_id
                                           : StableHash64(request.text);
    start.client_tag = request.client_tag;
    start.queue_wall_seconds = queue_wall_seconds;
    recorder_.Record(std::move(start));
  }

  QueryRequest effective = request;
  if (effective.deadline_seconds <= 0) {
    effective.deadline_seconds = options_.default_deadline_seconds;
  }

  // The serve.query span parents the query's own span tree, so a served
  // trace shows the serving layer on top of the usual lifecycle.
  std::shared_ptr<Trace> trace;
  if (system_->options().collect_trace) trace = std::make_shared<Trace>();
  QueryResult result;
  {
    // Null-trace ScopedSpan is a no-op, so the flow stays unconditional.
    ScopedSpan serve_span(trace.get(), telemetry::kSpanServeQuery, kNoSpan);
    if (!effective.client_tag.empty()) {
      serve_span.AddAttr("client", effective.client_tag);
    }
    serve_span.AddAttr("queue_wall_seconds", queue_wall_seconds);
    result = system_->AnswerInternal(effective, &pool_, trace,
                                     serve_span.id());
    serve_span.AddAttr("status", result.status.ok()
                                     ? std::string("ok")
                                     : result.status.ToString());
    serve_span.SetVirtualInterval(result.arrival_seconds,
                                  result.completion_seconds);
  }
  result.queue_wall_seconds = queue_wall_seconds;

  {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_ -= 1;
    completed_ += 1;
    if (result.status.code() == StatusCode::kDeadlineExceeded) {
      deadline_exceeded_ += 1;
      MetricAddCounter(telemetry::kMetricServeDeadlineExceeded);
    }
    if (result.phase == QueryPhase::kDegraded) {
      degraded_ += 1;
      MetricAddCounter(telemetry::kMetricServeDegraded);
    }
    MetricSetGauge(telemetry::kMetricServeInflight,
                   static_cast<double>(inflight_));
    // Per-tenant attribution (exact, from the query's own metrics) in the
    // same mu_ section as the counters it must agree with: stats() also
    // samples both under mu_, so a snapshot never shows a completion the
    // tenant map has not absorbed yet (lock-order note in service.h).
    tenant_ledger_.RecordCompletion(result);
  }

  // The SLO ledger runs outside any per-query metrics sink, so the
  // serve.slo.* telemetry never leaks into QueryResult::metrics.
  const double now_uptime = UptimeSeconds();
  const bool slo_good = slo_.IsGood(result.status.ok(), result.total_seconds);
  const SloTracker::Outcome slo = slo_.Record(now_uptime, slo_good);
  MetricAddCounter(slo_good ? telemetry::kMetricSloGood
                            : telemetry::kMetricSloBad);
  MetricSetGauge(telemetry::kMetricSloBurnRateFast, slo.burn_rate_fast);
  MetricSetGauge(telemetry::kMetricSloBurnRateSlow, slo.burn_rate_slow);
  MetricSetGauge(telemetry::kMetricServeUptime, now_uptime);

  // Postmortem events: SLO-breach, replan and deadline-miss markers
  // first, then the terminal completion event carrying phase + timings.
  ServeEvent completion;
  completion.query_id = result.query_id;
  completion.client_tag = result.client_tag;
  completion.phase = QueryPhaseName(result.phase);
  completion.queue_wall_seconds = queue_wall_seconds;
  completion.plan_seconds = result.plan_seconds;
  completion.exec_seconds = result.exec_seconds;
  completion.total_seconds = result.total_seconds;
  if (slo.breach_started) {
    char detail[160];
    std::snprintf(detail, sizeof(detail),
                  "burn rate fast %.2f / slow %.2f over threshold %.2f "
                  "(target %g)",
                  slo.burn_rate_fast, slo.burn_rate_slow,
                  slo_.options().breach_burn_rate, slo_.options().target);
    ServeEvent breach = completion;
    breach.kind = ServeEventKind::kSloBreach;
    breach.detail = detail;
    recorder_.Record(std::move(breach));
  }
  if (result.adjusted || result.used_fallback) {
    MetricAddCounter(telemetry::kMetricServeReplans);
    ServeEvent replan = completion;
    replan.kind = ServeEventKind::kReplan;
    replan.detail = result.adjusted ? "plan adjustment" : "planning fallback";
    recorder_.Record(std::move(replan));
  }
  // One event per mid-query re-optimization (docs/replanning.md), carrying
  // the pipeline's one-line summary of the trigger and the verdict.
  for (const ReplanRecord& rec : result.replans) {
    MetricAddCounter(telemetry::kMetricServeReplans);
    ServeEvent replan = completion;
    replan.kind = ServeEventKind::kReplan;
    replan.detail = rec.detail;
    recorder_.Record(std::move(replan));
  }
  if (result.status.code() == StatusCode::kDeadlineExceeded) {
    ServeEvent miss = completion;
    miss.kind = ServeEventKind::kDeadlineMiss;
    miss.detail = result.status.message();
    recorder_.Record(std::move(miss));
  }
  if (result.phase == QueryPhase::kDegraded) {
    ServeEvent degraded = completion;
    degraded.kind = ServeEventKind::kDegraded;
    degraded.detail = result.degraded_detail;
    recorder_.Record(std::move(degraded));
  }
  completion.kind = ServeEventKind::kComplete;
  completion.detail =
      result.status.ok() ? std::string("ok") : result.status.ToString();
  recorder_.Record(std::move(completion));

  SlowQuery slow;
  slow.query_id = result.query_id;
  slow.client_tag = result.client_tag;
  slow.text = request.text;
  slow.total_seconds = result.total_seconds;
  slow.plan_seconds = result.plan_seconds;
  slow.exec_seconds = result.exec_seconds;
  slow.trace = result.trace;
  recorder_.RecordSlow(std::move(slow));
  return result;
}

QueryResult UnifyService::Answer(QueryRequest request) {
  return Submit(std::move(request)).get();
}

QueryResult UnifyService::Answer(const std::string& text) {
  QueryRequest request;
  request.text = text;
  return Answer(std::move(request));
}

UnifyService::Stats UnifyService::stats() const {
  Stats s;
  {
    // One mu_ section for the counters AND the tenant/scheduler state
    // they must agree with — the update paths (Submit, Serve, ShedResult)
    // mutate both under the same lock, so this snapshot is consistent.
    std::lock_guard<std::mutex> lock(mu_);
    s.submitted = submitted_;
    s.rejected = rejected_;
    s.completed = completed_;
    s.deadline_exceeded = deadline_exceeded_;
    s.degraded = degraded_;
    s.shed = shed_;
    s.inflight = inflight_;
    s.tenants = tenant_ledger_.snapshot();
    s.sched = sched_->stats();
  }
  s.uptime_seconds = UptimeSeconds();
  MetricSetGauge(telemetry::kMetricServeUptime, s.uptime_seconds);
  s.pool_now = pool_.Now();
  s.pool_busy_seconds = pool_.TotalBusySeconds();
  if (system_->llm_cache() != nullptr) {
    s.cache = system_->llm_cache()->stats();
  }
  s.slo = slo_.state(s.uptime_seconds);
  return s;
}

// --- embedded HTTP endpoint ------------------------------------------------

void UnifyService::StartHttpEndpoint() {
  http_ = std::make_unique<serving::HttpServer>();
  http_->Handle(serving::kRouteMetrics,
                [this](const serving::HttpRequest&) {
                  return HandleMetrics();
                });
  http_->Handle(serving::kRouteHealthz, [](const serving::HttpRequest&) {
    serving::HttpResponse response;
    response.body = "ok\n";
    return response;
  });
  http_->Handle(serving::kRouteReadyz, [this](const serving::HttpRequest&) {
    return HandleReadyz();
  });
  http_->Handle(serving::kRouteStatusz,
                [this](const serving::HttpRequest&) {
                  return HandleStatusz();
                });
  http_->Handle(serving::kRouteEvents, [this](const serving::HttpRequest&) {
    serving::HttpResponse response;
    response.content_type = "application/x-ndjson";
    response.body = recorder_.ToJsonl();
    return response;
  });
  http_->Handle(serving::kRouteSlow, [this](const serving::HttpRequest&) {
    serving::HttpResponse response;
    response.content_type = "application/x-ndjson";
    response.body = recorder_.SlowQueriesToJsonl();
    return response;
  });
  http_->Handle(serving::kRouteAccuracy,
                [](const serving::HttpRequest&) {
                  serving::HttpResponse response;
                  response.body = AccuracyReport(
                      MetricsRegistry::Global().Snapshot());
                  return response;
                });
  http_->Handle(serving::kRouteTenants,
                [this](const serving::HttpRequest&) {
                  serving::HttpResponse response;
                  response.content_type = "application/json";
                  // The ledger plus live queue state:
                  // {"usage": <ledger>, "sched": {tenant: {...}}}.
                  std::string usage = tenant_ledger_.ToJson();
                  while (!usage.empty() && usage.back() == '\n') {
                    usage.pop_back();
                  }
                  const FairScheduler::Stats st = sched_->stats();
                  char buf[64];
                  std::ostringstream os;
                  os << "{\"usage\":" << usage << ",\"sched\":{";
                  bool first = true;
                  for (const auto& [tenant, t] : st.tenants) {
                    if (!first) os << ",";
                    first = false;
                    std::snprintf(buf, sizeof(buf), "%.9g", t.weight);
                    os << "\"" << JsonEscape(tenant)
                       << "\":{\"weight\":" << buf
                       << ",\"queued\":" << t.queued
                       << ",\"running\":" << t.running
                       << ",\"dispatched\":" << t.dispatched
                       << ",\"shed\":" << t.sheds
                       << ",\"rejected\":" << t.rejected << "}";
                  }
                  os << "}}\n";
                  response.body = os.str();
                  return response;
                });

  serving::HttpServer::Options hopts;
  hopts.port = options_.http_port < 0 ? 0 : options_.http_port;
  if (Status st = http_->Start(hopts); !st.ok()) {
    UNIFY_LOG(Warning) << "HTTP endpoint disabled: " << st;
    http_.reset();
  }
}

serving::HttpResponse UnifyService::HandleMetrics() const {
  MetricSetGauge(telemetry::kMetricServeUptime, UptimeSeconds());
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  tenant_ledger_.AnnotateSnapshot(&snap);
  serving::HttpResponse response;
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  response.body = snap.ToPrometheusText();
  return response;
}

serving::HttpResponse UnifyService::HandleReadyz() const {
  int64_t inflight;
  {
    std::lock_guard<std::mutex> lock(mu_);
    inflight = inflight_;
  }
  serving::HttpResponse response;
  if (inflight < options_.max_queue_depth) {
    response.body = "ready\n";
    return response;
  }
  // Tell the load balancer *why* the replica is not ready, not just that
  // it is not: it is at admission-control pressure with `serve.inflight`
  // requests queued or running against the configured depth.
  response.status = 503;
  response.content_type = "application/json";
  std::ostringstream os;
  os << "{\"ready\":false,\"reason\":\"admission-control pressure\","
     << "\"serve.inflight\":" << inflight
     << ",\"queue_depth\":" << inflight
     << ",\"max_queue_depth\":" << options_.max_queue_depth << "}\n";
  response.body = os.str();
  return response;
}

serving::HttpResponse UnifyService::HandleStatusz() const {
  const Stats s = stats();
  const int num_servers = std::max(1, system_->options().exec.num_servers);
  const double occupancy =
      s.pool_now > 0 ? s.pool_busy_seconds / (num_servers * s.pool_now) : 0;
  char buf[64];
  auto num = [&buf](double v) {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return std::string(buf);
  };
  std::ostringstream os;
  os << "{\"uptime_seconds\":" << num(s.uptime_seconds)
     << ",\"stats\":{\"submitted\":" << s.submitted
     << ",\"rejected\":" << s.rejected << ",\"completed\":" << s.completed
     << ",\"deadline_exceeded\":" << s.deadline_exceeded
     << ",\"degraded\":" << s.degraded << ",\"inflight\":" << s.inflight
     << "},\"pool\":{\"now\":" << num(s.pool_now)
     << ",\"busy_seconds\":" << num(s.pool_busy_seconds)
     << ",\"num_servers\":" << num_servers
     << ",\"occupancy\":" << num(occupancy)
     << "},\"cache\":{\"entries\":" << s.cache.entries
     << ",\"bytes\":" << s.cache.bytes
     << ",\"item_hits\":" << s.cache.item_hits
     << ",\"item_misses\":" << s.cache.item_misses
     << ",\"coalesced\":" << s.cache.coalesced
     << ",\"evictions\":" << s.cache.evictions
     << ",\"saved_dollars\":" << num(s.cache.saved_dollars)
     << "},\"slo\":{\"good\":" << s.slo.good << ",\"bad\":" << s.slo.bad
     << ",\"burn_rate_fast\":" << num(s.slo.burn_rate_fast)
     << ",\"burn_rate_slow\":" << num(s.slo.burn_rate_slow)
     << ",\"in_breach\":" << (s.slo.in_breach ? "true" : "false")
     << ",\"latency_objective_seconds\":"
     << num(slo_.options().latency_objective_seconds)
     << ",\"target\":" << num(slo_.options().target)
     << "},\"tenants\":" << s.tenants.size()
     << ",\"workers\":" << options_.num_workers
     << ",\"max_queue_depth\":" << options_.max_queue_depth
     << ",\"sched\":{\"queued\":" << s.sched.queued
     << ",\"running\":" << s.sched.running
     << ",\"dispatched\":" << s.sched.dispatched
     << ",\"shed\":" << s.sched.sheds
     << ",\"tenant_rejects\":" << s.sched.tenant_rejects
     << ",\"wheel_rotations\":" << s.sched.wheel_rotations
     << ",\"queued_by_class\":{\"batch\":" << s.sched.queued_by_class[0]
     << ",\"normal\":" << s.sched.queued_by_class[1]
     << ",\"interactive\":" << s.sched.queued_by_class[2] << "}}}\n";
  serving::HttpResponse response;
  response.content_type = "application/json";
  response.body = os.str();
  return response;
}

}  // namespace unify::core
