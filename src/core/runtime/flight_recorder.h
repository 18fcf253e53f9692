#ifndef UNIFY_CORE_RUNTIME_FLIGHT_RECORDER_H_
#define UNIFY_CORE_RUNTIME_FLIGHT_RECORDER_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/trace.h"

namespace unify::core {

/// What happened to a served query at one point of its lifecycle. The
/// lowercase names (ServeEventKindName) are the telemetry::kEvent*
/// constants documented in docs/observability.md, "Flight recorder".
enum class ServeEventKind {
  /// Accepted into the serving queue.
  kAdmit,
  /// Picked up by a worker (queue wait is known here).
  kStart,
  /// Finished serving — success or failure; `detail` carries the status.
  kComplete,
  /// Rejected by admission control (queue full); terminal.
  kReject,
  /// Completed past its deadline (also records a kComplete event).
  kDeadlineMiss,
  /// Execution replanned mid-flight: plan adjustment or fallback.
  kReplan,
  /// Completed degraded: graceful degradation absorbed a transient LLM
  /// failure (also records a kComplete event; `detail` names the fault).
  kDegraded,
  /// The SLO tracker's burn rates crossed the breach threshold
  /// (edge-triggered per episode; `detail` carries the rates — see
  /// core/runtime/slo_tracker.h and "SLOs" in docs/observability.md).
  kSloBreach,
  /// A queued request was shed by the fair scheduler: its deadline could
  /// no longer be met, so it failed without occupying a worker; terminal.
  kShed,
  /// Rejected by the tenant's queue-depth cap in the fair scheduler
  /// (before the global queue filled); terminal.
  kTenantReject,
};

const char* ServeEventKindName(ServeEventKind kind);

/// One structured postmortem event. Plain value type; string fields stay
/// small (tags and status messages, not payloads).
struct ServeEvent {
  ServeEventKind kind = ServeEventKind::kAdmit;
  /// Monotone sequence number over the recorder's lifetime (never reset
  /// by ring eviction — gaps reveal how much history was dropped).
  uint64_t seq = 0;
  /// Wall-clock seconds since the recorder was constructed.
  double wall_seconds = 0;
  uint64_t query_id = 0;
  std::string client_tag;
  /// QueryPhaseName of the phase the query had reached (completion-side
  /// events; empty for admit/start).
  std::string phase;
  /// Status message, rejection reason, or replan description.
  std::string detail;
  /// Timings, populated on completion-side events (virtual seconds except
  /// queue_wall_seconds).
  double queue_wall_seconds = 0;
  double plan_seconds = 0;
  double exec_seconds = 0;
  double total_seconds = 0;
};

/// A retained slow query: enough to do a postmortem without re-running —
/// including its full trace when the query collected one.
struct SlowQuery {
  uint64_t query_id = 0;
  std::string client_tag;
  std::string text;
  double total_seconds = 0;
  double plan_seconds = 0;
  double exec_seconds = 0;
  /// The query's lifecycle trace (null when tracing was off).
  std::shared_ptr<Trace> trace;
};

/// A bounded, thread-safe structured event ring for the serving layer's
/// postmortem story: UnifyService records admission, start, completion,
/// rejection, deadline-miss, and replan events here, plus a top-K
/// slowest-query list with their traces. Readers get consistent
/// snapshots; writers pay one mutex acquisition — noise next to the
/// planning/execution work they annotate.
class FlightRecorder {
 public:
  struct Options {
    /// Events retained; older ones are overwritten (ring buffer).
    size_t capacity = 256;
    /// Slowest queries retained (by total_seconds).
    size_t slow_queries = 8;
  };

  FlightRecorder() : FlightRecorder(Options()) {}
  explicit FlightRecorder(Options options);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Records one event (seq and wall_seconds are assigned here) and
  /// returns its sequence number.
  uint64_t Record(ServeEvent event);

  /// Offers a completed query to the slow list; kept only while it ranks
  /// among the slowest Options::slow_queries by total_seconds.
  void RecordSlow(SlowQuery query);

  /// The retained events, oldest first.
  std::vector<ServeEvent> events() const;

  /// The retained slow queries, slowest first.
  std::vector<SlowQuery> slow_queries() const;

  /// Events ever recorded (≥ events().size()).
  uint64_t total_recorded() const;

  /// The retained events as JSON Lines, oldest first: one object per
  /// line with kind/seq/wall_seconds/query_id/client_tag/phase/detail and
  /// the timing fields (timings omitted when zero).
  std::string ToJsonl() const;

  /// The retained slow queries as JSON Lines, slowest first (one object
  /// per query: query_id/client_tag/text/timings; traces are not
  /// serialized — export those via Trace::ToChromeJson()).
  std::string SlowQueriesToJsonl() const;

 private:
  Options options_;
  mutable std::mutex mu_;
  /// Ring storage: grows to capacity, then slot (seq % capacity) is
  /// overwritten.
  std::vector<ServeEvent> ring_;
  uint64_t next_seq_ = 0;
  std::vector<SlowQuery> slow_;
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace unify::core

#endif  // UNIFY_CORE_RUNTIME_FLIGHT_RECORDER_H_
