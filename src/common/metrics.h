#ifndef UNIFY_COMMON_METRICS_H_
#define UNIFY_COMMON_METRICS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/stats.h"

namespace unify {

/// A point-in-time copy of a MetricsRegistry's contents. Counter deltas
/// between two snapshots isolate one operation's contribution (the
/// pattern `UnifySystem::Answer()` uses to attach per-query LLM totals to
/// its trace).
struct MetricsSnapshot {
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  /// Histogram copies (bounded reservoirs — see Histogram in
  /// common/stats.h — so quantiles work on the snapshot and memory stays
  /// bounded in long-lived serving processes).
  std::map<std::string, Histogram> histograms;

  /// Counters minus `earlier`'s counters (absent = 0; zero deltas are
  /// dropped). Gauges and histograms keep their current values: they are
  /// level/distribution metrics, not monotone sums.
  MetricsSnapshot DeltaSince(const MetricsSnapshot& earlier) const;

  /// One metric per line: `name value` for counters/gauges,
  /// `name count/mean/p50/p99` for histograms. Sorted by name.
  std::string ToText() const;

  /// Prometheus text exposition format (version 0.0.4). Metric names are
  /// sanitized to [a-zA-Z0-9_:] and prefixed with `unify_`; every metric
  /// gets `# HELP` and `# TYPE` lines. Counters expose as `counter`,
  /// gauges as `gauge`, histograms as `summary` with quantile 0.5/0.9/
  /// 0.99 series plus `_sum`/`_count`.
  ///
  /// Labeled series: a registry name of the form `base{key="value"}`
  /// (compose with LabeledMetricName so the value is escaped) renders as
  /// one `unify_base{key="value"}` sample; all samples of one base share
  /// a single HELP/TYPE header. Names without `{` render exactly as
  /// before — the unlabeled output is byte-identical.
  std::string ToPrometheusText() const;
};

/// Composes the registry name of a labeled series: `base{key="value"}`,
/// with `value` escaped per the Prometheus text format (`\` -> `\\`,
/// `"` -> `\"`, newline -> `\n`). The per-tenant `tenant.*` series are
/// keyed this way (docs/observability.md, "Per-tenant accounting").
std::string LabeledMetricName(const std::string& base, const std::string& key,
                              const std::string& value);

/// A process-wide registry of named counters, gauges, and histograms —
/// the metrics side of the observability layer (spans live in
/// common/trace.h). Thread-safe; names are flat dotted strings from the
/// catalog in src/common/telemetry_names.h (documented in
/// docs/observability.md).
///
/// Metrics are cheap enough to record unconditionally: one mutex
/// acquisition and a map lookup per update, on paths that are dominated
/// by (virtual) LLM calls.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Adds `delta` to the counter (created at 0 on first use).
  void AddCounter(const std::string& name, double delta = 1.0);

  /// Sets the gauge's current value.
  void SetGauge(const std::string& name, double value);

  /// Records one observation into the histogram.
  void Observe(const std::string& name, double value);

  /// Current counter value; 0 if never touched.
  double counter(const std::string& name) const;

  /// Current gauge value; 0 if never set.
  double gauge(const std::string& name) const;

  MetricsSnapshot Snapshot() const;

  /// Drops every metric (tests; not used on serving paths).
  void Reset();

  /// The process-wide registry all instrumented components write to.
  static MetricsRegistry& Global();

  /// The calling thread's additional per-query sink (nullptr when none).
  /// Instrumented sites that use the Metric* free functions below write
  /// to Global() AND to this sink, which is how `QueryResult::metrics`
  /// stays exact under concurrent serving: each query installs its own
  /// local registry on the thread that works on it.
  static MetricsRegistry* ThreadSink();

  /// RAII installer for ThreadSink(). Restores the previous sink on
  /// destruction, so scopes nest (the per-query registry stays installed
  /// across nested spans). Pass nullptr to suppress sink writes inside
  /// the scope.
  class ScopedSink {
   public:
    explicit ScopedSink(MetricsRegistry* sink);
    ~ScopedSink();
    ScopedSink(const ScopedSink&) = delete;
    ScopedSink& operator=(const ScopedSink&) = delete;

   private:
    MetricsRegistry* prev_;
  };

 private:
  mutable std::mutex mu_;
  std::map<std::string, double> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// Record into the process-wide registry and, when one is installed, the
/// calling thread's per-query sink. All instrumented components use these
/// instead of calling MetricsRegistry::Global() directly so per-query
/// attribution works (docs/observability.md, "Per-query attribution").
void MetricAddCounter(const std::string& name, double delta = 1.0);
void MetricSetGauge(const std::string& name, double value);
void MetricObserve(const std::string& name, double value);

}  // namespace unify

#endif  // UNIFY_COMMON_METRICS_H_
