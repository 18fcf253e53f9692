#ifndef UNIFY_LLM_RESILIENT_CLIENT_H_
#define UNIFY_LLM_RESILIENT_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <mutex>

#include "llm/llm_client.h"

namespace unify::llm {

/// Capped exponential backoff with deterministic seeded jitter. All sleeps
/// are charged to the VIRTUAL clock (added to the final LlmResult.seconds),
/// so retried runs stay bit-for-bit reproducible.
struct RetryPolicy {
  /// Total attempts per logical call, including the first (1 = no retry).
  int max_attempts = 4;
  double initial_backoff_seconds = 0.5;
  double backoff_multiplier = 2.0;
  double max_backoff_seconds = 8.0;
  /// Jitter scales each backoff by a deterministic factor in
  /// [1 - jitter_fraction, 1 + jitter_fraction], keyed on
  /// (seed, call content, round).
  double jitter_fraction = 0.2;
};

/// Duplicate straggler calls. A hedge launches (in virtual time) once the
/// primary attempt has run for `latency_threshold_seconds`; the earlier
/// completion wins and the loser is cancelled, charged only the dollars it
/// accrued up to the winner's completion.
struct HedgePolicy {
  bool enabled = false;
  double latency_threshold_seconds = 2.0;
};

/// Per-model-tier circuit breaker. The breaker keeps its own virtual clock
/// — the cumulative observed virtual seconds of calls (and fast-fail
/// rejections) flowing through that tier — so open windows expire
/// deterministically without wall-clock time.
struct CircuitBreakerPolicy {
  bool enabled = false;
  /// Consecutive transient failures that trip the breaker open.
  int failure_threshold = 5;
  /// Virtual seconds the breaker stays open before admitting a probe.
  double open_seconds = 30.0;
  /// Virtual seconds charged by a fast-fail rejection while open.
  double fast_fail_seconds = 0.05;
};

struct ResilienceOptions {
  /// Seed of the jitter draws, independent of simulator and fault seeds.
  uint64_t seed = 4321;
  RetryPolicy retry;
  HedgePolicy hedge;
  CircuitBreakerPolicy breaker;
};

/// A shared, thread-safe pool of virtual seconds that retries may spend on
/// backoff. The runtime derives one per query from its deadline and
/// installs it thread-locally (RetryBudget::ScopedUse) on the query's
/// thread, mirroring the MetricsRegistry::ScopedSink pattern; the
/// ResilientLlmClient consults RetryBudget::Current() so every operator
/// and morsel of one query drains one budget.
class RetryBudget {
 public:
  explicit RetryBudget(double seconds) : remaining_(seconds) {}

  /// Consumes `seconds` if the full amount is available; returns false
  /// (consuming nothing) otherwise.
  bool TryConsume(double seconds);
  /// Consumes up to `seconds`, clamping at zero (best-effort charge).
  void Drain(double seconds);
  double remaining() const;

  /// The calling thread's installed budget, or nullptr.
  static RetryBudget* Current();

  /// RAII: installs `budget` as the calling thread's budget.
  class ScopedUse {
   public:
    explicit ScopedUse(RetryBudget* budget);
    ~ScopedUse();
    ScopedUse(const ScopedUse&) = delete;
    ScopedUse& operator=(const ScopedUse&) = delete;

   private:
    RetryBudget* previous_;
  };

 private:
  mutable std::mutex mu_;
  double remaining_;
};

/// The resilience decorator: retries transient failures with capped
/// exponential backoff + seeded jitter, optionally hedges stragglers, and
/// fast-fails through a per-tier circuit breaker. Composes over any
/// LlmClient whose failures follow the Status contract in llm_client.h
/// (in this repo: FaultInjectingLlmClient over SimulatedLlm).
///
/// All added latency is virtual: failed attempts, backoff sleeps and
/// hedges accumulate into the returned LlmResult's `seconds`/`dollars`,
/// which the execution module then schedules — reproducibility is
/// preserved because every coin (fault fates via call.attempt, jitter via
/// the resilience seed) is content-keyed.
class ResilientLlmClient : public LlmClient {
 public:
  enum class BreakerState { kClosed, kOpen, kHalfOpen };

  struct ResilienceStats {
    int64_t retries = 0;           ///< attempts beyond each call's first
    int64_t recovered = 0;         ///< calls OK after >= 1 retry
    int64_t exhausted = 0;         ///< calls failed with retries spent
    int64_t budget_exhausted = 0;  ///< retries denied by the retry budget
    int64_t hedges_launched = 0;
    int64_t hedge_wins = 0;        ///< hedge finished before the primary
    int64_t breaker_opens = 0;
    int64_t breaker_rejections = 0;
    int64_t breaker_probes = 0;
    int64_t breaker_closes = 0;
    double backoff_seconds = 0;    ///< virtual seconds slept in backoff
    double hedge_cancelled_dollars = 0;
  };

  /// `base` must outlive the decorator.
  ResilientLlmClient(LlmClient* base, ResilienceOptions options)
      : base_(base), options_(std::move(options)) {}

  LlmResult Call(const LlmCall& call) override;

  LlmUsage usage() const override { return base_->usage(); }
  void ResetUsage() override { base_->ResetUsage(); }

  const ResilienceOptions& options() const { return options_; }
  ResilienceStats resilience_stats() const;
  BreakerState breaker_state(ModelTier tier) const;

  /// The deterministic jittered backoff before retry round `round`
  /// (1-based: the sleep preceding the round-th retry). Exposed so tests
  /// can assert jitter determinism against an independent computation.
  double BackoffFor(const LlmCall& call, int round) const;

 private:
  struct Breaker {
    BreakerState state = BreakerState::kClosed;
    int consecutive_failures = 0;
    double now_seconds = 0;      ///< tier-local virtual clock
    double open_until_seconds = 0;
    bool probe_inflight = false;
  };

  /// One attempt round: breaker gate, base call, optional hedge race.
  /// Returns the round's result with `seconds` = the round's virtual
  /// elapsed time (hedge race resolved).
  LlmResult Attempt(const LlmCall& call, int round);

  /// Breaker bookkeeping (no-ops when disabled).
  bool BreakerAdmits(ModelTier tier, bool* is_probe);
  void BreakerRecord(ModelTier tier, bool ok, bool was_probe,
                     double observed_seconds);

  LlmClient* base_;
  ResilienceOptions options_;

  mutable std::mutex mu_;
  Breaker breakers_[2];  // indexed by ModelTier
  ResilienceStats stats_;
};

}  // namespace unify::llm

#endif  // UNIFY_LLM_RESILIENT_CLIENT_H_
