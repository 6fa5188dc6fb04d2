// Retry, backoff, and circuit-breaking vocabulary for unreliable
// (remote / disaggregated) storage.
//
// These types live in common/ because they cross layers the same way the
// query-control types do: the io layer's cold-load path executes them,
// tests and the bench configure them, and nothing here may depend on io/
// or runtime/.
//
// Everything is deterministic by construction: backoff jitter is a hash
// of (salt, attempt) under a fixed seed — not a live RNG — so the same
// retry policy replays the same sleep schedule, which is what lets the
// fault-injection tests assert timing-adjacent behavior without
// flaking. Backoff sleeps are cooperative: SleepWithCancel polls the
// query's CancelToken in slices, so a retry loop can never outlive the
// query's deadline by more than one poll period.
#ifndef PS3_COMMON_RETRY_H_
#define PS3_COMMON_RETRY_H_

#include <cstddef>
#include <cstdint>
#include <chrono>
#include <mutex>

#include "common/query_control.h"
#include "common/status.h"

namespace ps3 {

/// Retry policy for one cold-load step (one claimed batch of column
/// segments). Attempts are *total* tries: max_attempts = 1 disables
/// retries and reproduces the single-shot behavior exactly.
struct RetryPolicy {
  /// Total load attempts per step (>= 1). Transient failures
  /// (Status::Unavailable) are retried up to this count; corruption gets
  /// exactly one evict-and-refetch regardless (see the store), and lost
  /// partitions are never retried.
  int max_attempts = 3;
  /// First backoff, before deterministic jitter.
  size_t backoff_base_us = 200;
  /// Exponential growth factor between attempts.
  double backoff_multiplier = 2.0;
  /// Ceiling on a single backoff sleep.
  size_t backoff_cap_us = 20000;
  /// Jitter as a fraction of the computed backoff, in [0, 1]: the actual
  /// sleep is backoff * (1 + jitter_fraction * u) where u in [0, 1) is a
  /// fixed-seed hash of (salt, attempt), so the same salts give a
  /// bit-identical backoff schedule. 0 disables jitter.
  double jitter_fraction = 0.25;
  /// Wall-clock budget for retrying one load step, backoffs included;
  /// once exceeded the last error surfaces. 0 = unlimited (the query's
  /// own deadline still bounds everything via the CancelToken).
  size_t retry_time_budget_us = 500000;
};

/// Deterministic backoff for retry number `retry` (1 = first re-attempt):
/// min(cap, base * multiplier^(retry-1)) plus hashed jitter. `salt`
/// distinguishes concurrent retry chains (e.g. partition index) so their
/// jitters decorrelate without sharing any RNG state.
size_t BackoffUs(const RetryPolicy& policy, int retry, uint64_t salt);

/// Sleeps `us` microseconds in short slices, polling `cancel` and `stop`
/// (both nullable; `stop` is e.g. a hedge racer's local token) before
/// each slice and once at the end. Returns OK after a full sleep, or the
/// first fired token's Status — a sleep can overshoot a deadline by at
/// most one slice.
Status SleepWithCancel(size_t us, const CancelToken* cancel,
                       const CancelToken* stop = nullptr);

/// Circuit-breaker policy for one store. The breaker sits *above* the
/// retry loop: it counts load steps that failed after exhausting their
/// retries, so threshold N means N consecutive hopeless loads, not N
/// transient blips.
struct CircuitBreakerPolicy {
  /// Consecutive failed load steps that open the circuit. 0 disables the
  /// breaker entirely (never opens, never rejects).
  int failure_threshold = 8;
  /// How long an open circuit fails fast before admitting one half-open
  /// probe. 0 = the very next load is the probe (deterministic tests).
  size_t open_duration_us = 100000;
};

/// Thread-safe consecutive-failure circuit breaker.
///
/// Closed: everything admitted; a success resets the failure run.
/// Open:   Admit() fails fast until open_duration has passed.
/// Half-open: exactly one probe is admitted; its success closes the
/// circuit, its failure re-opens it for another cooldown. Aborted loads
/// (cancel/deadline) must not be recorded at all — they say nothing
/// about the store's health.
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  explicit CircuitBreaker(CircuitBreakerPolicy policy) : policy_(policy) {}

  /// True if a load may proceed (closed, or claimed the half-open
  /// probe); false to fail fast with Status::Unavailable. When
  /// `claimed_probe` is non-null it is set to whether THIS admission
  /// took the exclusive half-open probe slot — the caller must hand
  /// that flag back to RecordAbort if the load aborts. Every admitted
  /// load must report back exactly once — RecordSuccess, RecordFailure,
  /// or RecordAbort — or a claimed probe slot leaks and the breaker
  /// rejects forever.
  bool Admit(bool* claimed_probe = nullptr);
  /// Outcome of an admitted load step (after its retries resolved).
  void RecordSuccess();
  void RecordFailure();
  /// An admitted load that aborted (cancel/deadline) before resolving:
  /// says nothing about the store's health, so nothing is counted — but
  /// if the aborted load held the half-open probe slot (`claimed_probe`
  /// from its Admit call), the slot is released (back to open, cooldown
  /// already elapsed) so the next Admit() can probe again instead of
  /// wedging half-open forever.
  void RecordAbort(bool claimed_probe);

  State state() const;
  /// Transitions to open so far, including half-open -> open re-opens
  /// after a failed probe (so one outage with N failed probes counts
  /// 1 + N).
  uint64_t opens() const;
  /// Loads rejected while open.
  uint64_t open_rejects() const;

 private:
  using Clock = std::chrono::steady_clock;

  const CircuitBreakerPolicy policy_;
  mutable std::mutex mu_;
  State state_ = State::kClosed;        ///< guarded by mu_
  int consecutive_failures_ = 0;        ///< guarded by mu_
  bool probe_in_flight_ = false;        ///< guarded by mu_
  Clock::time_point open_until_{};      ///< guarded by mu_
  uint64_t opens_ = 0;                  ///< guarded by mu_
  uint64_t open_rejects_ = 0;           ///< guarded by mu_
};

}  // namespace ps3

#endif  // PS3_COMMON_RETRY_H_
