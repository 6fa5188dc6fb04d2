// Multi-tenant query control vocabulary: latency classes, cooperative
// cancellation, and deadlines.
//
// These types live in common/ (not runtime/) because they cross every
// layer: the scheduler stamps them at admission, the evaluator checks
// them before every partition acquire, and the io layer checks them
// inside cold-load single-flight waits — none of which may depend on the
// layers above.
//
// Cancellation is *cooperative*: a CancelToken never interrupts a running
// kernel. Executors poll Check() at natural boundaries (partition
// acquires, cold-load waits) and abort by throwing QueryAborted,
// which the per-job failure isolation in runtime::WorkerPool turns into
// "this query's future resolves with the Status; co-resident queries are
// untouched". Classes and deadlines affect only *when* chunks run, never
// merge order or results — the determinism contract is class-blind.
#ifndef PS3_COMMON_QUERY_CONTROL_H_
#define PS3_COMMON_QUERY_CONTROL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "common/status.h"

namespace ps3 {

/// Admission class of a query. Interactive queries preempt batch work at
/// chunk granularity (weighted, so batch still progresses) and are exempt
/// from the batch share of the prefetch read-ahead budget; batch is the
/// default everywhere, so classless call sites keep their old behavior.
enum class QueryClass : uint8_t {
  kBatch = 0,
  kInteractive = 1,
};

/// "batch" / "interactive".
const char* QueryClassName(QueryClass c);

/// Shared cancellation + deadline flag for one query (or one group of
/// queries cancelled together). Thread-safe; cheap enough to poll per
/// partition: Cancel()/cancelled() are single atomic ops, and Check()
/// reads the clock only when a deadline is armed.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Requests cooperative cancellation. Idempotent; safe from any thread.
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// Arms (or re-arms) an absolute deadline. A deadline at or before
  /// "now" is already expired: the next Check() fails. The scheduler
  /// arms this at *admission*, so queue wait counts against the budget.
  void SetDeadline(std::chrono::steady_clock::time_point deadline) {
    int64_t us = std::chrono::duration_cast<std::chrono::microseconds>(
                     deadline.time_since_epoch())
                     .count();
    // 0 is the "no deadline" sentinel; an epoch-exact deadline (never a
    // real steady_clock value) nudges to the adjacent microsecond.
    if (us == 0) us = 1;
    deadline_us_.store(us, std::memory_order_release);
  }
  bool has_deadline() const {
    return deadline_us_.load(std::memory_order_acquire) != 0;
  }

  /// OK while the query may keep running; Status::Cancelled or
  /// Status::DeadlineExceeded once it must stop. Monotone: a non-OK
  /// answer never reverts (cancel latches, steady_clock is monotonic).
  Status Check() const;

 private:
  std::atomic<bool> cancelled_{false};
  /// Deadline as microseconds since the steady_clock epoch; 0 = none.
  std::atomic<int64_t> deadline_us_{0};
};

/// Thrown by executors when a CancelToken fires mid-query. Derives from
/// std::runtime_error so generic "query failed" handling keeps working;
/// carries the structured Status (kCancelled / kDeadlineExceeded) so the
/// future's consumer can tell an abort from a real error.
class QueryAborted : public std::runtime_error {
 public:
  explicit QueryAborted(Status status)
      : std::runtime_error(status.ToString()), status_(std::move(status)) {}

  const Status& status() const { return status_; }

 private:
  Status status_;
};

/// Thrown when a query fails for a structural reason that is not an
/// abort: permanently lost partitions under DegradedMode::kFail, an
/// exhausted retry budget, an open circuit breaker. Distinct from
/// QueryAborted on purpose — aborts are the *caller's* doing and count
/// toward no error statistic; failures are the *store's* doing and the
/// consumer may want to resubmit in a degraded mode.
class QueryFailed : public std::runtime_error {
 public:
  explicit QueryFailed(Status status)
      : std::runtime_error(status.ToString()), status_(std::move(status)) {}

  const Status& status() const { return status_; }

 private:
  Status status_;
};

/// Throws QueryAborted if `cancel` (nullable) has fired. The one-liner
/// executors use at partition and acquire boundaries.
inline void ThrowIfAborted(const CancelToken* cancel) {
  if (cancel == nullptr) return;
  Status live = cancel->Check();
  if (!live.ok()) throw QueryAborted(std::move(live));
}

}  // namespace ps3

#endif  // PS3_COMMON_QUERY_CONTROL_H_
