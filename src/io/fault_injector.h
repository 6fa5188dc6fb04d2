// Deterministic, seeded fault injection for the simulated remote
// partition store.
//
// A FaultPlan describes the store's failure behavior as a pure function
// of (seed, partition, column, attempt): every decision is a hash, never
// a live RNG, so the same plan replays the identical fault sequence —
// run to run, thread schedule to thread schedule. That determinism is
// what lets the fault battery assert exact outcomes ("attempt 1 fails
// transient, attempt 2 succeeds") and what extends the repo's
// determinism contract to faulty configs: same fault seed + retry policy
// + query seed ⇒ bit-identical answers and statuses.
//
// Fault kinds, and where the store applies them:
//
//   kTransient  the read fails with Status::Unavailable after the
//               simulated latency is paid (the bytes "moved" and were
//               dropped) — the retryable class.
//   kLatency    the read succeeds but pays an extra latency spike on
//               top of the simulated base latency — the hedging class.
//   kCorrupt    one encoded byte of the column's segment is bit-flipped
//               before checksum verification, so the real corruption
//               machinery (checksum mismatch → Status::Internal)
//               surfaces it — the evict-and-refetch class.
//   kLost       the partition is permanently unreachable: every attempt
//               fails with Status::Unavailable immediately and retries
//               are pointless — the graceful-degradation class.
//
// Rates are independent per (partition, column, attempt) coordinate with
// distinct hash salts, so e.g. a 1% transient rate and a 1% corrupt rate
// don't correlate. Scripted FaultRules override the rates for exact
// test choreography (first match wins); lost partitions are a plan-level
// set, not a rate — "permanently lost" is a property of the partition,
// not of an attempt.
//
// Attempt numbering: the injector keeps a per-(partition, column)
// attempt counter; each physical read consumes one attempt via Next().
// Counters only ever grow, so a retry sees a *different* coordinate than
// the attempt it is retrying — which is what makes "fails twice, then
// succeeds" expressible, and what makes retries actually help.
#ifndef PS3_IO_FAULT_INJECTOR_H_
#define PS3_IO_FAULT_INJECTOR_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

namespace ps3::io {

enum class FaultKind : uint8_t {
  kNone = 0,
  kTransient,  ///< read fails retryably after paying its latency
  kLatency,    ///< read succeeds after an extra latency spike
  kCorrupt,    ///< encoded segment byte flipped; checksum catches it
  kLost,       ///< partition permanently unreachable; never retried
};

/// A scripted fault: overrides the plan's rates for exact coordinates.
/// First matching rule wins; unmatched coordinates fall through to the
/// hashed rates.
struct FaultRule {
  /// Partition index this rule applies to.
  size_t partition = 0;
  /// Column index, or kAnyColumn for all columns of the partition.
  static constexpr size_t kAnyColumn = static_cast<size_t>(-1);
  size_t column = kAnyColumn;
  /// Attempt range [attempt_begin, attempt_end) the rule covers;
  /// attempts are 0-based per (partition, column). The default covers
  /// only the first attempt.
  int attempt_begin = 0;
  int attempt_end = 1;
  FaultKind kind = FaultKind::kTransient;
  /// Extra latency for kLatency rules (ignored otherwise; 0 uses the
  /// plan's latency_spike_us).
  size_t latency_us = 0;
};

/// The full seeded fault plan. Default-constructed = no faults.
struct FaultPlan {
  uint64_t seed = 0;
  /// Independent per-(partition, column, attempt) probabilities in
  /// [0, 1]. Priority when several fire on one coordinate:
  /// lost > transient > corrupt; latency spikes are additive on top of
  /// whatever else happens (a read can spike *and* then fail transient).
  double transient_rate = 0.0;
  double corrupt_rate = 0.0;
  double latency_rate = 0.0;
  /// Extra microseconds a latency spike adds to the simulated read.
  size_t latency_spike_us = 2000;
  /// Permanently unreachable partitions.
  std::set<size_t> lost_partitions;
  /// Scripted overrides, checked before the rates (first match wins).
  std::vector<FaultRule> rules;

  bool AnyFaults() const {
    return transient_rate > 0.0 || corrupt_rate > 0.0 ||
           latency_rate > 0.0 || !lost_partitions.empty() || !rules.empty();
  }
};

/// One read attempt's injected faults, resolved.
struct FaultDecision {
  FaultKind kind = FaultKind::kNone;
  /// Extra latency to pay (kLatency, or additive spike on a failing
  /// attempt). 0 = none.
  size_t extra_latency_us = 0;
  /// Attempt number this decision consumed (0-based, per coordinate) —
  /// surfaced for error messages and test assertions.
  int attempt = 0;
};

/// Thread-safe decision oracle over a FaultPlan. One injector instance
/// is shared by every load path of a store (demand, prefetch, hedge), so
/// the attempt counters see every physical read in program order per
/// coordinate — concurrent coordinates are independent.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

  /// Consumes the next attempt for (partition, column) and resolves its
  /// fault decision.
  FaultDecision Next(size_t partition, size_t column);

  /// Pure lookup: the decision attempt `attempt` would get, without
  /// consuming anything. Next(p, c) on a fresh coordinate returns
  /// exactly Peek(p, c, 0) — the replay property the battery pins.
  FaultDecision Peek(size_t partition, size_t column, int attempt) const;

  /// True if the plan lists `partition` as permanently lost.
  bool IsLost(size_t partition) const {
    return plan_.lost_partitions.count(partition) != 0;
  }
  const std::set<size_t>& lost_partitions() const {
    return plan_.lost_partitions;
  }
  const FaultPlan& plan() const { return plan_; }

  /// Resets every attempt counter (tests replaying a sequence).
  void ResetAttempts();

  /// Flips one deterministic bit of `data[0, len)` for a kCorrupt
  /// decision: which bit is itself a hash of the coordinate, so the
  /// corruption is replayable too. No-op on empty segments.
  static void CorruptBytes(uint64_t seed, size_t partition, size_t column,
                           int attempt, uint8_t* data, size_t len);

 private:
  FaultDecision Decide(size_t partition, size_t column, int attempt) const;

  const FaultPlan plan_;
  mutable std::mutex mu_;
  /// Next attempt number per (partition, column). Guarded by mu_.
  std::map<std::pair<size_t, size_t>, int> attempts_;
};

}  // namespace ps3::io

#endif  // PS3_IO_FAULT_INJECTOR_H_
