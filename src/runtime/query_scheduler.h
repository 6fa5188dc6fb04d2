// Concurrent multi-query submission onto the shared resident WorkerPool.
//
// QueryScheduler is the admission layer for the paper's query-stream
// setting: many aggregate queries arrive at once, and instead of
// serializing whole-query scans, each submission becomes a task on a small
// set of resident driver threads. A driver executes the query's partition
// fan-out as its own WorkerPool job, so the chunks of several in-flight
// queries interleave on the shared lanes (least-served job first, capped
// per query by ExecOptions::num_threads) — throughput comes from admitting
// concurrent work onto shared execution resources rather than from one
// query owning every lane.
//
// One serving plan: the paper answers every query by reading a set of
// partitions and combining their partial answers with weights, and so
// does every entry point here. A submission (1) chooses a weighted
// selection — every partition at weight 1 (Submit), the picker's pick
// (SubmitApproximate), or the reachable set at weight total/|reachable|
// (SubmitDegradable) — (2) scans exactly that selection through a
// storage::PickedSource view of the source, and (3) combines the
// partials: CombineWeighted for an exact answer, CombineWeightedWithError
// plus the planned byte footprint for an ApproxAnswer. Every table form
// enters as a storage::PartitionSource (resident tables through
// storage::ResidentShardedSource).
//
// Admission is multi-tenant: every entry point has an overload taking
// SubmitOptions{query_class, deadline, cancel}. Interactive-class queries
// jump the driver queue ahead of batch work and preempt batch jobs at
// chunk granularity on the pool (weighted — batch still progresses); a
// deadline is armed at admission (queue wait counts against it), and a
// cancelled or expired query resolves its future with QueryAborted
// carrying Status::Cancelled / Status::DeadlineExceeded — its cache pins
// are released, its cold loads unwound, and co-resident queries are
// untouched. A default SubmitOptions is the batch class with no deadline.
//
// Determinism contract: each query's per-partition reduction is ordered
// (index-addressed slots, ascending row order within a partition, combine
// in ascending partition order), so the answer a future resolves to is
// bit-identical to running the same query serially — for any driver
// count, lane count, chunk claim order, query class mix, or set of
// concurrently admitted queries (class and deadline affect when chunks
// run, never merge order or results). Failure is per query: a task that
// throws fails only its own future; sibling queries and the resident
// lanes are unaffected.
//
// Sources are borrowed, not owned: a source passed to a submission — and
// whatever it borrows (table, store, prefetch pipeline, picker) — must
// stay alive until the returned future is ready (or the scheduler is
// destroyed, which drains all admitted work).
#ifndef PS3_RUNTIME_QUERY_SCHEDULER_H_
#define PS3_RUNTIME_QUERY_SCHEDULER_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/query_control.h"
#include "query/evaluator.h"
#include "runtime/worker_pool.h"
#include "storage/partition_source.h"

namespace ps3::core {
class PartitionPicker;
}  // namespace ps3::core

namespace ps3::runtime {

/// Options for the approximate query class (paper §4: a learned picker
/// prunes the partition set before any byte moves).
struct ApproxOptions {
  /// Fraction of partitions the picker may read, in (0, 1]. The picker
  /// budget is ceil(fraction * num_partitions), at least 1. Out of range
  /// (or NaN) poisons the query's future with std::invalid_argument.
  double sampling_fraction = 0.1;
  /// Picker RNG seed. Determinism contract: same picker + seed +
  /// fraction give a bit-identical ApproxAnswer for any shard count,
  /// cache budget, ExecPolicy, thread count, or concurrent load.
  uint64_t seed = 1;
};

/// An approximate answer plus the metadata that keeps it honest.
struct ApproxAnswer {
  query::QueryAnswer value;
  /// Per-(group, aggregate) standard-error estimate, mirroring `value`
  /// (HT variance for SUM/COUNT, delta method for AVG, 0 for MIN/MAX and
  /// for exactly-read strata — see query::CombineWeightedWithError).
  query::QueryAnswer error_estimate;
  /// Partitions the picker selected (== partitions the scan acquired).
  size_t partitions_scanned = 0;
  size_t partitions_total = 0;
  /// Encoded on-disk bytes a fully-cold scan of the picked
  /// (partition, column) set moves — the planned footprint, from the
  /// spill manifest, so it is deterministic under any cache state.
  /// Resident sources report 0.
  uint64_t bytes_moved = 0;
};

/// What an exact submission does when the source reports permanently
/// lost partitions (PartitionSource::UnreachablePartitions).
enum class DegradedMode : uint8_t {
  /// Fail structurally: the future rethrows QueryFailed carrying
  /// Status::Unavailable naming the lost partitions. The default — an
  /// exact answer that silently isn't exact is never acceptable without
  /// an explicit opt-in.
  kFail = 0,
  /// Degrade gracefully (SubmitDegradable only): re-plan the scan over
  /// the reachable set and resolve to an ApproxAnswer whose values are
  /// HT-reweighted at total/|reachable| and whose error surface reflects
  /// the effective sampling fraction — the paper's approximate machinery
  /// as the availability story.
  kApproximate = 1,
};

/// Per-query admission options for the multi-tenant submit entry points.
struct SubmitOptions {
  /// kInteractive jumps the driver queue ahead of batch tasks and wins
  /// the weighted chunk-granularity picks on the pool; kBatch is the
  /// default.
  QueryClass query_class = QueryClass::kBatch;
  /// Relative deadline, armed at *admission* so queue wait counts
  /// against it. 0 (default) = none; <= 0 is already expired (the query
  /// fast-fails with DeadlineExceeded before touching a partition). On
  /// expiry mid-flight the future resolves with QueryAborted carrying
  /// Status::DeadlineExceeded at the next partition acquire.
  std::chrono::microseconds deadline{0};
  /// External cancellation handle: call Cancel() from any thread and the
  /// query aborts cooperatively (future resolves with QueryAborted
  /// carrying Status::Cancelled). Optional; one is created internally
  /// when a deadline is set without a token. A deadline is armed on this
  /// token at admission, so sharing one token across submissions shares
  /// the latest deadline too — share tokens only to cancel a group
  /// together.
  std::shared_ptr<CancelToken> cancel;
  /// Lost-partition policy for SubmitDegradable. Plain Submit is
  /// mode-blind: its future is a QueryAnswer, which cannot carry a
  /// degraded result, so lost partitions always surface as QueryFailed
  /// naming them — resubmit through SubmitDegradable to opt in.
  DegradedMode degraded_mode = DegradedMode::kFail;
};

class QueryScheduler {
 public:
  struct Options {
    /// Resident driver threads (concurrent in-flight queries). <= 0 picks
    /// min(4, hardware concurrency). Each driver serves the job it
    /// submitted, so drivers make progress even on a saturated pool.
    int num_drivers = 0;
    /// Pool queries execute on; nullptr = the process-wide shared pool.
    WorkerPool* pool = nullptr;
  };

  /// Default options: shared pool, min(4, hardware) drivers.
  QueryScheduler();
  explicit QueryScheduler(Options options);
  /// Drains: already-admitted tasks run to completion (their futures all
  /// become ready), then the drivers join. No task is dropped.
  ~QueryScheduler();

  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

  WorkerPool& pool() const { return *pool_; }
  size_t num_drivers() const { return drivers_.size(); }

  /// Admits an exact aggregate query. The future resolves to the
  /// finalized answer (every partition, weight 1), bit-identical to
  /// serial evaluation; it rethrows if evaluation threw. `opts.pool` is
  /// overridden with the scheduler's pool; `opts.num_threads` caps this
  /// query's lane share while other queries are in flight. A cold-load
  /// failure (IO error, checksum mismatch) poisons only this query's
  /// future. Lost partitions (PartitionSource::UnreachablePartitions)
  /// fail it fast with QueryFailed carrying Status::Unavailable naming
  /// them, before any byte moves, whatever submit.degraded_mode says: the
  /// future cannot carry a degraded answer.
  std::future<query::QueryAnswer> Submit(query::Query query,
                                         const storage::PartitionSource& source,
                                         query::ExecOptions opts = {});
  std::future<query::QueryAnswer> Submit(query::Query query,
                                         const storage::PartitionSource& source,
                                         SubmitOptions submit,
                                         query::ExecOptions opts = {});

  /// Admits an *approximate* aggregate query: `picker` chooses a weighted
  /// partition subset (budget = ceil(sampling_fraction * partitions)),
  /// and only picked partitions are ever acquired; prefetch read-ahead
  /// follows the picked shard plan. The future resolves to the
  /// Horvitz–Thompson reweighted answer with per-group error estimates
  /// and the scan's planned byte footprint. The picker runs on the driver
  /// thread against per-partition statistics only (it never touches
  /// partition data). If the source reports lost partitions and the pick
  /// overlaps them, the pick is deterministically re-drawn around the
  /// lost set at unchanged budget (derived seeds, first lost-free
  /// selection wins; pickers that can never avoid the set fall back to
  /// dropping lost choices and rescaling the survivors' weights).
  std::future<ApproxAnswer> SubmitApproximate(
      query::Query query, const storage::PartitionSource& source,
      const core::PartitionPicker& picker, ApproxOptions approx,
      query::ExecOptions opts = {});
  std::future<ApproxAnswer> SubmitApproximate(
      query::Query query, const storage::PartitionSource& source,
      const core::PartitionPicker& picker, ApproxOptions approx,
      SubmitOptions submit, query::ExecOptions opts = {});

  /// Degradation-aware exact submission: the graceful-degradation entry
  /// point. With every partition reachable, resolves to an ApproxAnswer
  /// whose value is bit-identical to Submit's exact answer (all-weight-1
  /// combine) with a zero error surface and partitions_scanned == total.
  /// With lost partitions, the behavior follows submit.degraded_mode:
  /// kFail rethrows QueryFailed carrying Status::Unavailable naming the
  /// lost partitions; kApproximate scans the reachable complement (lost
  /// partitions are never acquired), HT-reweights at total/|reachable|,
  /// and reports the error surface of the effective sampling fraction
  /// plus the bytes the reachable scan plans to move. Deterministic: the
  /// same lost set yields a bit-identical ApproxAnswer for any shard
  /// count, policy, thread count, or concurrent load.
  std::future<ApproxAnswer> SubmitDegradable(
      query::Query query, const storage::PartitionSource& source,
      SubmitOptions submit = {}, query::ExecOptions opts = {});

  /// Generic admission: runs `fn` on a driver thread and resolves the
  /// future with its result (or exception). Parallel passes inside `fn`
  /// (stats builds, featurization, labeling scans) are admitted to the
  /// pool as that task's own jobs, concurrent with other tasks'.
  /// Interactive-class tasks are dequeued ahead of batch tasks; within a
  /// class, FIFO.
  template <typename F>
  auto Defer(F fn, QueryClass query_class = QueryClass::kBatch)
      -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(fn));
    std::future<R> fut = task->get_future();
    Enqueue([task] { (*task)(); }, query_class);
    return fut;
  }

 private:
  /// The evaluation options + token a submission hands its deferred
  /// task: pool pinned, class stamped, deadline armed (at admission).
  /// The token rides in the task's capture so an externally held
  /// CancelToken stays alive until the future resolves.
  struct Admission {
    query::ExecOptions opts;
    std::shared_ptr<CancelToken> token;

    /// Pre-execution gate, run first on the driver: a query cancelled or
    /// expired while queued fast-fails without touching a partition.
    void ThrowIfDead() const { ThrowIfAborted(token.get()); }
  };
  Admission Admit(const SubmitOptions& submit, query::ExecOptions opts) const;

  /// Step 1 of the plan: how a submission chooses its weighted selection.
  /// No picker = every reachable partition at the uniform weight
  /// total/|reachable| (exactly 1 with nothing lost); lost partitions are
  /// then served only under kApproximate, and fail the query otherwise.
  struct Selector {
    const core::PartitionPicker* picker = nullptr;
    ApproxOptions approx;
    DegradedMode on_lost = DegradedMode::kFail;
  };

  /// The one serving plan every entry point wraps: admit, then on a
  /// driver select → scan the selection through a storage::PickedSource
  /// → combine. `Answer` picks the finish: query::QueryAnswer combines
  /// with CombineWeighted alone (the exact path pays for no error
  /// surface); ApproxAnswer adds the error surface and planned bytes.
  template <typename Answer>
  std::future<Answer> Serve(query::Query query,
                            const storage::PartitionSource& source,
                            const Selector& selector,
                            const SubmitOptions& submit,
                            query::ExecOptions opts);

  void Enqueue(std::function<void()> task,
               QueryClass query_class = QueryClass::kBatch);
  void DriverMain();

  WorkerPool* pool_;
  std::vector<std::thread> drivers_;

  std::mutex mu_;
  std::condition_variable cv_;
  /// Two-level priority queue: queues_[1] (interactive) drains before
  /// queues_[0] (batch); FIFO within each. Guarded by mu_.
  std::deque<std::function<void()>> queues_[2];
  bool stop_ = false;  ///< guarded by mu_
};

}  // namespace ps3::runtime

#endif  // PS3_RUNTIME_QUERY_SCHEDULER_H_
