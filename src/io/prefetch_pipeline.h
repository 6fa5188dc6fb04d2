// Plan read-ahead for cold scans on dedicated IO lanes, with column-
// pruned staging.
//
// A picked query fixes every partition it will read before any byte
// moves, so on a remote store the whole plan can be fetched at once
// instead of a few partitions per scan lane. The pipeline owns
// kLoadLanes threads that do nothing but run staged loads
// (PartitionStore::Preload of the *hinted column segments*), fed by two
// FIFO queues: interactive loads are served before batch ones. Loads
// sleep through the store's simulated round trip on those lanes, so read
// IO concurrency depends neither on the scan's CPU lanes nor on the
// scheduler's drivers (which are the query admission slots). There are
// enough lanes for a picked plan's loads to run in one round-trip wave,
// and each queued load wakes one lane. Stage() and StageAhead() only
// admit loads and enqueue them; they never wait.
//
// Admission charges decoded bytes against the store's cache budget.
// Unpinned LRU entries are evictable, so they do not count: the charge is
// the cache's pinned bytes plus decoded bytes admitted but not yet
// landed. Batch staging may use only (1 - interactive_reserve_fraction)
// of that headroom, so batch read-ahead cannot take the room an
// interactive plan needs. A segment already cached, mid-load, or queued
// here is never admitted twice. An admission into that evictable room
// that queues a load first touches the plan's cached segments
// (PartitionCache::Touch) to the LRU's MRU end, so the plan's own
// inserts evict older entries, not the segments its scan is about to
// read.
//
// StageAhead windows by plan size. A plan's decoded footprint — every
// hinted column of every plan partition, read from the manifest, so it
// never depends on cache state — of at most a quarter of the cache
// budget is staged from the entered shard to the plan's end at each
// shard entry (a shard's hint fires before its first Acquire, so this
// never re-stages what the scan already consumed). A larger plan is a
// bulk scan: it stages only the next shard, and only into free space
// (budget - bytes cached - bytes admitted), so a full scan cannot flush
// the working set — the same quarter-of-the-cache cutoff PostgreSQL uses
// to put a sequential scan on a bulk-read ring.
//
// Prefetch is advisory and never affects answers, only timing: segments
// that don't fit are skipped, not queued — the scan demand-loads them —
// and staging errors are swallowed (counted in stats); the demand path
// surfaces real errors.
//
// Lifetime: borrows the store; destroy the pipeline before it. The
// destructor drops queued loads and joins the lanes once their current
// load lands.
#ifndef PS3_IO_PREFETCH_PIPELINE_H_
#define PS3_IO_PREFETCH_PIPELINE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/query_control.h"
#include "io/partition_cache.h"
#include "io/partition_store.h"
#include "runtime/query_scheduler.h"
#include "storage/column_set.h"

namespace ps3::io {

class PrefetchPipeline {
 public:
  /// IO lanes: threads owned by the pipeline that run staged loads.
  /// Loads are latency-bound (they sleep through the store's round trip),
  /// so many more lanes than cores is cheap: an idle lane blocks on a
  /// condition variable and costs its stack. 64 lanes keep a picked plan
  /// of up to 64 loads in flight at once (a larger one runs in
  /// ceil(n / 64) waves); the lane count also bounds the bytes in flight
  /// on the link.
  static constexpr int kLoadLanes = 64;

  struct Options {
    /// Share of the evictable headroom kept for interactive staging:
    /// batch staging stops once admitted bytes reach (1 - fraction) of
    /// it, while interactive staging may use all of it. This is the
    /// multi-tenant isolation knob — any number of batch scans leave this
    /// share of read-ahead room to interactive plans. 0 shares the whole
    /// headroom. Clamped to [0, 1].
    double interactive_reserve_fraction = 0.25;
  };

  /// Default options. `scheduler` is unused — staging runs on the
  /// pipeline's own IO lanes, never on a driver or a pool lane — and
  /// stays in the signature so existing callers keep compiling.
  PrefetchPipeline(PartitionStore* store, runtime::QueryScheduler* scheduler);
  PrefetchPipeline(PartitionStore* store, runtime::QueryScheduler* scheduler,
                   Options options);
  ~PrefetchPipeline();

  PrefetchPipeline(const PrefetchPipeline&) = delete;
  PrefetchPipeline& operator=(const PrefetchPipeline&) = delete;

  /// Scan-entry hook (PartitionSource::StageHint): the scan has entered
  /// `shards[current]` and will read only `columns`. A plan whose decoded
  /// footprint is at most a quarter of the cache budget stages shards
  /// [current, end) into the evictable headroom; a larger (bulk) plan
  /// stages shard current + 1 into free space only. Non-blocking; safe to
  /// call from pool lanes mid-scan.
  void StageAhead(const std::vector<std::vector<size_t>>& shards,
                  size_t current, const storage::ColumnSet& columns,
                  QueryClass query_class = QueryClass::kBatch);

  /// Admits the given partitions' hinted columns against the evictable
  /// headroom (bounded by `query_class`'s share) and queues them for the
  /// IO lanes. Non-blocking; safe to call from pool lanes mid-scan.
  void Stage(std::vector<size_t> parts,
             const storage::ColumnSet& columns = storage::ColumnSet::All(),
             QueryClass query_class = QueryClass::kBatch);

  /// Waits until every queued load has landed (or failed).
  void Drain();

  struct PrefetchStats {
    uint64_t staged = 0;          ///< partitions queued for an IO lane
    uint64_t skipped_cached = 0;  ///< already cached, loading, or queued
    uint64_t skipped_budget = 0;  ///< didn't fit the admission headroom
    uint64_t load_errors = 0;     ///< advisory failures (demand path retries)
    /// Decoded bytes admitted but not yet landed, per class and total.
    /// Every reservation is released when its load finishes (success or
    /// error alike), so with nothing queued or loading these are exactly
    /// 0 — the invariant the budget-leak tests pin.
    size_t inflight_batch_bytes = 0;
    size_t inflight_interactive_bytes = 0;
    size_t inflight_bytes = 0;
  };
  PrefetchStats stats() const;

 private:
  /// Which cache room admission may fill.
  enum class Room {
    kEvictable,  ///< budget - pinned bytes: unpinned entries may go
    kFree,       ///< budget - cached bytes: nothing gets evicted
  };
  /// One queued load: exactly the segments whose decoded bytes were
  /// reserved, so a lane never loads more than admission accounted for.
  struct Load {
    size_t part;
    std::vector<size_t> cols;
    size_t bytes;
    QueryClass query_class;
  };

  /// Admits and queues the missing hinted segments of `parts`.
  void Admit(const std::vector<size_t>& parts,
             const std::vector<size_t>& hinted, QueryClass query_class,
             Room room);
  /// An IO lane: pops loads (interactive first) until shutdown.
  void LaneLoop();
  /// Joins every lane once its current load lands; queued loads never
  /// run.
  void Stop();

  PartitionStore* store_;
  /// Batch's share of the headroom: 1 - interactive_reserve_fraction.
  const double batch_share_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< lanes wait for loads
  std::condition_variable idle_cv_;  ///< Drain waits for quiescence
  std::deque<Load> interactive_;     ///< guarded by mu_
  std::deque<Load> batch_;           ///< guarded by mu_
  /// Segments queued or loading on a lane. Guarded by mu_.
  std::unordered_set<ColumnKey, ColumnKeyHash> queued_;
  size_t busy_lanes_ = 0;            ///< guarded by mu_
  size_t inflight_batch_ = 0;        ///< guarded by mu_
  size_t inflight_interactive_ = 0;  ///< guarded by mu_
  bool stop_ = false;                ///< guarded by mu_

  std::atomic<uint64_t> staged_{0};
  std::atomic<uint64_t> skipped_cached_{0};
  std::atomic<uint64_t> skipped_budget_{0};
  std::atomic<uint64_t> load_errors_{0};

  std::vector<std::thread> lanes_;
};

}  // namespace ps3::io

#endif  // PS3_IO_PREFETCH_PIPELINE_H_
