// Asynchronous shard-granular read-ahead for cold scans, with adaptive
// stage-ahead pacing and column-pruned staging.
//
// While the evaluator scans shard s of a spilled table, the pipeline
// stages upcoming shards' *hinted column segments* into the store's
// cache: StageAhead() admits one staging task through the
// runtime::QueryScheduler (so prefetch IO interleaves with query work
// instead of preempting it), and that task fans the individual segment
// loads out across runtime::WorkerPool lanes. Loads sleep through the
// store's simulated remote latency on pool/driver threads, overlapping
// the wait with the current shard's compute — which is the entire point
// of prefetching.
//
// Pacing is adaptive: the pipeline keeps an EWMA of the per-shard scan
// interval (time between successive shard entries) and of the staging
// latency (how long a prefetch batch takes to land — loads fan out
// across pool lanes, so this is ~one store RTT while batches fit the
// lanes). Their ratio is the pipeline depth: when batches land slower
// than shards are consumed — the prefetcher is losing the race — the
// stage-ahead distance widens from 1 toward max_ahead_shards so more
// shards load concurrently; when scans are the bottleneck it narrows
// back to 1. The
// distance is always additionally bounded by the shared read-ahead byte
// budget and the cache's retention headroom, so adaptivity can never
// stage more than the cache could keep. Pacing is advisory and affects
// timing only, never answers.
//
// The read-ahead budget is byte-accounted at *column-segment*
// granularity and *shared*: every query prefetching through one pipeline
// draws from the same in-flight byte pool, so N concurrent cold queries
// can't multiply read-ahead memory by N. The pool is split by admission
// class: batch staging stops at (1 - interactive_reserve_fraction) of
// the budget while interactive staging may use all of it, so any amount
// of batch read-ahead leaves the reserved share of IO available to
// interactive cold loads — batch prefetch cannot starve the latency
// class. Since segments spill compressed,
// admission runs in two units: the shared pool meters *encoded* bytes
// (disk/link traffic), the cache-headroom bound meters *decoded* bytes
// (resident footprint once a staged segment lands). Segments that don't
// fit either budget are skipped, not queued — they'll be demand-loaded by
// the scan; prefetch is advisory and never affects answers, only timing.
// Staging errors are likewise swallowed (counted in stats): the demand
// path surfaces real errors.
//
// Lifetime: borrows the store and scheduler; destroy the pipeline before
// either. The destructor drains in-flight staging tasks.
#ifndef PS3_IO_PREFETCH_PIPELINE_H_
#define PS3_IO_PREFETCH_PIPELINE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <mutex>
#include <vector>

#include "common/query_control.h"
#include "io/partition_store.h"
#include "runtime/query_scheduler.h"
#include "storage/column_set.h"

namespace ps3::io {

class PrefetchPipeline {
 public:
  struct Options {
    /// Cap on *encoded* (on-disk) bytes staged-but-not-yet-inserted
    /// across *all* queries sharing this pipeline — the read-ahead IO
    /// pool meters what the disk/link actually moves. The decoded
    /// footprint of staged segments is bounded separately by the
    /// store's cache headroom.
    size_t readahead_bytes = size_t{64} << 20;
    /// Share of `readahead_bytes` reserved for interactive-class
    /// read-ahead: batch staging stops admitting once batch in-flight
    /// bytes reach (1 - fraction) * budget, while interactive staging may
    /// draw on the whole pool (including whatever the batch share left
    /// idle). This is the multi-tenant isolation knob — any number of
    /// batch scans sharing the pipeline leave this fraction of read-ahead
    /// IO available to interactive cold loads. 0 restores the single
    /// shared pool. Clamped to [0, 1].
    double interactive_reserve_fraction = 0.25;
    /// Worker-pool lanes a staging task may fan its loads across. Loads
    /// are latency-bound (they sleep through the simulated store RTT), so
    /// oversubscribing lanes is cheap and hides more of the wait.
    int load_lanes = 16;
    /// Upper bound on the adaptive stage-ahead distance (shards staged
    /// beyond the one being scanned). 1 reproduces the fixed next-shard
    /// lookahead.
    size_t max_ahead_shards = 4;
  };

  /// Default options.
  PrefetchPipeline(PartitionStore* store, runtime::QueryScheduler* scheduler);
  PrefetchPipeline(PartitionStore* store, runtime::QueryScheduler* scheduler,
                   Options options);
  ~PrefetchPipeline();

  PrefetchPipeline(const PrefetchPipeline&) = delete;
  PrefetchPipeline& operator=(const PrefetchPipeline&) = delete;

  /// Scan-entry hook (ColdShardedSource::WillScanShard): updates the
  /// scan-pace EWMA and stages the hinted columns of the next
  /// [1, max_ahead_shards] shards after `current`, as the current
  /// load-vs-scan latency ratio warrants, bounded by `query_class`'s
  /// share of the read-ahead budget. Non-blocking; safe to call from
  /// pool lanes mid-scan.
  void StageAhead(const std::vector<std::vector<size_t>>& shards,
                  size_t current, const storage::ColumnSet& columns,
                  QueryClass query_class = QueryClass::kBatch);

  /// Stages the given partitions' hinted columns into the store's cache
  /// asynchronously, bounded by `query_class`'s share of the read-ahead
  /// budget. Non-blocking; safe to call from pool lanes mid-scan.
  void Stage(std::vector<size_t> parts,
             const storage::ColumnSet& columns = storage::ColumnSet::All(),
             QueryClass query_class = QueryClass::kBatch);

  /// Waits for every in-flight staging task.
  void Drain();

  struct PrefetchStats {
    uint64_t staged = 0;          ///< partitions handed to a staging task
    uint64_t skipped_cached = 0;  ///< already cached (or loading)
    uint64_t skipped_budget = 0;  ///< didn't fit the read-ahead budget
    uint64_t load_errors = 0;     ///< advisory failures (demand path retries)
    size_t ahead_shards = 1;      ///< current adaptive stage-ahead distance
    /// Encoded bytes currently reserved against the read-ahead pool, per
    /// class and total. Every reservation is released when its staging
    /// task finishes (success, load error, or a failed dispatch alike),
    /// so with no staging in flight these are exactly 0 — the invariant
    /// the budget-leak tests pin.
    size_t inflight_batch_bytes = 0;
    size_t inflight_interactive_bytes = 0;
    size_t inflight_bytes = 0;
  };
  PrefetchStats stats() const;

 private:
  using Clock = std::chrono::steady_clock;

  /// Current stage-ahead distance from the latency EWMAs.
  size_t AheadDistance() const;
  /// Folds a sample into an EWMA cell via LatencyEwmaStep (microseconds,
  /// relaxed atomics — pacing is advisory, approximate reads are fine).
  static void UpdateEwma(std::atomic<uint64_t>* cell, uint64_t sample_us);

  /// Tries to reserve `bytes` of read-ahead budget for `query_class`:
  /// the total pool bounds both classes, and batch additionally stops at
  /// its (1 - interactive_reserve_fraction) share. Admission and release
  /// share one small mutex — staging runs per partition batch, far off
  /// the per-chunk hot path.
  bool TryReserve(size_t bytes, QueryClass query_class);
  void Release(size_t bytes, QueryClass query_class);

  PartitionStore* store_;
  runtime::QueryScheduler* scheduler_;
  const Options options_;
  /// Batch admission ceiling: (1 - interactive_reserve_fraction) *
  /// readahead_bytes, precomputed.
  const size_t batch_cap_bytes_;

  mutable std::mutex budget_mu_;
  size_t inflight_batch_ = 0;        ///< guarded by budget_mu_
  size_t inflight_interactive_ = 0;  ///< guarded by budget_mu_
  std::atomic<uint64_t> staged_{0};
  std::atomic<uint64_t> skipped_cached_{0};
  std::atomic<uint64_t> skipped_budget_{0};
  std::atomic<uint64_t> load_errors_{0};

  /// EWMAs (us). scan_ewma_us_ tracks the interval between successive
  /// StageAhead calls (≈ one shard's scan time); load_ewma_us_ tracks
  /// how long a staging batch takes to land. 0 = no sample yet
  /// (samples clamp to >= 1).
  std::atomic<uint64_t> scan_ewma_us_{0};
  std::atomic<uint64_t> load_ewma_us_{0};
  std::mutex pace_mu_;
  Clock::time_point last_stage_;  ///< guarded by pace_mu_
  bool has_last_stage_ = false;   ///< guarded by pace_mu_

  std::mutex mu_;
  std::vector<std::future<void>> inflight_;  ///< guarded by mu_
};

}  // namespace ps3::io

#endif  // PS3_IO_PREFETCH_PIPELINE_H_
