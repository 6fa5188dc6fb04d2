// Out-of-core partition store: spills a partitioned table to a directory
// of columnar partition files plus a checksummed manifest, and rehydrates
// *column segments* on demand through a memory-budgeted, column-granular
// PartitionCache.
//
// Directory layout:
//   manifest.ps3m    schema, per-partition row/byte counts, and every
//                    categorical dictionary in code order, with a whole-
//                    manifest checksum
//   part-NNNNNN.ps3p one columnar file per partition (io/partition_file)
//
// Determinism contract: a rehydrated column holds bit-identical values,
// the same dictionary (same codes, same size), and the same row order as
// the resident column it was spilled from, so any scan over it — either
// exec policy, any kernel, any ColumnSet hint covering the scan's
// references — produces bit-identical answers. Pruning changes bytes
// moved, never answers.
//
// Fetch(i, columns) is the scan path: it pins every requested column
// segment (cache hits where possible), cold-loads the missing ones in a
// single seek pass, and assembles them into a scan-ready pruned view
// that holds all of its pins, hits and cold loads alike, in one
// PartitionCache::PinSet. Partial residency upgrades naturally: only the
// missing segments touch disk. Cold loads are single-flight at segment
// granularity — concurrent fetchers of overlapping column sets each
// claim only segments that are neither cached nor being read, and wait
// for the rest. Preload() is the prefetch path: the same claim-and-load
// step, inserted unpinned, never blocking behind an in-flight load of
// the same segments.
//
// Fault tolerance: a seeded io::FaultInjector in Options makes the
// simulated store fail like a real cloud store — transient read errors,
// latency spikes, checksum corruption, permanently lost partitions —
// deterministically per (partition, column, attempt). Every claimed load
// step runs through a resilient loop: circuit-breaker admission, up to
// RetryPolicy::max_attempts passes with deterministic exponential
// backoff (sleeps poll the query's CancelToken, so retries never outlive
// the SLO), one evict-and-refetch on checksum corruption, fail-fast on
// lost partitions, and an optional hedged second read after an
// EWMA-p99-derived delay where the first success cancels the loser.
// Zero-fault configs take none of these paths and stay bit-identical to
// the pre-fault-tolerance store.
#ifndef PS3_IO_PARTITION_STORE_H_
#define PS3_IO_PARTITION_STORE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/query_control.h"
#include "common/retry.h"
#include "common/status.h"
#include "io/fault_injector.h"
#include "io/partition_cache.h"
#include "io/partition_file.h"
#include "storage/column_set.h"
#include "storage/partition_source.h"
#include "storage/table.h"

namespace ps3::io {

/// Cold-load counters (cache hit/miss live on PartitionCache::stats()).
/// cold_loads counts claimed load steps (one per claimed segment batch,
/// however many physical read attempts it takes); segments_loaded /
/// bytes_loaded count the column segments and file bytes *successful*
/// read passes actually moved — the bench's bytes-per-row metric.
///
/// Error accounting: `load_errors` counts load steps that ultimately
/// failed (after retries), the same meaning it always had. The per-kind
/// counters classify individual *events* underneath: one failed step
/// with two transient attempts is load_errors+1, transient_errors+2,
/// retries+1. Aborts (kCancelled / kDeadlineExceeded) are the caller's
/// doing and count in none of these.
struct StoreStats {
  uint64_t cold_loads = 0;
  uint64_t segments_loaded = 0;
  uint64_t bytes_loaded = 0;
  uint64_t load_errors = 0;
  /// Physical read passes that failed retryably (Status::Unavailable).
  uint64_t transient_errors = 0;
  /// Read passes that failed checksum/decode verification (kInternal).
  uint64_t corrupt_errors = 0;
  /// Load steps that failed because the partition is permanently lost.
  uint64_t lost_errors = 0;
  /// Extra physical read attempts (transient backoff retries plus the
  /// one corrupt evict-and-refetch).
  uint64_t retries = 0;
  /// Hedged second reads fired / hedges that finished first.
  uint64_t hedged_loads = 0;
  uint64_t hedge_wins = 0;
  /// Circuit-breaker transitions to open (including half-open -> open
  /// re-opens after a failed probe, so one outage can count several) /
  /// loads rejected while open.
  uint64_t breaker_opens = 0;
  uint64_t breaker_open_rejects = 0;
};

class PartitionStore {
 public:
  struct Options {
    /// PartitionCache byte budget.
    size_t cache_budget_bytes = size_t{256} << 20;
    /// Simulated per-cold-load latency in microseconds — models the
    /// round trip to a remote/cloud store so an in-process reproduction
    /// exercises real scan latency. Charged once per read pass (a pruned
    /// read pays the same RTT as a full one). The loading thread sleeps
    /// (doesn't spin) before reading, which is exactly the wait prefetch
    /// exists to overlap. 0 disables.
    size_t simulated_load_delay_us = 0;
    /// Simulated link bandwidth in megabits/sec: adds bytes*8/mbps
    /// microseconds per read pass, so column-pruned loads that move
    /// fewer bytes also *finish* sooner, like a real object store.
    /// 0 disables (latency-only model).
    size_t simulated_load_bandwidth_mbps = 0;
    /// Deterministic fault plan (null = no faults, exactly today's
    /// behavior). Shared so tests can hold the injector and inspect /
    /// reset attempt counters across store rebuilds.
    std::shared_ptr<FaultInjector> faults;
    /// Retry policy for each cold-load step. The default (3 attempts,
    /// exponential backoff) only changes behavior when a load actually
    /// fails; zero-fault runs never enter the retry loop.
    RetryPolicy retry;
    /// Per-store circuit breaker over load *steps* (post-retry). The
    /// default threshold only trips after a run of hopeless loads; lost
    /// partitions are excluded from its accounting so a degraded table
    /// can't wedge reachable partitions shut.
    CircuitBreakerPolicy breaker;
    /// Hedged (duplicate) cold reads for latency-spike tolerance.
    struct HedgeOptions {
      /// Off by default: hedging spawns a second read thread per slow
      /// pass, and zero-fault configs must stay bit-identical (and
      /// thread-identical) to the pre-fault-tolerance store.
      bool enabled = false;
      /// Fixed hedge delay; 0 derives the delay from the store's load
      /// latency EWMA (~p99: mean + 3 * mean absolute deviation).
      size_t fixed_delay_us = 0;
      /// Ceiling for the adaptive delay (its floor is a fixed 500 us).
      size_t max_delay_us = 100000;
    };
    HedgeOptions hedge;
  };

  struct SpillOptions {
    /// Per-segment encoding policy handed to WritePartitionFile: kAuto
    /// lets the picker choose per column segment; forced modes exist
    /// for the bench's encoding sweep.
    EncodingMode encoding = EncodingMode::kAuto;
  };

  /// Writes every partition of `table` plus the manifest under `dir`
  /// (created if absent). Overwrites a previous spill of the same shape.
  static Status Spill(const storage::PartitionedTable& table,
                      const std::string& dir);
  static Status Spill(const storage::PartitionedTable& table,
                      const std::string& dir, const SpillOptions& spill);

  /// Opens a spilled directory: reads + verifies the manifest (schema,
  /// partition map, dictionaries). Partition files are read lazily.
  static Result<std::unique_ptr<PartitionStore>> Open(const std::string& dir,
                                                      const Options& options);

  const storage::Schema& schema() const { return schema_; }
  size_t num_partitions() const { return part_rows_.size(); }
  size_t num_rows() const { return num_rows_; }
  size_t partition_rows(size_t i) const { return part_rows_[i]; }
  /// On-disk byte size of partition `i`'s whole file (segments + format
  /// overhead).
  size_t partition_bytes(size_t i) const { return part_bytes_[i]; }
  /// *Decoded* byte size of one column segment of partition `i` — the
  /// cache-budget accounting unit (a cached column costs its rehydrated
  /// size no matter how small its encoded form was on disk, so
  /// compression never silently inflates effective cache capacity).
  size_t column_bytes(size_t i, size_t col) const;
  /// Sum of column_bytes over `cols` (concrete indices).
  size_t columns_bytes(size_t i, const std::vector<size_t>& cols) const;
  /// *Encoded* (on-disk) byte size of one column segment of partition
  /// `i`, from the manifest — the unit for bytes_read expectations, the
  /// simulated bandwidth model, and the prefetch read-ahead budget.
  size_t encoded_column_bytes(size_t i, size_t col) const;
  /// Sum of encoded_column_bytes over `cols` (concrete indices).
  size_t encoded_columns_bytes(size_t i,
                               const std::vector<size_t>& cols) const;
  size_t total_bytes() const { return total_bytes_; }
  const std::string& dir() const { return dir_; }

  /// Pins the requested columns of partition `i` for scanning: cache
  /// hits, or single-flight cold loads of the missing segments, then a
  /// pruned assembled view (unrequested columns empty). Thread-safe;
  /// blocks only for the loads themselves.
  ///
  /// `cancel` (nullable, borrowed for the call) makes the blocking parts
  /// cooperative: the token is polled before each load pass, before the
  /// simulated IO sleep, and while waiting on another fetcher's
  /// single-flight load. A fired token returns its Status (kCancelled /
  /// kDeadlineExceeded) with every pin already taken released; loads
  /// this fetch had claimed are unwound through the same guard path as a
  /// failed load (marks cleared, waiters woken, *not* counted as a load
  /// error), so concurrent fetchers of the same segments simply reclaim
  /// them — a cancelled query never poisons co-resident ones.
  Result<storage::PinnedPartition> Fetch(size_t i,
                                         const storage::ColumnSet& columns,
                                         const CancelToken* cancel = nullptr);
  /// Every column (the unpruned legacy path).
  Result<storage::PinnedPartition> Fetch(size_t i) {
    return Fetch(i, storage::ColumnSet::All());
  }

  /// Stages the requested columns of partition `i` into the cache
  /// unpinned (prefetch). Segments already cached or loading are
  /// skipped. Load errors are returned but advisory: the demand-path
  /// Fetch will surface them to the query.
  Status Preload(size_t i, const storage::ColumnSet& columns);
  Status Preload(size_t i) { return Preload(i, storage::ColumnSet::All()); }

  /// Columns of `cols` (concrete indices) that are neither cached nor
  /// mid-load — the prefetcher's admission filter, so overlapping
  /// stage-ahead windows don't re-reserve read-ahead budget for
  /// segments another pass is already reading. Advisory: a point-in-time
  /// answer from the same filter Fetch and Preload claim through.
  std::vector<size_t> UnstagedColumns(size_t i,
                                      const std::vector<size_t>& cols) const;

  PartitionCache& cache() { return cache_; }
  const PartitionCache& cache() const { return cache_; }
  StoreStats store_stats() const;

  /// Partitions the fault plan lists as permanently lost (sorted;
  /// empty without an injector). The degradation path plans around
  /// exactly this set.
  std::vector<size_t> LostPartitions() const;
  /// Circuit-breaker state, for tests and ops introspection.
  CircuitBreaker::State breaker_state() const { return breaker_.state(); }
  /// Current hedge delay in microseconds: the configured fixed delay if
  /// one is set, else mean + 3*dev of the load-latency EWMAs clamped to
  /// the hedge bounds (0 until the first successful pass). For tests
  /// and ops introspection.
  size_t hedge_delay_us() const { return HedgeDelayUs(); }

 private:
  PartitionStore(std::string dir, Options options, storage::Schema schema,
                 uint64_t num_rows, std::vector<size_t> part_rows,
                 std::vector<size_t> part_bytes,
                 std::vector<std::vector<size_t>> part_col_bytes,
                 std::vector<std::shared_ptr<storage::Dictionary>> dicts);

  using LoadedColumns = std::vector<std::shared_ptr<const CachedColumn>>;

  /// Columns of `cols` whose segments of partition `i` are neither cached
  /// nor loading: the one claim filter behind Fetch, Preload and
  /// UnstagedColumns. Caller holds load_mu_.
  std::vector<size_t> UnclaimedLocked(size_t i,
                                      const std::vector<size_t>& cols) const;
  /// The one claim-and-load step: marks the unclaimed segments among
  /// `cols` loading, loads them through LoadColumns, and inserts them
  /// into the cache before the marks clear — pinned into `*pins` with
  /// (*data)[c] filled (Fetch), or unpinned when `pins` is null
  /// (Preload). A failure that is not an abort counts as a load error.
  /// Claims nothing, and returns OK, when every segment is cached or
  /// already loading.
  Status ClaimAndLoad(size_t i, const std::vector<size_t>& cols,
                      const CancelToken* cancel, PartitionCache::PinSet* pins,
                      LoadedColumns* data);

  /// The resilient load for one claimed segment batch: circuit-breaker
  /// admission, then up to retry.max_attempts physical passes (hedged
  /// when enabled) with deterministic backoff between transient
  /// failures, one evict-and-refetch on corruption, and fail-fast on
  /// lost partitions. Backoff sleeps poll `cancel`; aborts surface
  /// uncounted. This is what Fetch and Preload call.
  Result<LoadedColumns> LoadColumns(size_t i, const std::vector<size_t>& cols,
                                    const CancelToken* cancel = nullptr);
  /// Consumes one fault attempt per column of `cols` (in order) and
  /// returns the decisions; empty when the store injects no faults.
  std::vector<FaultDecision> DrawFaults(size_t i,
                                        const std::vector<size_t>& cols);
  /// One physical read pass: simulated latency/bandwidth sleep (sliced,
  /// polling both tokens), the pass's drawn fault `decisions` applied
  /// (one per column of `cols`, or empty), then the seek-read-verify-
  /// decode of io/partition_file. `hedge_stop` (nullable) is the
  /// racer-local token a winning hedge uses to abort the loser.
  Result<LoadedColumns> LoadColumnsOnce(
      size_t i, const std::vector<size_t>& cols,
      const std::vector<FaultDecision>& decisions, const CancelToken* cancel,
      const CancelToken* hedge_stop);
  /// One *attempt* of the resilient loop: plain pass, or a hedged race
  /// (second read fired after HedgeDelayUs; first success cancels the
  /// loser) when hedging is on and a latency estimate exists. Both
  /// racers' fault attempts are drawn on the calling thread, the
  /// primary's before launch and the hedge's when the delay expires.
  Result<LoadedColumns> LoadPass(size_t i, const std::vector<size_t>& cols,
                                 const CancelToken* cancel);
  /// Folds a successful pass latency into the EWMA cells.
  void RecordLoadLatency(uint64_t us);
  /// Current hedge trigger delay (~p99 of successful pass latency), or
  /// 0 for "don't hedge yet" (no samples and no fixed delay).
  size_t HedgeDelayUs() const;
  /// Builds the scan view for partition `i` from the pinned segment data
  /// (indexed by column; null = pruned) plus the pin set that releases
  /// them when the view is dropped.
  storage::PinnedPartition AssemblePinned(size_t i, const LoadedColumns& data,
                                          PartitionCache::PinSet pins) const;
  std::string PartitionPath(size_t i) const;

  const std::string dir_;
  const Options options_;
  const storage::Schema schema_;
  const uint64_t num_rows_;
  const std::vector<size_t> part_rows_;
  const std::vector<size_t> part_bytes_;
  /// part_col_bytes_[i][c] = encoded payload bytes of partition i's
  /// column-c segment, from the manifest.
  const std::vector<std::vector<size_t>> part_col_bytes_;
  size_t total_bytes_ = 0;
  /// Shared per-column dictionaries (null for numeric columns); every
  /// rehydrated categorical segment's column points at these.
  const std::vector<std::shared_ptr<storage::Dictionary>> dicts_;

  PartitionCache cache_;

  mutable std::mutex load_mu_;
  std::condition_variable load_cv_;
  std::set<ColumnKey> loading_;  ///< segments with an in-flight cold load
  StoreStats store_stats_;    ///< guarded by load_mu_

  CircuitBreaker breaker_;
  /// EWMA of successful pass latency and of its absolute deviation
  /// (microseconds; 0 = no sample yet, samples clamp to >= 1). Relaxed
  /// atomics — the hedge delay is advisory timing, never answers.
  std::atomic<uint64_t> load_lat_ewma_us_{0};
  std::atomic<uint64_t> load_dev_ewma_us_{0};
};

}  // namespace ps3::io

#endif  // PS3_IO_PARTITION_STORE_H_
