// The partition-provider seam between the query engine's multi-shard
// fan-out and whatever holds the bytes: a resident ShardedTable, the io
// layer's memory-budgeted partition cache, or a cold on-disk store.
//
// The evaluator scans a PartitionSource shard by shard, acquiring each
// partition just before it runs the kernels and releasing it right after.
// Acquire returns a *pinned* partition: a scan-ready view plus an
// ownership token that keeps the backing memory alive (and, for cached
// sources, non-evictable) for the token's lifetime. Resident sources pin
// nothing; cold sources pin cache entries. Because the view is the same
// storage::Partition type either way, every kernel, accumulator, and
// reduction runs identically — which is what makes cold-scan answers
// bit-exact with resident-scan answers.
//
// Acquire and WillScanShard carry the scan's ColumnSet hint (computed by
// query/compiler from the compiled query): the set of columns the scan
// will actually touch. Out-of-core sources read and stage only those
// column segments; a pruned acquire may hand back a view whose
// unreferenced columns are empty, so the hint must cover every column
// the caller reads. Pruning affects bytes moved, never answers.
#ifndef PS3_STORAGE_PARTITION_SOURCE_H_
#define PS3_STORAGE_PARTITION_SOURCE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/query_control.h"
#include "common/status.h"
#include "storage/column_set.h"
#include "storage/sharded_table.h"

namespace ps3::storage {

/// Per-scan control handed down the acquire/prefetch seam: the query's
/// admission class (routes out-of-core read-ahead to the right share of
/// the prefetch budget) and its cancel/deadline token (lets a cold-load
/// wait abort instead of riding out the IO). Both advisory-or-abort:
/// they change when and whether bytes move, never what a successful scan
/// answers.
struct ScanControl {
  QueryClass query_class = QueryClass::kBatch;
  /// Nullable; borrowed for the duration of the call.
  const CancelToken* cancel = nullptr;
};

/// A scan-ready partition plus the token that keeps it alive. The token
/// is opaque: a cache pin for out-of-core sources, null for resident
/// tables (whose lifetime the caller already guarantees).
class PinnedPartition {
 public:
  explicit PinnedPartition(Partition part,
                           std::shared_ptr<const void> pin = nullptr)
      : part_(part), pin_(std::move(pin)) {}

  const Partition& view() const { return part_; }

 private:
  Partition part_;
  std::shared_ptr<const void> pin_;
};

/// Shard-structured partition provider for the evaluator's fan-out.
/// Implementations must expose the *same global partition numbering* as
/// the flat table (shards partition [0, num_partitions)), so per-partition
/// answers merge by global index regardless of where the bytes live.
class PartitionSource {
 public:
  virtual ~PartitionSource() = default;

  virtual const Schema& schema() const = 0;
  virtual size_t num_partitions() const = 0;
  virtual size_t num_shards() const = 0;
  /// Global partition indices owned by shard `s`, ascending.
  virtual const std::vector<size_t>& shard(size_t s) const = 0;

  /// Pins partition `global_index` for scanning. May block (cold load).
  /// Thread-safe: the fan-out calls this from concurrent pool lanes.
  /// `columns` is the projection contract: the caller promises to touch
  /// only those columns, and the source may leave the rest empty.
  /// `control` carries the scan's class and cancel token, so cold sources
  /// can abort a pending load (returning the token's Status with every
  /// pin already taken released) instead of completing IO for a dead
  /// query; sources that never block ignore it.
  virtual Result<PinnedPartition> Acquire(size_t global_index,
                                          const ColumnSet& columns,
                                          const ScanControl& control) const = 0;

  /// Acquire with a default control: batch class, no cancel token.
  virtual Result<PinnedPartition> Acquire(size_t global_index,
                                          const ColumnSet& columns) const {
    return Acquire(global_index, columns, ScanControl{});
  }

  /// Advisory: the scan cursor has entered shard `s` (fired once per
  /// shard per scan, from whichever lane gets there first, before that
  /// shard's first Acquire), and will read only `columns`. Out-of-core
  /// sources use it to stage the plan's column segments ahead of the
  /// scan on their own IO lanes, charging the read-ahead to the
  /// control's class share of the cache headroom (batch staging may not
  /// starve interactive cold loads). It must not affect results, only
  /// timing. Default no-op.
  virtual void WillScanShard(size_t s, const ColumnSet& columns,
                             const ScanControl& control) const {
    (void)s;
    (void)columns;
    (void)control;
  }

  /// Scan-entry hint with a default control.
  virtual void WillScanShard(size_t s, const ColumnSet& columns) const {
    WillScanShard(s, columns, ScanControl{});
  }

  /// Advisory read-ahead hook with an *explicit* shard plan: the scan has
  /// entered plan[current] and will touch only `columns` of the plan's
  /// partitions. This is how a filtered view of this source (a picked
  /// subset, see PickedSource) routes its prefetch hints, class and token
  /// included: the base source stages *the view's plan* — all of its
  /// remaining shards when the plan is small against the cache, the next
  /// shard when it is a bulk scan — so read-ahead is never spent on
  /// partitions the view pruned. Fired before plan[current]'s first
  /// Acquire, so the remaining shards hold nothing this scan has already
  /// consumed. Default no-op; like WillScanShard it must not affect
  /// results, only timing.
  virtual void StageHint(const std::vector<std::vector<size_t>>& plan,
                         size_t current, const ColumnSet& columns,
                         const ScanControl& control) const {
    (void)plan;
    (void)current;
    (void)columns;
    (void)control;
  }

  /// Plan hint with a default control.
  virtual void StageHint(const std::vector<std::vector<size_t>>& plan,
                         size_t current, const ColumnSet& columns) const {
    StageHint(plan, current, columns, ScanControl{});
  }

  /// Planning-time accounting: encoded (on-disk) bytes a fully-cold scan
  /// of the given partitions restricted to `columns` would move. Resident
  /// sources return 0 (nothing moves). Deterministic by contract —
  /// derived from the manifest, never from live cache state — so
  /// approximate answers can report bytes_moved identically for any
  /// cache budget or prior scan history.
  virtual uint64_t ColdScanBytes(const std::vector<size_t>& partitions,
                                 const ColumnSet& columns) const {
    (void)partitions;
    (void)columns;
    return 0;
  }

  /// Global indices of partitions this source *cannot* serve — an
  /// Acquire on any of them is guaranteed to fail (permanently lost in
  /// the backing store's fault plan). Sorted ascending. The scheduler's
  /// degradation path plans around exactly this set: kFail names it in
  /// the failure Status, kApproximate re-plans the scan over its
  /// complement. Resident sources (and any source without a fault
  /// model) return empty — every partition reachable.
  virtual std::vector<size_t> UnreachablePartitions() const { return {}; }
};

/// Resident adapter: a ShardedTable, or a flat PartitionedTable served as
/// one shard, viewed as a PartitionSource. Acquire never fails, pins
/// nothing (the table is borrowed, per the existing evaluator contract),
/// and ignores the column hint — every column is already resident;
/// WillScanShard is a no-op. The table must outlive the source.
class ResidentShardedSource : public PartitionSource {
 public:
  explicit ResidentShardedSource(const ShardedTable& table)
      : table_(table.partitioned()) {
    for (size_t s = 0; s < table.num_shards(); ++s) {
      shards_.push_back(table.shard(s));
    }
  }
  /// One shard owning every partition: the flat scan is the 1-shard case
  /// of the sharded fan-out, so answers match any sharding bit for bit.
  explicit ResidentShardedSource(const PartitionedTable& table)
      : table_(table),
        shards_(AssignShards(table.num_partitions(), 1,
                             ShardAssignment::kRange)) {}

  const Schema& schema() const override { return table_.schema(); }
  size_t num_partitions() const override { return table_.num_partitions(); }
  size_t num_shards() const override { return shards_.size(); }
  const std::vector<size_t>& shard(size_t s) const override {
    return shards_[s];
  }
  Result<PinnedPartition> Acquire(size_t global_index, const ColumnSet& columns,
                                  const ScanControl& control) const override {
    (void)columns;
    (void)control;
    return PinnedPartition(table_.partition(global_index));
  }
  using PartitionSource::Acquire;

 private:
  const PartitionedTable& table_;
  std::vector<std::vector<size_t>> shards_;
};

}  // namespace ps3::storage

#endif  // PS3_STORAGE_PARTITION_SOURCE_H_
