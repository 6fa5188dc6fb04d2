// ColdShardedSource: a spilled table presented to the evaluator as a
// shard-structured PartitionSource, so the multi-shard fan-out in
// query/evaluator.cc runs identically whether a partition is resident,
// cached, or cold on disk.
//
// Shard structure is computed with storage::AssignShards — the *same*
// assignment the resident ShardedTable uses — so global partition
// numbering, per-shard lists, and the ordered merge are all identical to
// the resident scan, which is what keeps cold answers bit-exact.
//
// The scan's ColumnSet hint flows straight through: Acquire fetches only
// the referenced column segments (partial residency upgrades fetch just
// the missing ones), and when a PrefetchPipeline is attached,
// WillScanShard(s, cols) stages upcoming shards' hinted segments
// asynchronously at the pipeline's adaptive stage-ahead distance; with
// several queries in flight the pipeline's shared read-ahead budget
// arbitrates between them.
#ifndef PS3_IO_COLD_SOURCE_H_
#define PS3_IO_COLD_SOURCE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "io/partition_store.h"
#include "io/prefetch_pipeline.h"
#include "storage/column_set.h"
#include "storage/partition_source.h"

namespace ps3::io {

class ColdShardedSource : public storage::PartitionSource {
 public:
  /// Borrows `store` (and `prefetch`, which may be null for no read-ahead);
  /// both must outlive the source and any scan over it.
  ColdShardedSource(PartitionStore* store, size_t num_shards,
                    storage::ShardAssignment assignment =
                        storage::ShardAssignment::kRange,
                    PrefetchPipeline* prefetch = nullptr)
      : store_(store),
        prefetch_(prefetch),
        shards_(storage::AssignShards(store->num_partitions(), num_shards,
                                      assignment)) {}

  const storage::Schema& schema() const override { return store_->schema(); }
  size_t num_partitions() const override { return store_->num_partitions(); }
  size_t num_shards() const override { return shards_.size(); }
  const std::vector<size_t>& shard(size_t s) const override {
    return shards_[s];
  }

  /// The control's token lets a cold load (and its single-flight wait)
  /// abort with the token's Status instead of riding out the simulated IO
  /// for a dead query.
  Result<storage::PinnedPartition> Acquire(
      size_t global_index, const storage::ColumnSet& columns,
      const storage::ScanControl& control) const override {
    return store_->Fetch(global_index, columns, control.cancel);
  }
  using storage::PartitionSource::Acquire;

  void WillScanShard(size_t s, const storage::ColumnSet& columns,
                     const storage::ScanControl& control) const override {
    StageHint(shards_, s, columns, control);
  }
  using storage::PartitionSource::WillScanShard;

  /// Stages read-ahead along an explicit shard plan — this source's own
  /// plan for a full scan, or a filtered one handed down by a
  /// storage::PickedSource view, in which case pruned partitions are
  /// absent from the plan and never staged. The scan's class decides
  /// which share of the pipeline's read-ahead budget this staging draws
  /// from.
  void StageHint(const std::vector<std::vector<size_t>>& plan, size_t current,
                 const storage::ColumnSet& columns,
                 const storage::ScanControl& control) const override {
    if (prefetch_ != nullptr) {
      prefetch_->StageAhead(plan, current, columns, control.query_class);
    }
  }
  using storage::PartitionSource::StageHint;

  /// Encoded on-disk footprint of the given (partition, column) set,
  /// straight from the spill manifest — deterministic regardless of what
  /// is currently cached.
  uint64_t ColdScanBytes(const std::vector<size_t>& partitions,
                         const storage::ColumnSet& columns) const override {
    const std::vector<size_t> cols =
        columns.Resolve(store_->schema().num_columns());
    uint64_t total = 0;
    for (size_t p : partitions) {
      total += store_->encoded_columns_bytes(p, cols);
    }
    return total;
  }

  /// Partitions the store's fault plan lists as permanently lost — the
  /// set the scheduler's degraded serving plans around.
  std::vector<size_t> UnreachablePartitions() const override {
    return store_->LostPartitions();
  }

  PartitionStore& store() const { return *store_; }

 private:
  PartitionStore* store_;
  PrefetchPipeline* prefetch_;
  std::vector<std::vector<size_t>> shards_;
};

}  // namespace ps3::io

#endif  // PS3_IO_COLD_SOURCE_H_
