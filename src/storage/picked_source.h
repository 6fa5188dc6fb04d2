// PickedSource: a picker's partition subset presented to the evaluator
// as a PartitionSource view over an arbitrary base source (paper §4 —
// partition pruning on the serving path).
//
// The view keeps the base's schema, global partition numbering, and
// shard *structure*, but filters every shard's partition list down to
// the picked set. The evaluator's fan-out therefore only ever acquires
// picked partitions — pruned (partition, column) segments are never
// fetched — and per-partition answers still land in globally-indexed
// slots, so the weighted combine addresses them exactly like an exact
// scan's. Empty shards contribute no scan units.
//
// Prefetch hints follow the pruned plan too: WillScanShard on the view
// forwards to the base's StageHint with the view's *filtered* shard
// lists, so an out-of-core base stages picked segments only (a pick
// small against the cache all at once), and read-ahead is never spent on
// partitions this view pruned.
#ifndef PS3_STORAGE_PICKED_SOURCE_H_
#define PS3_STORAGE_PICKED_SOURCE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "storage/column_set.h"
#include "storage/partition_source.h"

namespace ps3::storage {

class PickedSource : public PartitionSource {
 public:
  /// Borrows `base`, which must outlive the view and any scan over it.
  /// `picked` holds global partition indices: ascending, unique, all
  /// < base.num_partitions(). Picks outside any base shard are ignored.
  PickedSource(const PartitionSource& base, const std::vector<size_t>& picked)
      : base_(base), shards_(base.num_shards()) {
    for (size_t s = 0; s < shards_.size(); ++s) {
      const std::vector<size_t>& full = base.shard(s);
      // Both lists are ascending: one merge-intersection pass per shard.
      auto it = picked.begin();
      for (size_t p : full) {
        while (it != picked.end() && *it < p) ++it;
        if (it == picked.end()) break;
        if (*it == p) shards_[s].push_back(p);
      }
    }
  }

  const Schema& schema() const override { return base_.schema(); }
  /// The *base* count: global numbering is preserved so per-partition
  /// answers merge by global index (pruned slots simply stay empty).
  size_t num_partitions() const override { return base_.num_partitions(); }
  size_t num_shards() const override { return shards_.size(); }
  const std::vector<size_t>& shard(size_t s) const override {
    return shards_[s];
  }

  Result<PinnedPartition> Acquire(size_t global_index,
                                  const ColumnSet& columns,
                                  const ScanControl& control) const override {
    return base_.Acquire(global_index, columns, control);
  }
  using PartitionSource::Acquire;

  /// The scan's class/token ride along with the filtered plan, so an
  /// out-of-core base charges this view's read-ahead to the right class
  /// share.
  void WillScanShard(size_t s, const ColumnSet& columns,
                     const ScanControl& control) const override {
    base_.StageHint(shards_, s, columns, control);
  }
  using PartitionSource::WillScanShard;

  uint64_t ColdScanBytes(const std::vector<size_t>& partitions,
                         const ColumnSet& columns) const override {
    return base_.ColdScanBytes(partitions, columns);
  }

  /// Loss is a property of the backing store, not of this view's
  /// filter: forwarded so degraded re-planning sees through stacked
  /// views.
  std::vector<size_t> UnreachablePartitions() const override {
    return base_.UnreachablePartitions();
  }

 private:
  const PartitionSource& base_;
  std::vector<std::vector<size_t>> shards_;  ///< base shards ∩ picked
};

}  // namespace ps3::storage

#endif  // PS3_STORAGE_PICKED_SOURCE_H_
