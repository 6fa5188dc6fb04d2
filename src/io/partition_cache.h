// Byte-accounted LRU cache of rehydrated *column segments*, with pinning
// for in-flight scans.
//
// Entries are (partition, column) pairs: one decoded column of one
// partition (a CachedColumn — the storage::Column shares its value
// buffer, so handing a cached segment to a scan is a pointer copy, not a
// memcpy). Column granularity is what makes projection pushdown real:
// a scan that references 3 of 40 columns caches and accounts only those
// 3 segments, and a later scan that needs one more column fetches just
// the missing segment (partial-residency upgrade) while the resident
// ones stay hits.
//
// The cache accounts bytes, not entry counts: Insert evicts least-
// recently-used *unpinned* segments until the budget is met again. A
// pinned segment — one held by a live PinSet — is never evicted, so a
// scan can hold more than the budget transiently (the budget bounds what
// the cache retains, not what a query needs); the overshoot drains as
// pins are released and later inserts evict. Each scan view owns one
// PinSet holding its cache hits and its cold loads alike, released in
// one pass when the view is dropped. Released pins re-enter the LRU at
// the *cold end* (scan-resistance): a released segment was just scanned,
// so it must not outrank staged-but-unscanned read-ahead in eviction
// order. A plan's read-ahead moves the plan's resident segments back to
// the MRU end (Touch) before its loads land, so a segment an earlier
// query scanned is not evicted by the plan that is about to scan it.
//
// Thread-safe: concurrent queries acquire, insert, and release pins from
// pool lanes and prefetch drivers at once. The cache must outlive every
// PinSet that pins into it.
#ifndef PS3_IO_PARTITION_CACHE_H_
#define PS3_IO_PARTITION_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "storage/column.h"

namespace ps3::io {

/// An immutable, scan-ready column segment rehydrated from disk: one
/// column of one partition, buffer shared with every pin. `bytes` is the
/// segment's *decoded* length (rows x fixed value width) — the cache
/// accounting unit, because that is what the entry occupies in memory.
/// Segments spill compressed, so the encoded on-disk length can be far
/// smaller; it is the store's accounting unit (bytes_read, bandwidth
/// model, read-ahead budget), never the cache's — otherwise compression
/// would silently inflate effective cache capacity. Row counts live on
/// the store's manifest (part_rows_), not here.
struct CachedColumn {
  CachedColumn(storage::Column c, size_t bytes_)
      : column(std::move(c)), bytes(bytes_) {}

  storage::Column column;
  size_t bytes;
};

/// Segment key: one column of one partition — shared by the cache's
/// entry map and the store's single-flight loading set.
struct ColumnKey {
  size_t part = 0;
  size_t col = 0;

  bool operator==(const ColumnKey& o) const {
    return part == o.part && col == o.col;
  }
  bool operator<(const ColumnKey& o) const {
    return part != o.part ? part < o.part : col < o.col;
  }
};

struct ColumnKeyHash {
  size_t operator()(const ColumnKey& k) const {
    return static_cast<size_t>(
        Mix64(HashCombine(HashInt(static_cast<int64_t>(k.part)),
                          HashInt(static_cast<int64_t>(k.col)))));
  }
};

/// Point-in-time counters. hits/misses are AcquireMany lookup
/// outcomes and inserts/evictions entry movements — all at column-segment
/// granularity; bytes_pinned is included in bytes_cached.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;
  size_t bytes_cached = 0;
  size_t bytes_pinned = 0;
  size_t peak_bytes = 0;
};

class PartitionCache {
 public:
  explicit PartitionCache(size_t budget_bytes) : budget_(budget_bytes) {}

  PartitionCache(const PartitionCache&) = delete;
  PartitionCache& operator=(const PartitionCache&) = delete;

  size_t budget_bytes() const { return budget_; }

  /// The pins one scan view holds. Every segment AcquireMany or Insert
  /// pins into the set stays unevictable until the set is destroyed,
  /// which releases them all in one ReleaseMany pass. Move-only; the
  /// view's column copies keep the segment buffers alive, so the set
  /// holds keys only.
  class PinSet {
   public:
    explicit PinSet(PartitionCache* cache) : cache_(cache) {}
    PinSet(PinSet&& other) noexcept
        : cache_(other.cache_), keys_(std::move(other.keys_)) {
      other.keys_.clear();
    }
    PinSet(const PinSet&) = delete;
    PinSet& operator=(const PinSet&) = delete;
    PinSet& operator=(PinSet&&) = delete;
    ~PinSet() {
      if (!keys_.empty()) cache_->ReleaseMany(keys_);
    }

   private:
    friend class PartitionCache;
    PartitionCache* cache_;
    std::vector<ColumnKey> keys_;  ///< one per pin taken
  };

  /// Batched lookup: in a single critical section, fills (*data)[k] for
  /// every cached segment among `keys` (nullptr for misses) and pins each
  /// hit into `*pins`. A wide scan pays one lock acquisition per pass
  /// instead of one per column — the fully-cached hot path would
  /// otherwise convoy concurrent lanes on this mutex in proportion to
  /// table width.
  void AcquireMany(const std::vector<ColumnKey>& keys,
                   std::vector<std::shared_ptr<const CachedColumn>>* data,
                   PinSet* pins);

  /// Inserts `data` at MRU, then evicts LRU unpinned entries while over
  /// budget. Re-inserting a present segment keeps the resident entry
  /// (refreshing its recency if unpinned). With `pins` (the demand-load
  /// path) the entry is pinned into `*pins` before anything is evicted,
  /// so it cannot leave before the scan that needed it; without (the
  /// prefetch path) it is staged unpinned. Returns the resident data.
  std::shared_ptr<const CachedColumn> Insert(
      const ColumnKey& key, std::shared_ptr<const CachedColumn> data,
      PinSet* pins = nullptr);

  /// Moves every cached, unpinned segment among `keys` to the LRU's MRU
  /// end, in order; absent and pinned keys are ignored. The prefetch
  /// pipeline touches a plan's resident segments before the plan's loads
  /// can land, so those inserts evict older entries instead of the
  /// segments the plan's scan is about to read.
  void Touch(const std::vector<ColumnKey>& keys);

  bool Contains(const ColumnKey& key) const;
  /// True iff every column in `cols` of `part` is cached. `cols` must be
  /// concrete indices (ColumnSet::Resolve output).
  bool ContainsAll(size_t part, const std::vector<size_t>& cols) const;
  /// Drops every unpinned entry (cold-scan resets in benches/tests).
  void Clear();

  size_t bytes_cached() const;
  CacheStats stats() const;

 private:
  struct Entry {
    std::shared_ptr<const CachedColumn> data;
    size_t bytes = 0;
    size_t pins = 0;
    /// Valid iff pins == 0: position in lru_ (front = coldest). Pinned
    /// entries leave the LRU list entirely and re-enter at the *cold end*
    /// on release (scan-resistance — see ReleaseMany()).
    std::list<ColumnKey>::iterator lru_it;
  };

  /// Pins `e` (stored under `key`) into `*pins`. Caller holds mu_.
  void PinLocked(const ColumnKey& key, Entry* e, PinSet* pins);
  /// The one release path: drops one pin per key, re-entering fully
  /// released entries at the LRU's cold end, then evicts back to budget.
  void ReleaseMany(const std::vector<ColumnKey>& keys);
  void EvictToBudgetLocked();

  const size_t budget_;
  mutable std::mutex mu_;
  std::unordered_map<ColumnKey, Entry, ColumnKeyHash> entries_;
  std::list<ColumnKey> lru_;  ///< unpinned entries only; front = coldest
  CacheStats stats_;
};

}  // namespace ps3::io

#endif  // PS3_IO_PARTITION_CACHE_H_
