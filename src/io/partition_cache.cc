#include "io/partition_cache.h"

#include <algorithm>
#include <cassert>

namespace ps3::io {

void PartitionCache::PinLocked(const ColumnKey& key, Entry* e, PinSet* pins) {
  // Record the key first: a throwing push_back then leaves no pin that
  // the set would not release.
  pins->keys_.push_back(key);
  if (e->pins == 0) {
    lru_.erase(e->lru_it);  // pinned entries are invisible to eviction
    stats_.bytes_pinned += e->bytes;  // counted once, not per pin
  }
  ++e->pins;
}

void PartitionCache::AcquireMany(
    const std::vector<ColumnKey>& keys,
    std::vector<std::shared_ptr<const CachedColumn>>* data, PinSet* pins) {
  data->assign(keys.size(), nullptr);
  pins->keys_.reserve(pins->keys_.size() + keys.size());
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t k = 0; k < keys.size(); ++k) {
    auto it = entries_.find(keys[k]);
    if (it == entries_.end()) {
      ++stats_.misses;
      continue;
    }
    ++stats_.hits;
    PinLocked(keys[k], &it->second, pins);
    (*data)[k] = it->second.data;
  }
}

std::shared_ptr<const CachedColumn> PartitionCache::Insert(
    const ColumnKey& key, std::shared_ptr<const CachedColumn> data,
    PinSet* pins) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    Entry e;
    e.bytes = data->bytes;
    e.data = std::move(data);
    lru_.push_back(key);
    e.lru_it = std::prev(lru_.end());
    stats_.bytes_cached += e.bytes;
    stats_.peak_bytes = std::max(stats_.peak_bytes, stats_.bytes_cached);
    ++stats_.inserts;
    it = entries_.emplace(key, std::move(e)).first;
  } else if (it->second.pins == 0) {
    // Already resident (e.g. a prefetch raced a demand load): refresh
    // recency, keep the existing bytes accounting.
    lru_.splice(lru_.end(), lru_, it->second.lru_it);
  }
  if (pins != nullptr) PinLocked(key, &it->second, pins);
  // Taken before eviction: an unpinned entry larger than the whole
  // budget is evicted by its own insert.
  std::shared_ptr<const CachedColumn> resident = it->second.data;
  EvictToBudgetLocked();
  return resident;
}

void PartitionCache::Touch(const std::vector<ColumnKey>& keys) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const ColumnKey& key : keys) {
    auto it = entries_.find(key);
    if (it == entries_.end() || it->second.pins > 0) continue;
    lru_.splice(lru_.end(), lru_, it->second.lru_it);
  }
}

void PartitionCache::ReleaseMany(const std::vector<ColumnKey>& keys) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const ColumnKey& key : keys) {
    auto it = entries_.find(key);
    assert(it != entries_.end() && it->second.pins > 0);
    Entry& e = it->second;
    if (--e.pins > 0) continue;
    stats_.bytes_pinned -= e.bytes;
    // Scan-resistant re-entry: a released pin means the scan is *done*
    // with this segment, so it re-enters at the cold end — ahead of
    // staged-but-unscanned entries in eviction order. Plain MRU re-entry
    // would let a multi-lane scan's wake evict the read-ahead before it
    // is ever used.
    lru_.push_front(key);
    e.lru_it = lru_.begin();
  }
  // If pins forced an overshoot, drain it now rather than at the next
  // insert.
  EvictToBudgetLocked();
}

void PartitionCache::EvictToBudgetLocked() {
  while (stats_.bytes_cached > budget_ && !lru_.empty()) {
    const ColumnKey victim = lru_.front();
    lru_.pop_front();
    auto it = entries_.find(victim);
    assert(it != entries_.end() && it->second.pins == 0);
    stats_.bytes_cached -= it->second.bytes;
    ++stats_.evictions;
    entries_.erase(it);
  }
}

bool PartitionCache::Contains(const ColumnKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.count(key) != 0;
}

bool PartitionCache::ContainsAll(size_t part,
                                 const std::vector<size_t>& cols) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t c : cols) {
    if (entries_.count(ColumnKey{part, c}) == 0) return false;
  }
  return true;
}

void PartitionCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const ColumnKey& key : lru_) {
    auto it = entries_.find(key);
    stats_.bytes_cached -= it->second.bytes;
    ++stats_.evictions;
    entries_.erase(it);
  }
  lru_.clear();
}

size_t PartitionCache::bytes_cached() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_.bytes_cached;
}

CacheStats PartitionCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace ps3::io
