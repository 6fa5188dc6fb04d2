#include "io/partition_cache.h"

#include <algorithm>
#include <cassert>

namespace ps3::io {

ColumnPin PartitionCache::MakePinned(
    const ColumnKey& key, std::shared_ptr<const CachedColumn> data) {
  // The token owns a reference to the data (so the column outlives even a
  // pathological eviction) and releases the pin on destruction. The
  // deleter locks mu_ when it runs — and the standard runs it even when
  // the control-block allocation throws — so this must only be called
  // with mu_ *released*: the entry is already pinned, which keeps it
  // alive across the unlock.
  PartitionCache* self = this;
  const CachedColumn* raw = data.get();
  std::shared_ptr<const CachedColumn> token(
      raw, [self, key, data = std::move(data)](const CachedColumn*) {
        self->Release(key);
      });
  return token;
}

void PartitionCache::PinLocked(Entry* e) {
  if (e->pins == 0) {
    lru_.erase(e->lru_it);  // pinned entries are invisible to eviction
    stats_.bytes_pinned += e->bytes;  // counted once, not per pin
  }
  ++e->pins;
}

PartitionCache::Entry& PartitionCache::InsertEntryLocked(
    const ColumnKey& key, std::shared_ptr<const CachedColumn> data) {
  Entry e;
  e.bytes = data->bytes;
  e.data = std::move(data);
  lru_.push_back(key);
  e.lru_it = std::prev(lru_.end());
  stats_.bytes_cached += e.bytes;
  stats_.peak_bytes = std::max(stats_.peak_bytes, stats_.bytes_cached);
  ++stats_.inserts;
  return entries_.emplace(key, std::move(e)).first->second;
}

std::shared_ptr<const void> PartitionCache::AcquireManyPinned(
    const std::vector<ColumnKey>& keys,
    std::vector<std::shared_ptr<const CachedColumn>>* data) {
  data->assign(keys.size(), nullptr);
  auto hit_keys = std::make_shared<std::vector<ColumnKey>>();
  hit_keys->reserve(keys.size());
  // The hit data refs double as the keep-alive set: the token below owns
  // them, so even a pathological eviction can't free a column a scan
  // still reads.
  auto hit_data =
      std::make_shared<std::vector<std::shared_ptr<const CachedColumn>>>();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t k = 0; k < keys.size(); ++k) {
      auto it = entries_.find(keys[k]);
      if (it == entries_.end()) {
        ++stats_.misses;
        continue;
      }
      ++stats_.hits;
      PinLocked(&it->second);
      (*data)[k] = it->second.data;
      hit_keys->push_back(keys[k]);
      hit_data->push_back(it->second.data);
    }
  }
  if (hit_keys->empty()) return nullptr;
  // One token, one release pass: the deleter locks mu_ once for the
  // whole batch (and, like MakePinned, must therefore be built with mu_
  // released — the entries are already pinned, which keeps them alive).
  PartitionCache* self = this;
  return std::shared_ptr<const void>(
      static_cast<const void*>(hit_keys.get()),
      [self, hit_keys = std::move(hit_keys),
       hit_data = std::move(hit_data)](const void*) {
        self->ReleaseMany(*hit_keys);
      });
}

void PartitionCache::Insert(const ColumnKey& key,
                            std::shared_ptr<const CachedColumn> data) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Already resident (e.g. a prefetch raced a demand load): refresh
    // recency if unpinned, keep the existing bytes accounting.
    if (it->second.pins == 0) {
      lru_.erase(it->second.lru_it);
      lru_.push_back(key);
      it->second.lru_it = std::prev(lru_.end());
    }
    return;
  }
  InsertEntryLocked(key, std::move(data));
  EvictToBudgetLocked();
}

ColumnPin PartitionCache::InsertPinned(
    const ColumnKey& key, std::shared_ptr<const CachedColumn> data) {
  std::shared_ptr<const CachedColumn> pinned_data;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    Entry& e = it != entries_.end()
                   ? it->second
                   : InsertEntryLocked(key, std::move(data));
    PinLocked(&e);
    EvictToBudgetLocked();
    pinned_data = e.data;
  }
  return MakePinned(key, std::move(pinned_data));
}

void PartitionCache::ReleaseLocked(const ColumnKey& key) {
  auto it = entries_.find(key);
  assert(it != entries_.end() && it->second.pins > 0);
  Entry& e = it->second;
  --e.pins;
  if (e.pins == 0) {
    stats_.bytes_pinned -= e.bytes;
    // Scan-resistant re-entry: a released pin means the scan is *done*
    // with this segment, so it re-enters at the cold end — ahead of
    // staged-but-unscanned entries in eviction order. Plain MRU re-entry
    // would let a multi-lane scan's wake evict the read-ahead before it
    // is ever used.
    lru_.push_front(key);
    e.lru_it = lru_.begin();
  }
}

void PartitionCache::Release(const ColumnKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  ReleaseLocked(key);
  // If pins forced an overshoot, drain it now rather than at the next
  // insert.
  EvictToBudgetLocked();
}

void PartitionCache::ReleaseMany(const std::vector<ColumnKey>& keys) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const ColumnKey& key : keys) ReleaseLocked(key);
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
