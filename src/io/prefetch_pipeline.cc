#include "io/prefetch_pipeline.h"

#include <algorithm>
#include <utility>

namespace ps3::io {

namespace {

/// True iff the decoded footprint of `columns` over every partition of
/// `plan` exceeds `limit` bytes. Manifest sizes only, so the verdict
/// never depends on what is cached; stops counting once over.
bool PlanExceeds(const PartitionStore& store,
                 const std::vector<std::vector<size_t>>& plan,
                 const std::vector<size_t>& columns, size_t limit) {
  size_t total = 0;
  for (const std::vector<size_t>& shard : plan) {
    for (size_t p : shard) {
      total += store.columns_bytes(p, columns);
      if (total > limit) return true;
    }
  }
  return false;
}

}  // namespace

PrefetchPipeline::PrefetchPipeline(PartitionStore* store,
                                   runtime::QueryScheduler* scheduler)
    : PrefetchPipeline(store, scheduler, Options()) {}

PrefetchPipeline::PrefetchPipeline(PartitionStore* store,
                                   runtime::QueryScheduler* scheduler,
                                   Options options)
    : store_(store),
      batch_share_(1.0 - std::clamp(options.interactive_reserve_fraction,
                                    0.0, 1.0)) {
  (void)scheduler;
  try {
    lanes_.reserve(kLoadLanes);
    for (int i = 0; i < kLoadLanes; ++i) {
      lanes_.emplace_back([this] { LaneLoop(); });
    }
  } catch (...) {
    // No destructor runs for a half-built object: join the lanes already
    // started, or destroying them joinable would terminate the process.
    Stop();
    throw;
  }
}

PrefetchPipeline::~PrefetchPipeline() { Stop(); }

void PrefetchPipeline::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& lane : lanes_) lane.join();
}

void PrefetchPipeline::StageAhead(
    const std::vector<std::vector<size_t>>& shards, size_t current,
    const storage::ColumnSet& columns, QueryClass query_class) {
  if (current >= shards.size()) return;
  const std::vector<size_t> hinted =
      columns.Resolve(store_->schema().num_columns());
  std::vector<size_t> parts;
  if (PlanExceeds(*store_, shards, hinted,
                  store_->cache().budget_bytes() / 4)) {
    if (current + 1 < shards.size()) parts = shards[current + 1];
    Admit(parts, hinted, query_class, Room::kFree);
    return;
  }
  for (size_t s = current; s < shards.size(); ++s) {
    parts.insert(parts.end(), shards[s].begin(), shards[s].end());
  }
  Admit(parts, hinted, query_class, Room::kEvictable);
}

void PrefetchPipeline::Stage(std::vector<size_t> parts,
                             const storage::ColumnSet& columns,
                             QueryClass query_class) {
  Admit(parts, columns.Resolve(store_->schema().num_columns()), query_class,
        Room::kEvictable);
}

void PrefetchPipeline::Admit(const std::vector<size_t>& parts,
                             const std::vector<size_t>& hinted,
                             QueryClass query_class, Room room) {
  if (parts.empty()) return;
  PartitionCache& cache = store_->cache();
  const size_t budget = cache.budget_bytes();
  const bool batch = query_class == QueryClass::kBatch;
  size_t queued = 0;
  {
    // mu_ is held across the store's cached/loading lookups (lanes never
    // hold it while loading, so the order is always mu_ then the
    // store's): a lane cannot land and dequeue a segment between the
    // two checks, so nothing is admitted twice.
    std::lock_guard<std::mutex> lock(mu_);
    const size_t used = room == Room::kFree ? cache.bytes_cached()
                                            : cache.stats().bytes_pinned;
    const size_t headroom = budget > used ? budget - used : 0;
    const size_t batch_headroom =
        static_cast<size_t>(static_cast<double>(headroom) * batch_share_);
    // The plan's hinted segments the claim filter left out: cached ones
    // (and mid-load ones, which Touch ignores).
    std::vector<ColumnKey> resident;
    for (size_t p : parts) {
      std::vector<size_t> cols = store_->UnstagedColumns(p, hinted);
      if (room == Room::kEvictable) {
        // `cols` keeps `hinted`'s order, so one walk finds the rest.
        size_t k = 0;
        for (size_t c : hinted) {
          if (k < cols.size() && cols[k] == c) {
            ++k;
          } else {
            resident.push_back(ColumnKey{p, c});
          }
        }
      }
      cols.erase(std::remove_if(cols.begin(), cols.end(),
                                [&](size_t c) {
                                  return queued_.count(ColumnKey{p, c}) != 0;
                                }),
                 cols.end());
      if (cols.empty()) {
        skipped_cached_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      const size_t bytes = store_->columns_bytes(p, cols);
      if (inflight_batch_ + inflight_interactive_ + bytes > headroom ||
          (batch && inflight_batch_ + bytes > batch_headroom)) {
        skipped_budget_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      (batch ? inflight_batch_ : inflight_interactive_) += bytes;
      for (size_t c : cols) queued_.insert(ColumnKey{p, c});
      (batch ? batch_ : interactive_)
          .push_back(Load{p, std::move(cols), bytes, query_class});
      staged_.fetch_add(1, std::memory_order_relaxed);
      ++queued;
    }
    // No lane can pop these loads until mu_ is released, so the plan's
    // resident segments reach the MRU end before any of its inserts
    // evicts. A bulk plan (kFree) evicts nothing, so it touches nothing.
    if (queued > 0 && !resident.empty()) cache.Touch(resident);
  }
  for (size_t i = 0; i < queued; ++i) work_cv_.notify_one();
}

void PrefetchPipeline::LaneLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] {
      return stop_ || !interactive_.empty() || !batch_.empty();
    });
    if (stop_) return;
    std::deque<Load>& q = interactive_.empty() ? batch_ : interactive_;
    const Load load = std::move(q.front());
    q.pop_front();
    ++busy_lanes_;
    lock.unlock();
    // Prefetch is advisory, so nothing may escape a lane: a thrown load
    // (bad_alloc during rehydration) counts as an error like a failed one.
    bool ok = false;
    try {
      ok = store_->Preload(load.part, storage::ColumnSet::Of(load.cols)).ok();
    } catch (...) {
    }
    lock.lock();
    if (!ok) load_errors_.fetch_add(1, std::memory_order_relaxed);
    (load.query_class == QueryClass::kBatch ? inflight_batch_
                                            : inflight_interactive_) -=
        load.bytes;
    // Dequeued only once landed: until then the store's loading marks and
    // this set overlap, so no window re-admits the segment.
    for (size_t c : load.cols) queued_.erase(ColumnKey{load.part, c});
    --busy_lanes_;
    if (busy_lanes_ == 0 && interactive_.empty() && batch_.empty()) {
      idle_cv_.notify_all();
    }
  }
}

void PrefetchPipeline::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] {
    return busy_lanes_ == 0 && interactive_.empty() && batch_.empty();
  });
}

PrefetchPipeline::PrefetchStats PrefetchPipeline::stats() const {
  PrefetchStats s;
  s.staged = staged_.load(std::memory_order_relaxed);
  s.skipped_cached = skipped_cached_.load(std::memory_order_relaxed);
  s.skipped_budget = skipped_budget_.load(std::memory_order_relaxed);
  s.load_errors = load_errors_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.inflight_batch_bytes = inflight_batch_;
    s.inflight_interactive_bytes = inflight_interactive_;
  }
  s.inflight_bytes = s.inflight_batch_bytes + s.inflight_interactive_bytes;
  return s;
}

}  // namespace ps3::io
