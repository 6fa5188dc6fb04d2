#include "io/prefetch_pipeline.h"

#include <algorithm>
#include <utility>

#include "common/math_util.h"
#include "runtime/worker_pool.h"

namespace ps3::io {

PrefetchPipeline::PrefetchPipeline(PartitionStore* store,
                                   runtime::QueryScheduler* scheduler)
    : PrefetchPipeline(store, scheduler, Options()) {}

namespace {

size_t BatchCapBytes(const PrefetchPipeline::Options& options) {
  const double f =
      std::min(1.0, std::max(0.0, options.interactive_reserve_fraction));
  return static_cast<size_t>(
      static_cast<double>(options.readahead_bytes) * (1.0 - f));
}

}  // namespace

PrefetchPipeline::PrefetchPipeline(PartitionStore* store,
                                   runtime::QueryScheduler* scheduler,
                                   Options options)
    : store_(store),
      scheduler_(scheduler),
      options_(options),
      batch_cap_bytes_(BatchCapBytes(options)) {}

PrefetchPipeline::~PrefetchPipeline() { Drain(); }

void PrefetchPipeline::UpdateEwma(std::atomic<uint64_t>* cell,
                                  uint64_t sample_us) {
  // 0 means "no sample yet" in the cells, so a sub-microsecond sample
  // (back-to-back shard entries on a hot scan) clamps to 1us — exactly
  // the regime where the distance must be able to widen, which a
  // never-seeded scan EWMA would keep pinned at 1. Integer rounding
  // floors the decayed EWMA a few microseconds above tiny samples —
  // negligible at the millisecond scales being paced.
  cell->store(LatencyEwmaStep(cell->load(std::memory_order_relaxed), sample_us),
              std::memory_order_relaxed);
}

size_t PrefetchPipeline::AheadDistance() const {
  const uint64_t scan = scan_ewma_us_.load(std::memory_order_relaxed);
  const uint64_t load = load_ewma_us_.load(std::memory_order_relaxed);
  // Until both latencies have samples, stay at the conservative fixed
  // next-shard lookahead.
  if (scan == 0 || load == 0) return 1;
  // Loads lagging scans by a factor k need ~k shards in flight to keep
  // the scan fed; ceil so a 1.2x lag still widens to 2.
  const uint64_t want = (load + scan - 1) / scan;
  return std::max<size_t>(
      1, std::min<size_t>(options_.max_ahead_shards,
                          static_cast<size_t>(want)));
}

bool PrefetchPipeline::TryReserve(size_t bytes, QueryClass query_class) {
  std::lock_guard<std::mutex> lock(budget_mu_);
  // The total pool bounds everyone; batch additionally stops at its
  // share, leaving the reserve to interactive staging (which may also
  // soak up whatever batch left idle).
  if (inflight_batch_ + inflight_interactive_ + bytes >
      options_.readahead_bytes) {
    return false;
  }
  if (query_class == QueryClass::kBatch) {
    if (inflight_batch_ + bytes > batch_cap_bytes_) return false;
    inflight_batch_ += bytes;
  } else {
    inflight_interactive_ += bytes;
  }
  return true;
}

void PrefetchPipeline::Release(size_t bytes, QueryClass query_class) {
  std::lock_guard<std::mutex> lock(budget_mu_);
  if (query_class == QueryClass::kBatch) {
    inflight_batch_ -= bytes;
  } else {
    inflight_interactive_ -= bytes;
  }
}

void PrefetchPipeline::StageAhead(
    const std::vector<std::vector<size_t>>& shards, size_t current,
    const storage::ColumnSet& columns, QueryClass query_class) {
  {
    std::lock_guard<std::mutex> lock(pace_mu_);
    const Clock::time_point now = Clock::now();
    if (has_last_stage_) {
      const uint64_t interval_us =
          static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  now - last_stage_)
                  .count());
      // Concurrent scans sharing one pipeline shorten the apparent
      // interval, which only widens the distance — and the byte budget
      // still bounds the total, so the bias is safe.
      UpdateEwma(&scan_ewma_us_, interval_us);
    }
    last_stage_ = now;
    has_last_stage_ = true;
  }
  const size_t ahead = AheadDistance();
  std::vector<size_t> parts;
  for (size_t d = 1; d <= ahead && current + d < shards.size(); ++d) {
    const std::vector<size_t>& shard = shards[current + d];
    parts.insert(parts.end(), shard.begin(), shard.end());
  }
  if (!parts.empty()) Stage(std::move(parts), columns, query_class);
}

void PrefetchPipeline::Stage(std::vector<size_t> parts,
                             const storage::ColumnSet& columns,
                             QueryClass query_class) {
  // Budget admission up front, so the shared pool is charged before the
  // task is queued (otherwise N queries could all stage "within budget"
  // simultaneously). Admission is column-granular: only a partition's
  // *missing hinted segments* charge the pool.
  struct Load {
    size_t part;
    size_t bytes;  ///< *encoded* bytes reserved against the read-ahead pool
    /// Exactly the segments whose bytes were reserved: the task preloads
    /// these, not the whole hint — re-deriving the missing set at load
    /// time could pull in segments evicted since admission and overrun
    /// the budget the reservation accounted for.
    std::vector<size_t> cols;
  };
  std::vector<Load> to_load;
  to_load.reserve(parts.size());
  // Two admission tests in two different units, because compression
  // split them: the shared read-ahead pool meters *encoded* bytes (what
  // the disk/link actually moves — the thing read-ahead IO pressure is
  // made of), while the cache-retention bound meters *decoded* bytes
  // (what a staged segment occupies once it lands — staging past the
  // cache budget just evicts read-ahead before the scan reaches it).
  // Charging the cache bound at encoded size would let compressed
  // segments overcommit the cache by their compression ratio. Headroom
  // is sampled once per Stage call; advisory, like everything here.
  const size_t cache_budget = store_->cache().budget_bytes();
  const size_t cached = store_->cache().bytes_cached();
  const size_t headroom = cache_budget > cached ? cache_budget - cached : 0;
  size_t decoded_admitted = 0;
  const std::vector<size_t> hinted =
      columns.Resolve(store_->schema().num_columns());
  for (size_t p : parts) {
    // Segments cached *or already mid-load* are someone else's bytes:
    // with a widened stage-ahead distance, successive overlapping
    // windows would otherwise re-reserve budget for the same in-flight
    // segments and starve genuinely new shards into skipped_budget.
    std::vector<size_t> missing = store_->UnstagedColumns(p, hinted);
    if (missing.empty()) {
      skipped_cached_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const size_t decoded = store_->columns_bytes(p, missing);
    if (decoded_admitted + decoded > headroom) {
      skipped_budget_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const size_t bytes = store_->encoded_columns_bytes(p, missing);
    if (!TryReserve(bytes, query_class)) {
      skipped_budget_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    decoded_admitted += decoded;
    to_load.push_back(Load{p, bytes, std::move(missing)});
  }
  if (to_load.empty()) return;
  staged_.fetch_add(to_load.size(), std::memory_order_relaxed);

  // Total reservation for this batch, released in one piece when the
  // whole pass lands (success, load error, or failed dispatch alike).
  // Per-load release would return budget marginally sooner, but a single
  // batch-scoped release makes "no reservation can outlive its task"
  // auditable on every path — the leak class the budget tests pin.
  size_t reserved_bytes = 0;
  for (const Load& l : to_load) reserved_bytes += l.bytes;

  // One scheduler task per staged batch; the task fans the loads out
  // across worker-pool lanes, releases the budget when the pass lands,
  // and feeds the load-latency EWMA that drives the adaptive distance.
  auto task = [this, loads = std::move(to_load), reserved_bytes,
               query_class] {
    PartitionStore* store = store_;
    const Clock::time_point start = Clock::now();
    try {
      scheduler_->pool().ParallelFor(
          loads.size(),
          [this, store, &loads](size_t k) {
            const Load& load = loads[k];
            // Prefetch is advisory, so nothing may escape: a thrown load
            // (bad_alloc during rehydration) would fail the whole pool
            // job and drain sibling items without running them.
            try {
              Status s = store->Preload(
                  load.part, storage::ColumnSet::Of(load.cols));
              if (!s.ok()) {
                load_errors_.fetch_add(1, std::memory_order_relaxed);
              }
            } catch (...) {
              load_errors_.fetch_add(1, std::memory_order_relaxed);
            }
          },
          options_.load_lanes);
    } catch (...) {
      // ParallelFor itself failing (job allocation) is still advisory —
      // the demand path loads what staging didn't — but the reservation
      // must not leak with it.
      load_errors_.fetch_add(1, std::memory_order_relaxed);
    }
    Release(reserved_bytes, query_class);
    // The sample is the *whole pass's* wall time, deliberately not
    // divided by the number of shards it spanned: loads fan out across
    // the pool lanes, so a batch lands in ~one store RTT when it fits
    // the lanes — the pass time measures how long a prefetch batch takes
    // to arrive, which against the per-shard scan interval is exactly
    // the pipeline depth (shards in flight) needed to keep the scan fed.
    // Lane-saturated batches take proportionally longer and ask for
    // deeper read-ahead; max_ahead_shards and the cache-headroom bound
    // cap what that can cost.
    UpdateEwma(&load_ewma_us_,
               static_cast<uint64_t>(
                   std::chrono::duration_cast<std::chrono::microseconds>(
                       Clock::now() - start)
                       .count()));
  };
  std::future<void> fut;
  try {
    fut = scheduler_->Defer(std::move(task));
  } catch (...) {
    // Dispatch failed (allocation): the task will never run, so return
    // its reservation here — otherwise the bytes leak from the pool
    // forever. Advisory, like every staging failure.
    Release(reserved_bytes, query_class);
    load_errors_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  // Prune finished futures so a long query stream doesn't accumulate one
  // handle per staged shard forever.
  size_t live = 0;
  for (auto& f : inflight_) {
    if (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      inflight_[live++] = std::move(f);
    }
  }
  inflight_.resize(live);
  inflight_.push_back(std::move(fut));
}

void PrefetchPipeline::Drain() {
  std::vector<std::future<void>> pending;
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending.swap(inflight_);
  }
  for (auto& f : pending) f.wait();
}

PrefetchPipeline::PrefetchStats PrefetchPipeline::stats() const {
  PrefetchStats s;
  s.staged = staged_.load(std::memory_order_relaxed);
  s.skipped_cached = skipped_cached_.load(std::memory_order_relaxed);
  s.skipped_budget = skipped_budget_.load(std::memory_order_relaxed);
  s.load_errors = load_errors_.load(std::memory_order_relaxed);
  s.ahead_shards = AheadDistance();
  {
    std::lock_guard<std::mutex> lock(budget_mu_);
    s.inflight_batch_bytes = inflight_batch_;
    s.inflight_interactive_bytes = inflight_interactive_;
  }
  s.inflight_bytes = s.inflight_batch_bytes + s.inflight_interactive_bytes;
  return s;
}

}  // namespace ps3::io
