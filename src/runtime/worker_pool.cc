#include "runtime/worker_pool.h"

#include <algorithm>

namespace ps3::runtime {

namespace {

/// Chunks per participating lane: enough slack for the shared cursor to
/// balance skew, few enough that the per-chunk job re-pick stays
/// negligible.
constexpr size_t kChunksPerLane = 4;

/// Hard ceiling on resident lanes. Growth follows the peak requested lane
/// count and never shrinks, so an errant num_threads (a garbage
/// PS3_THREADS value, a misconfigured Featurizer) must not pin thousands
/// of sleeping threads for the process lifetime.
constexpr size_t kMaxLanes = 256;

/// Contested-pick ratio: when both classes have servable work,
/// interactive wins this many picks for every one batch pick. High
/// enough that an interactive query runs at near-full lane share under
/// batch load, low enough that batch aggregate progress is guaranteed
/// (never starved, merely slowed) while interactive work is in flight.
constexpr size_t kInteractivePickWeight = 4;

thread_local WorkerPool* t_pool = nullptr;
thread_local size_t t_lane = 0;

}  // namespace

WorkerPool* WorkerPool::CurrentPool() { return t_pool; }
size_t WorkerPool::CurrentLane() { return t_lane; }

WorkerPool::WorkerPool(int num_threads) {
  if (num_threads <= 0) {
    unsigned hw = std::thread::hardware_concurrency();
    default_lanes_ = hw == 0 ? 1 : static_cast<size_t>(hw);
  } else {
    default_lanes_ = static_cast<size_t>(num_threads);
  }
  default_lanes_ = std::min(default_lanes_, kMaxLanes);
  // Scratch slots for every lane the pool could ever grow to: workers then
  // index scratch_ without synchronizing against later growth.
  scratch_.reserve(kMaxLanes);
  for (size_t i = 0; i < kMaxLanes; ++i) {
    scratch_.push_back(std::make_unique<LaneScratch>());
  }
  std::lock_guard<std::mutex> lock(grow_mu_);
  EnsureLanes(default_lanes_);
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    shutdown_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

WorkerPool& WorkerPool::Shared() {
  static WorkerPool pool;
  return pool;
}

void WorkerPool::EnsureLanes(size_t lanes) {
  size_t cur = lanes_.load(std::memory_order_relaxed);
  while (cur < lanes) {
    try {
      workers_.emplace_back([this, cur] { WorkerMain(cur); });
    } catch (const std::system_error&) {
      // Thread exhaustion: degrade to however many workers did start.
      break;
    }
    ++cur;
    lanes_.store(cur, std::memory_order_relaxed);
  }
}

void WorkerPool::WorkerMain(size_t lane) {
  t_pool = this;
  t_lane = lane;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      // Servable work appears only under jobs_mu_ (a registration) or is
      // announced under it (a lane freed on a job with unclaimed chunks),
      // so a scan that finds nothing cannot miss the wake-up.
      std::unique_lock<std::mutex> lock(jobs_mu_);
      wake_cv_.wait(lock,
                    [&] { return shutdown_ || (job = PickJob()) != nullptr; });
      if (shutdown_) return;
    }
    ServeOneChunk(job.get());
  }
}

std::shared_ptr<WorkerPool::Job> WorkerPool::PickJob() {
  // Best servable candidate per class, fewest chunks claimed first (ties
  // go to registry order, which the claim counters immediately break).
  // Balancing on service, not registry position, keeps picks fair when
  // jobs retire and re-submit.
  std::shared_ptr<Job>* best[2] = {nullptr, nullptr};
  for (auto& job : jobs_) {
    const size_t claimed = job->next_chunk.load(std::memory_order_relaxed);
    if (claimed >= job->n_chunks) continue;
    if (job->active_lanes.load(std::memory_order_relaxed) >= job->cap) {
      continue;  // saturated: every cap slot is already serving
    }
    const size_t c = job->query_class == QueryClass::kInteractive ? 1 : 0;
    if (best[c] == nullptr ||
        claimed <
            (*best[c])->next_chunk.load(std::memory_order_relaxed)) {
      best[c] = &job;
    }
  }
  size_t chosen;
  if (best[1] != nullptr && best[0] != nullptr) {
    // Both classes contend: interactive wins kInteractivePickWeight of
    // every kInteractivePickWeight+1 picks; the deficit counter hands
    // the remaining one to batch, so batch progresses under any
    // interactive load.
    if (batch_deficit_ >= kInteractivePickWeight) {
      batch_deficit_ = 0;
      chosen = 0;
    } else {
      ++batch_deficit_;
      chosen = 1;
    }
  } else if (best[1] != nullptr) {
    chosen = 1;
  } else if (best[0] != nullptr) {
    chosen = 0;
  } else {
    return nullptr;
  }
  // Reserve a lane slot under the job's cap. All reservations happen
  // under jobs_mu_, so only releases (decrements) race this CAS: having
  // observed active < cap above, the loop always lands.
  Job* job = best[chosen]->get();
  size_t active = job->active_lanes.load(std::memory_order_relaxed);
  while (!job->active_lanes.compare_exchange_weak(active, active + 1)) {
  }
  return *best[chosen];
}

void WorkerPool::ExecuteChunk(Job* job, size_t c) {
  if (!job->failed.load(std::memory_order_relaxed)) {
    const size_t end = std::min(job->n, (c + 1) * job->chunk_len);
    try {
      for (size_t i = c * job->chunk_len; i < end; ++i) {
        // Per-item early stop: after a failure elsewhere in this job,
        // don't burn the rest of an in-flight chunk on items whose
        // results will be discarded. Failure is job-local — chunks of
        // sibling jobs keep running.
        if (job->failed.load(std::memory_order_relaxed)) break;
        (*job->fn)(i);
      }
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(job->error_mu);
        if (!job->error) job->error = std::current_exception();
      }
      job->failed.store(true, std::memory_order_relaxed);
    }
  }
  // Retire the chunk. The acq_rel RMW chain across finishers plus the
  // done_mu handshake below makes every lane's writes visible to the
  // caller when it observes done.
  if (job->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(job->done_mu);
    job->done = true;
    job->done_cv.notify_all();
  }
}

void WorkerPool::ServeOneChunk(Job* job) {
  const size_t c = job->next_chunk.fetch_add(1, std::memory_order_relaxed);
  if (c < job->n_chunks) ExecuteChunk(job, c);
  job->active_lanes.fetch_sub(1, std::memory_order_release);
  // Releasing a cap slot on a job that still has unclaimed chunks makes
  // work servable for a sleeping worker.
  if (job->next_chunk.load(std::memory_order_relaxed) < job->n_chunks) {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    wake_cv_.notify_one();
  }
}

void WorkerPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                             const TaskOptions& topts) {
  size_t lanes =
      std::min({n, kMaxLanes,
                topts.max_lanes <= 0 ? default_lanes_
                                     : static_cast<size_t>(topts.max_lanes)});
  // Nested calls (a task spawning parallel work on its own pool) run
  // inline: the outer job's lanes are already saturated.
  if (t_pool != nullptr) lanes = 1;
  if (lanes > 1) {
    std::lock_guard<std::mutex> grow_lock(grow_mu_);
    EnsureLanes(lanes);
    lanes = std::min(lanes, lanes_.load(std::memory_order_relaxed));
  }
  if (lanes <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->n = n;
  job->chunk_len = std::max<size_t>(1, n / (lanes * kChunksPerLane));
  job->n_chunks = (n + job->chunk_len - 1) / job->chunk_len;
  job->cap = lanes;
  job->query_class = topts.query_class;
  job->remaining.store(job->n_chunks, std::memory_order_relaxed);
  // The submitting caller occupies one lane slot for its whole claim loop,
  // so the job makes progress even if every worker is serving other jobs.
  job->active_lanes.store(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    jobs_.push_back(job);
  }
  wake_cv_.notify_all();

  // The caller claims from its own job's cursor until it runs out.
  t_pool = this;
  t_lane = kCallerLane;
  for (;;) {
    const size_t c = job->next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (c >= job->n_chunks) break;
    ExecuteChunk(job.get(), c);
  }
  t_pool = nullptr;
  job->active_lanes.fetch_sub(1, std::memory_order_release);

  // Wait for chunks still running on workers: a claimed chunk is retired
  // only after it runs, so done implies every chunk fully executed (or
  // drained after this job's failure).
  {
    std::unique_lock<std::mutex> lock(job->done_mu);
    job->done_cv.wait(lock, [&] { return job->done; });
  }

  // Unregister. Workers that still hold a reference find the cursor
  // exhausted and drop it; the shared_ptr keeps the Job alive under them.
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    for (size_t i = 0; i < jobs_.size(); ++i) {
      if (jobs_[i] == job) {
        jobs_.erase(jobs_.begin() + static_cast<ptrdiff_t>(i));
        break;
      }
    }
  }

  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lock(job->error_mu);
    err = job->error;
  }
  if (err) std::rethrow_exception(err);
}

}  // namespace ps3::runtime
