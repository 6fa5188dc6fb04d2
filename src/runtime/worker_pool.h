// Persistent pool for per-partition parallelism (scans, stats builds,
// labeling, featurization) shared by concurrent queries.
//
// Workers are resident: threads are spawned once (growing lazily to the
// peak requested lane count) and sleep between jobs. Each ParallelFor call
// materializes a *job*: its index range is carved into contiguous chunks,
// and every lane serving the job claims the next chunk from the job's one
// atomic cursor, so chunks are claimed in ascending order and a lane that
// finishes early simply claims more.
//
// Multiple jobs are in flight at once. Concurrent top-level ParallelFor
// callers are admitted side by side instead of serialized: resident workers
// pick one chunk per pick from the active-job registry, and each job caps
// how many lanes may serve it simultaneously (`max_lanes`, the
// ExecOptions::num_threads convention), so one heavy query cannot
// monopolize the pool while others starve. The submitting thread claims
// from its own job's cursor until it runs out, so a job completes even if
// every worker is busy elsewhere.
//
// Picks are class-aware and service-balanced. Each job carries a
// QueryClass: when both classes have servable work, interactive jobs win
// kInteractivePickWeight of every kInteractivePickWeight+1 picks (a
// weighted-deficit counter guarantees the remaining pick goes to batch,
// so batch always progresses — preemption at chunk granularity, never
// starvation). Within a class the least-served job (fewest chunks
// claimed) is picked, which keeps service even across same-class jobs
// regardless of registration order or churn.
//
// The pool polls no cancel token. A task aborts by throwing — the query
// evaluator polls its token before every partition acquire — and the
// throw takes the per-job failure path below, so cancellation never
// poisons co-resident jobs.
//
// Determinism: results are written to caller-indexed slots by the supplied
// function, so every reduction stays ordered and bit-identical to serial
// execution regardless of lane count, which lane claims which chunk, or
// what other jobs run concurrently. Failure is per job: an exception
// thrown by `fn` is recorded on that job alone, its remaining chunks drain
// without running, and the exception is rethrown on that job's caller —
// sibling jobs and the resident lanes are unaffected.
//
// The pool also owns per-lane scratch storage (LocalScratch<T>). Because
// workers are resident, scratch obtained inside a task survives across
// jobs — the property that makes multi-megabyte query scratch (dense
// group-id tables, bitmap stacks) amortize across a whole query stream
// instead of being torn down with each forked worker.
#ifndef PS3_RUNTIME_WORKER_POOL_H_
#define PS3_RUNTIME_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/query_control.h"

namespace ps3::runtime {

class WorkerPool {
 public:
  /// Per-job scheduling options for ParallelFor.
  struct TaskOptions {
    /// Lane cap, ExecOptions::num_threads convention: <= 0 = pool
    /// default, 1 = fully inline on the caller.
    int max_lanes = 0;
    /// Admission class: interactive jobs preempt batch at chunk
    /// granularity (weighted, batch still progresses). Affects only when
    /// chunks run, never results.
    QueryClass query_class = QueryClass::kBatch;
  };
  /// `num_threads` <= 0 selects the hardware concurrency. Worker threads
  /// are spawned on construction and stay resident until destruction.
  explicit WorkerPool(int num_threads = 0);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Lanes currently resident (caller lane + worker threads).
  size_t num_lanes() const { return lanes_.load(std::memory_order_relaxed); }

  /// Runs fn(i) for every i in [0, n), blocking until all complete. The
  /// calling thread participates as a lane of its own job. `max_lanes`
  /// caps how many lanes (caller included) may serve this job at once and
  /// follows the ExecOptions::num_threads convention: <= 0 = the pool's
  /// default lane count, 1 = fully inline on the caller. The pool grows
  /// (spawning resident workers) if `max_lanes` exceeds the current lane
  /// count, up to a hard ceiling of 256 lanes — growth follows the peak
  /// request and never shrinks, so the ceiling bounds what an errant value
  /// can pin. Nested calls from inside a task run inline (no deadlock, no
  /// thread explosion). Exceptions thrown by `fn` are rethrown on the
  /// caller; the job's remaining chunks are skipped best-effort and
  /// concurrent jobs are unaffected. Concurrent top-level callers run side
  /// by side: each call is an independent job whose chunks interleave with
  /// other jobs' on the shared lanes, and whose results and failure state
  /// are isolated to that call.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                   int max_lanes = 0) {
    TaskOptions topts;
    topts.max_lanes = max_lanes;
    ParallelFor(n, fn, topts);
  }

  /// Same, with full scheduling options (lane cap and class-weighted
  /// picks).
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                   const TaskOptions& topts);

  /// Process-wide resident pool, sized to the hardware concurrency (and
  /// growing to the peak explicitly requested lane count).
  static WorkerPool& Shared();

  /// Per-lane scratch of arbitrary type, default-constructed on first use
  /// and retained for the pool's lifetime. Called from a resident worker
  /// lane it returns the executing lane's slot (stable across jobs — this
  /// is what makes scratch reuse real on worker threads). Called from any
  /// other thread — one not executing a task of this pool, or a
  /// ParallelFor caller serving its own job — it returns a thread_local
  /// fallback, which equally persists for the calling thread's lifetime
  /// (a resident submitter thread amortizes its scratch the same way a
  /// worker does). Never returns storage shared between two concurrently
  /// running lanes: worker lanes execute one chunk at a time, and the
  /// fallback is private to its thread.
  template <typename T>
  T& LocalScratch() {
    if (CurrentPool() == this && CurrentLane() != kCallerLane) {
      LaneScratch& ls = *scratch_[CurrentLane()];
      const void* key = TypeKey<T>();
      for (const ScratchEntry& e : ls.entries) {
        if (e.key == key) return *static_cast<T*>(e.ptr);
      }
      T* p = new T();
      ls.entries.push_back(ScratchEntry{key, p, &DestroyT<T>});
      return *p;
    }
    static thread_local T fallback;
    return fallback;
  }

 private:
  /// One ParallelFor call. Owned via shared_ptr: the registry and every
  /// lane currently serving the job hold references, so a worker finishing
  /// its last chunk after the caller returned never touches freed memory.
  struct Job {
    const std::function<void(size_t)>* fn = nullptr;
    size_t n = 0;          ///< items
    size_t chunk_len = 0;  ///< items per chunk; the last may be shorter
    size_t n_chunks = 0;
    size_t cap = 0;  ///< max lanes serving concurrently (incl. caller)
    QueryClass query_class = QueryClass::kBatch;

    /// Next chunk to claim (fetch_add, so claims past n_chunks find
    /// nothing). Below n_chunks it counts the chunks claimed so far — the
    /// service counter least-served-first picking balances on.
    std::atomic<size_t> next_chunk{0};
    std::atomic<size_t> remaining{0};  ///< chunks not yet executed/drained
    std::atomic<size_t> active_lanes{0};

    std::atomic<bool> failed{false};
    std::mutex error_mu;
    std::exception_ptr error;

    std::mutex done_mu;
    std::condition_variable done_cv;
    bool done = false;  ///< guarded by done_mu
  };

  struct ScratchEntry {
    const void* key;
    void* ptr;
    void (*destroy)(void*);
  };
  struct LaneScratch {
    std::vector<ScratchEntry> entries;
    ~LaneScratch() {
      for (const ScratchEntry& e : entries) e.destroy(e.ptr);
    }
  };

  template <typename T>
  static void DestroyT(void* p) {
    delete static_cast<T*>(p);
  }
  template <typename T>
  static const void* TypeKey() {
    static const char key = 0;
    return &key;
  }

  /// Lane id a ParallelFor caller runs under while serving its own job.
  /// Distinct from every worker lane so LocalScratch can route concurrent
  /// submitter threads to private (thread_local) storage instead of a
  /// shared slot.
  static constexpr size_t kCallerLane = ~size_t{0};

  /// Pool whose task the calling thread is currently executing (nullptr
  /// outside tasks) and the executing lane id.
  static WorkerPool* CurrentPool();
  static size_t CurrentLane();

  /// Grows to `lanes` total lanes. Caller must hold grow_mu_.
  void EnsureLanes(size_t lanes);
  void WorkerMain(size_t lane);
  /// Picks a job with unclaimed chunks and spare lane capacity — class
  /// weighting between interactive and batch, least-served-first within a
  /// class — and reserves a lane on it. Returns nullptr when nothing is
  /// servable. Caller must hold jobs_mu_.
  std::shared_ptr<Job> PickJob();
  /// Claims and executes at most one chunk, then releases the reserved
  /// lane.
  void ServeOneChunk(Job* job);
  /// Runs chunk `c` (or discards it after a failure) and retires it from
  /// the job's accounting, signalling completion on the last chunk.
  void ExecuteChunk(Job* job, size_t c);

  size_t default_lanes_;
  std::atomic<size_t> lanes_{1};  // lane 0 = reserved (callers are private)
  /// Preallocated to the lane ceiling so workers index it without
  /// synchronizing against growth.
  std::vector<std::unique_ptr<LaneScratch>> scratch_;
  std::vector<std::thread> workers_;
  std::mutex grow_mu_;  ///< serializes EnsureLanes callers

  std::mutex jobs_mu_;
  std::vector<std::shared_ptr<Job>> jobs_;  ///< active-job registry
  /// Interactive picks made since batch last won while both classes had
  /// servable work; at kInteractivePickWeight the next contested pick
  /// goes to batch. Guarded by jobs_mu_.
  size_t batch_deficit_ = 0;

  /// Idle workers wait here under jobs_mu_; notified when a job is
  /// registered, when a lane frees on a job with unclaimed chunks, and on
  /// shutdown.
  std::condition_variable wake_cv_;
  bool shutdown_ = false;  ///< guarded by jobs_mu_
};

}  // namespace ps3::runtime

#endif  // PS3_RUNTIME_WORKER_POOL_H_
