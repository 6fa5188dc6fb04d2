// Tests for the resident WorkerPool: ParallelFor coverage and
// determinism, nested-call inlining, exception propagation, lazy lane
// growth, the caller claiming its own job's chunks in ascending order,
// per-lane scratch that survives across ParallelFor calls instead of being
// torn down with forked workers — and the multi-job model: concurrent
// top-level callers admitted side by side with per-job lane caps and
// per-job failure isolation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "query/evaluator.h"
#include "runtime/worker_pool.h"
#include "storage/partition_source.h"
#include "workload/datasets.h"

namespace ps3 {
namespace {

TEST(WorkerPool, ParallelForCoversEveryIndexExactlyOnce) {
  runtime::WorkerPool pool(4);
  constexpr size_t kN = 1337;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(WorkerPool, ResultsIdenticalAcrossLaneCounts) {
  runtime::WorkerPool pool(8);
  constexpr size_t kN = 500;
  std::vector<double> out1(kN), out8(kN);
  pool.ParallelFor(kN, [&](size_t i) { out1[i] = 3.0 * i + 1.0; },
                   /*max_lanes=*/1);
  pool.ParallelFor(kN, [&](size_t i) { out8[i] = 3.0 * i + 1.0; },
                   /*max_lanes=*/8);
  EXPECT_EQ(out1, out8);
}

TEST(WorkerPool, NestedCallsRunInline) {
  runtime::WorkerPool pool(4);
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 16;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  pool.ParallelFor(kOuter, [&](size_t o) {
    // A task fanning out on its own pool must not deadlock or explode.
    pool.ParallelFor(kInner, [&](size_t i) {
      hits[o * kInner + i].fetch_add(1);
    });
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(WorkerPool, ExceptionRethrownOnCaller) {
  runtime::WorkerPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(100,
                       [&](size_t i) {
                         if (i == 37) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool must stay usable after a failed job.
  std::atomic<size_t> done{0};
  pool.ParallelFor(50, [&](size_t) { done.fetch_add(1); });
  EXPECT_EQ(done.load(), 50u);
}

TEST(WorkerPool, CallerRunsItsJobAloneInAscendingOrder) {
  // Every lane claims a job's chunks from one cursor in ascending order.
  // With the pool's one worker parked inside a sibling job, the caller is
  // the only lane serving its job, so it must run every item in index
  // order — a caller that drained its own share and then took another
  // lane's chunks from the far end would jump ahead.
  runtime::WorkerPool pool(2);  // the callers' lane plus one worker
  std::mutex mu;
  std::condition_variable cv;
  std::thread::id submitter_a;
  bool worker_parked = false;
  bool release_worker = false;

  // Job A has two one-item chunks: its submitter claims one and waits in
  // it until the worker has claimed the other and parked there.
  std::thread job_a([&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      submitter_a = std::this_thread::get_id();
    }
    pool.ParallelFor(2, [&](size_t) {
      std::unique_lock<std::mutex> lock(mu);
      if (std::this_thread::get_id() == submitter_a) {
        cv.wait(lock, [&] { return worker_parked; });
        return;
      }
      worker_parked = true;
      cv.notify_all();
      cv.wait(lock, [&] { return release_worker; });
    });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return worker_parked; }))
        << "worker never parked";
  }

  constexpr size_t kN = 64;
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  bool off_caller = false;
  pool.ParallelFor(
      kN,
      [&](size_t i) {
        std::lock_guard<std::mutex> lock(mu);
        order.push_back(i);
        if (std::this_thread::get_id() != caller) off_caller = true;
      },
      /*max_lanes=*/2);
  {
    // Setting worker_parked too lets job A's submitter finish even if the
    // worker never parked, so a failure here ends the test, not hangs it.
    std::lock_guard<std::mutex> lock(mu);
    worker_parked = true;
    release_worker = true;
  }
  cv.notify_all();
  job_a.join();

  EXPECT_FALSE(off_caller);
  std::vector<size_t> expected(kN);
  std::iota(expected.begin(), expected.end(), size_t{0});
  EXPECT_EQ(order, expected);
}

TEST(WorkerPool, GrowsToRequestedLanes) {
  runtime::WorkerPool pool(1);
  EXPECT_EQ(pool.num_lanes(), 1u);
  std::atomic<size_t> done{0};
  pool.ParallelFor(64, [&](size_t) { done.fetch_add(1); },
                   /*max_lanes=*/4);
  EXPECT_EQ(done.load(), 64u);
  EXPECT_EQ(pool.num_lanes(), 4u);
}

// ---------------------------------------------------------------------
// Concurrent multi-job admission: the one-job-at-a-time gate is gone, so
// several top-level ParallelFor callers share the resident lanes at chunk
// granularity. Every job must still cover exactly its own indices.

TEST(WorkerPoolConcurrent, ConcurrentJobsEachCoverTheirOwnIndices) {
  runtime::WorkerPool pool(8);
  constexpr size_t kJobs = 6;
  constexpr size_t kN = 4096;
  std::vector<std::vector<std::atomic<int>>> hits(kJobs);
  for (auto& h : hits) {
    h = std::vector<std::atomic<int>>(kN);
  }
  std::vector<std::thread> submitters;
  for (size_t j = 0; j < kJobs; ++j) {
    submitters.emplace_back([&, j] {
      for (int round = 0; round < 8; ++round) {
        pool.ParallelFor(kN, [&, j](size_t i) {
          hits[j][i].fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& t : submitters) t.join();
  for (size_t j = 0; j < kJobs; ++j) {
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[j][i].load(), 8) << "job " << j << " index " << i;
    }
  }
}

TEST(WorkerPoolConcurrent, PerJobLaneCapHonoredWhileSiblingsRun) {
  runtime::WorkerPool pool(8);
  // A wide job keeps the lanes busy while a capped job runs; the capped
  // job must never have more than `max_lanes` lanes (submitter included)
  // inside its fn at once.
  constexpr int kCap = 2;
  std::atomic<int> capped_now{0};
  std::atomic<int> capped_peak{0};
  std::atomic<bool> wide_done{false};
  std::thread wide([&] {
    for (int round = 0; round < 20 && !wide_done.load(); ++round) {
      pool.ParallelFor(2048, [&](size_t) {
        volatile double x = 1.0;
        for (int k = 0; k < 50; ++k) x = x * 1.0000001;
        (void)x;
      });
    }
  });
  for (int round = 0; round < 10; ++round) {
    pool.ParallelFor(
        512,
        [&](size_t) {
          int now = capped_now.fetch_add(1) + 1;
          int peak = capped_peak.load();
          while (now > peak && !capped_peak.compare_exchange_weak(peak, now)) {
          }
          volatile double x = 1.0;
          for (int k = 0; k < 50; ++k) x = x * 1.0000001;
          (void)x;
          capped_now.fetch_sub(1);
        },
        /*max_lanes=*/kCap);
  }
  wide_done.store(true);
  wide.join();
  EXPECT_GE(capped_peak.load(), 1);
  EXPECT_LE(capped_peak.load(), kCap);
}

TEST(WorkerPoolConcurrent, ExceptionFailsOnlyItsOwnJob) {
  runtime::WorkerPool pool(8);
  // One poisoned job per round among healthy siblings: the poison must be
  // rethrown on its own submitter only, the siblings' results must be
  // complete and correct, and the resident lanes must not wedge.
  constexpr size_t kGood = 4;
  constexpr size_t kN = 2048;
  constexpr int kRounds = 6;
  std::vector<std::vector<double>> out(kGood, std::vector<double>(kN));
  std::atomic<int> poison_caught{0};
  for (int round = 0; round < kRounds; ++round) {
    for (auto& o : out) std::fill(o.begin(), o.end(), 0.0);
    std::vector<std::thread> submitters;
    for (size_t j = 0; j < kGood; ++j) {
      submitters.emplace_back([&, j] {
        pool.ParallelFor(kN, [&, j](size_t i) {
          out[j][i] = static_cast<double>(j * kN + i);
        });
      });
    }
    submitters.emplace_back([&] {
      try {
        pool.ParallelFor(kN, [&](size_t i) {
          if (i == 1234) throw std::runtime_error("poisoned query");
        });
      } catch (const std::runtime_error&) {
        poison_caught.fetch_add(1);
      }
    });
    for (auto& t : submitters) t.join();
    for (size_t j = 0; j < kGood; ++j) {
      for (size_t i = 0; i < kN; ++i) {
        ASSERT_EQ(out[j][i], static_cast<double>(j * kN + i))
            << "round " << round << " job " << j << " index " << i;
      }
    }
  }
  EXPECT_EQ(poison_caught.load(), kRounds);
  // Lanes stayed resident and serviceable.
  std::atomic<size_t> done{0};
  pool.ParallelFor(100, [&](size_t) { done.fetch_add(1); });
  EXPECT_EQ(done.load(), 100u);
}

TEST(WorkerPoolConcurrent, ConcurrentFailuresDoNotCrossPollinate) {
  runtime::WorkerPool pool(4);
  // Every job throws a distinct type; each submitter must catch exactly
  // the type its own job threw.
  struct ErrA : std::runtime_error {
    ErrA() : std::runtime_error("A") {}
  };
  struct ErrB : std::runtime_error {
    ErrB() : std::runtime_error("B") {}
  };
  std::atomic<int> a_caught{0}, b_caught{0}, wrong{0};
  std::vector<std::thread> submitters;
  for (int r = 0; r < 4; ++r) {
    submitters.emplace_back([&] {
      try {
        pool.ParallelFor(512, [](size_t i) {
          if (i == 100) throw ErrA();
        });
      } catch (const ErrA&) {
        a_caught.fetch_add(1);
      } catch (...) {
        wrong.fetch_add(1);
      }
    });
    submitters.emplace_back([&] {
      try {
        pool.ParallelFor(512, [](size_t i) {
          if (i == 100) throw ErrB();
        });
      } catch (const ErrB&) {
        b_caught.fetch_add(1);
      } catch (...) {
        wrong.fetch_add(1);
      }
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(a_caught.load(), 4);
  EXPECT_EQ(b_caught.load(), 4);
  EXPECT_EQ(wrong.load(), 0);
}

// ---------------------------------------------------------------------
// Query classes and cooperative cancellation: the pool polls no token —
// tasks poll their own, as the evaluator does before every partition
// acquire — and an abort thrown mid-job stops only that job, with its
// structured Status, on the pooled, inline, deadline and cross-thread
// paths. Class weighting affects timing only, never coverage.

TEST(WorkerPoolCancel, PreCancelledTokenAbortsWithCancelledStatus) {
  runtime::WorkerPool pool(4);
  CancelToken token;
  token.Cancel();
  std::atomic<size_t> ran{0};
  try {
    pool.ParallelFor(4096, [&](size_t) {
      ThrowIfAborted(&token);
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    FAIL() << "expected QueryAborted";
  } catch (const QueryAborted& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kCancelled);
  }
  // Cooperative: nothing promises zero items ran, but the abort must cut
  // the job short rather than draining all 4096 through the kernel.
  EXPECT_LT(ran.load(), 4096u);
  // The pool stays serviceable and isolated after the abort.
  std::atomic<size_t> done{0};
  pool.ParallelFor(128, [&](size_t) { done.fetch_add(1); });
  EXPECT_EQ(done.load(), 128u);
}

TEST(WorkerPoolCancel, InlinePathPollsToken) {
  // max_lanes=1 runs fully inline on the caller; an item's poll must
  // still abort the call there, not only on pool lanes.
  runtime::WorkerPool pool(2);
  CancelToken token;
  token.Cancel();
  EXPECT_THROW(pool.ParallelFor(
                   512, [&](size_t) { ThrowIfAborted(&token); },
                   /*max_lanes=*/1),
               QueryAborted);
}

TEST(WorkerPoolCancel, DeadlineExpiryAbortsMidFlight) {
  runtime::WorkerPool pool(4);
  CancelToken token;
  token.SetDeadline(std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(5));
  try {
    // Each item sleeps, so the job takes far longer than the deadline;
    // an item's poll must fire DeadlineExceeded mid-flight.
    pool.ParallelFor(4096, [&](size_t) {
      ThrowIfAborted(&token);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    });
    FAIL() << "expected QueryAborted";
  } catch (const QueryAborted& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kDeadlineExceeded);
  }
}

TEST(WorkerPoolCancel, CancelMidFlightFromAnotherThread) {
  // The racy shape (cancel fires while chunks are executing): the job
  // must abort with kCancelled and co-resident jobs must complete fully.
  runtime::WorkerPool pool(4);
  CancelToken token;
  std::atomic<size_t> victim_ran{0};
  std::atomic<size_t> sibling_ran{0};
  std::thread sibling([&] {
    pool.ParallelFor(2048, [&](size_t) {
      sibling_ran.fetch_add(1, std::memory_order_relaxed);
      volatile double x = 1.0;
      for (int k = 0; k < 20; ++k) x = x * 1.0000001;
      (void)x;
    });
  });
  std::thread canceller([&] {
    while (victim_ran.load(std::memory_order_relaxed) < 64) {
      std::this_thread::yield();
    }
    token.Cancel();
  });
  // Past item 64 the victim holds its lanes until the token fires, so it
  // cannot finish all its items before the canceller gets scheduled. The
  // wait is bounded so a broken cancel path fails the test, not hangs it.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  try {
    pool.ParallelFor(1 << 20, [&](size_t) {
      ThrowIfAborted(&token);
      const size_t ran =
          victim_ran.fetch_add(1, std::memory_order_relaxed) + 1;
      while (ran >= 64 && !token.cancelled() &&
             std::chrono::steady_clock::now() < give_up) {
        std::this_thread::yield();
      }
      volatile double x = 1.0;
      for (int k = 0; k < 20; ++k) x = x * 1.0000001;
      (void)x;
    });
    // ADD_FAILURE, not FAIL: returning here would leave the canceller and
    // sibling threads joinable, and their destructors would terminate.
    ADD_FAILURE() << "expected QueryAborted";
  } catch (const QueryAborted& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kCancelled);
  }
  canceller.join();
  sibling.join();
  EXPECT_LT(victim_ran.load(), size_t{1} << 20);
  EXPECT_EQ(sibling_ran.load(), 2048u);
}

TEST(WorkerPoolClasses, InteractiveAndBatchJobsBothComplete) {
  // Class weighting is preemption, not starvation: with both classes in
  // flight continuously, every job still covers exactly its indices.
  runtime::WorkerPool pool(4);
  constexpr size_t kN = 4096;
  std::atomic<size_t> batch_done{0}, inter_done{0};
  std::vector<std::thread> submitters;
  for (int j = 0; j < 2; ++j) {
    submitters.emplace_back([&] {
      runtime::WorkerPool::TaskOptions topts;
      topts.query_class = QueryClass::kBatch;
      for (int round = 0; round < 6; ++round) {
        pool.ParallelFor(
            kN,
            [&](size_t) { batch_done.fetch_add(1, std::memory_order_relaxed); },
            topts);
      }
    });
    submitters.emplace_back([&] {
      runtime::WorkerPool::TaskOptions topts;
      topts.query_class = QueryClass::kInteractive;
      for (int round = 0; round < 6; ++round) {
        pool.ParallelFor(
            kN,
            [&](size_t) { inter_done.fetch_add(1, std::memory_order_relaxed); },
            topts);
      }
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(batch_done.load(), 2 * 6 * kN);
  EXPECT_EQ(inter_done.load(), 2 * 6 * kN);
}

/// Replays a two-job contest on a pool with exactly one worker and
/// returns the worker's pick sequence: the job index of every item it
/// ran. Each job has 8 items and max_lanes = 2, so each chunk holds one
/// item and only the job's submitter and the worker may serve it. Job 0
/// is submitted first; the worker takes one of its items and parks there
/// until job 1 is registered, and each submitter parks inside its own
/// first item until the worker has run everything else. From the
/// worker's release on, no other lane runs and no job arrives or leaves,
/// so the pick policy alone fixes the sequence — a deterministic check
/// of fairness, where a throughput ratio would only sample it.
std::vector<int> WorkerPickSequence(QueryClass class0, QueryClass class1) {
  constexpr size_t kItems = 8;
  runtime::WorkerPool pool(2);  // the callers' lane plus one worker
  std::mutex mu;
  std::condition_variable cv;
  std::thread::id submitter[2];
  int submitters_parked = 0;
  bool release_worker = false;
  bool release_submitters = false;
  std::vector<int> picks;

  auto run_job = [&](int j, QueryClass query_class) {
    {
      std::lock_guard<std::mutex> lock(mu);
      submitter[j] = std::this_thread::get_id();
    }
    runtime::WorkerPool::TaskOptions topts;
    topts.max_lanes = 2;
    topts.query_class = query_class;
    pool.ParallelFor(
        kItems,
        [&, j](size_t) {
          std::unique_lock<std::mutex> lock(mu);
          if (std::this_thread::get_id() == submitter[j]) {
            ++submitters_parked;
            cv.notify_all();
            cv.wait(lock, [&] { return release_submitters; });
            return;
          }
          picks.push_back(j);
          cv.notify_all();
          if (picks.size() == 1) {
            cv.wait(lock, [&] { return release_worker; });
          }
        },
        topts);
  };
  auto await = [&](auto ready) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::seconds(30), ready);
  };
  auto release = [&](bool* flag) {
    {
      std::lock_guard<std::mutex> lock(mu);
      *flag = true;
    }
    cv.notify_all();
  };

  std::thread first(run_job, 0, class0);
  EXPECT_TRUE(await([&] {
    return picks.size() == 1 && submitters_parked == 1;
  })) << "worker and first submitter never parked";
  std::thread second(run_job, 1, class1);
  EXPECT_TRUE(await([&] { return submitters_parked == 2; }))
      << "second submitter never parked";
  release(&release_worker);
  EXPECT_TRUE(await([&] { return picks.size() == 2 * kItems - 2; }))
      << "worker never ran the other items";
  release(&release_submitters);
  first.join();
  second.join();
  return picks;
}

TEST(WorkerPoolFairness, EqualJobsAlternateOnTheWorker) {
  // Least-served-first: at the worker's release job 0 has run two items
  // (the worker's and its submitter's) and job 1 one, so the worker picks
  // job 1, then alternates, ties going to the earlier job. A pick in
  // registry order, the old shared cursor's skew, runs job 0 dry first.
  const std::vector<int> expected = {0, 1, 0, 1, 0, 1, 0, 1,
                                     0, 1, 0, 1, 0, 1};
  EXPECT_EQ(WorkerPickSequence(QueryClass::kBatch, QueryClass::kBatch),
            expected);
  EXPECT_EQ(WorkerPickSequence(QueryClass::kInteractive,
                               QueryClass::kInteractive),
            expected);
}

TEST(WorkerPoolFairness, InteractiveWinsFourOfFiveContestedPicks) {
  // Job 1 is interactive, job 0 batch: of every five picks while both
  // have work, interactive takes four and batch the fifth, so batch
  // progresses; once the interactive job is dry, batch runs alone.
  const std::vector<int> expected = {0, 1, 1, 1, 1, 0, 1, 1,
                                     1, 0, 0, 0, 0, 0};
  EXPECT_EQ(WorkerPickSequence(QueryClass::kBatch, QueryClass::kInteractive),
            expected);
}

struct CountingScratch {
  CountingScratch() { created.fetch_add(1); }
  static std::atomic<int> created;
  std::vector<double> buf;
};
std::atomic<int> CountingScratch::created{0};

TEST(WorkerPool, LocalScratchPersistsAcrossParallelForCalls) {
  // The ROADMAP-noted defect in the fork-per-call pool: worker threads
  // died between ParallelFor calls, so their scratch was reconstructed on
  // every call (~lanes new objects per query). On a resident pool, each
  // lane constructs its scratch at most once, ever — so across many
  // rounds the total stays bounded by the lane count instead of growing
  // by ~lanes per round.
  constexpr int kLanes = 4;
  constexpr int kRounds = 10;
  runtime::WorkerPool pool(kLanes);
  const int before = CountingScratch::created.load();
  for (int round = 0; round < kRounds; ++round) {
    pool.ParallelFor(256, [&](size_t) {
      CountingScratch& s = pool.LocalScratch<CountingScratch>();
      if (s.buf.empty()) s.buf.resize(1024);
      s.buf[0] += 1.0;
    });
  }
  const int delta = CountingScratch::created.load() - before;
  EXPECT_GE(delta, 1);
  EXPECT_LE(delta, kLanes);  // fork-per-call behavior would give ~kLanes*kRounds
}

TEST(WorkerPool, VectorScratchReusedAcrossQueriesOnSamePool) {
  // End-to-end version of the teardown fix: two (and more) vectorized
  // whole-table evaluations on one resident pool must not reconstruct the
  // per-lane VectorScratch (bitmaps + dense group-id table) per query.
  auto bundle = workload::MakeTpchStar(4000, /*seed=*/3);
  storage::PartitionedTable pt(bundle.table, 16);
  const storage::ResidentShardedSource flat_src(pt);
  query::Query q;
  q.aggregates = {query::Aggregate::Count()};

  runtime::WorkerPool pool(4);
  query::ExecOptions opts;
  opts.policy = query::ExecPolicy::kVectorized;
  opts.num_threads = 4;
  opts.pool = &pool;

  const size_t before = query::VectorScratchCreatedForTesting();
  for (int round = 0; round < 6; ++round) {
    auto answers = query::EvaluateAllPartitions(q, flat_src, opts);
    ASSERT_EQ(answers.size(), 16u);
  }
  const size_t delta = query::VectorScratchCreatedForTesting() - before;
  // At most one scratch per lane for all six queries combined; the
  // fork-per-call pool would have built ~(lanes-1) fresh scratches per
  // query on worker threads.
  EXPECT_LE(delta, 4u);
}

}  // namespace
}  // namespace ps3
