// Concurrency battery for runtime::QueryScheduler: randomized queries
// submitted concurrently from many threads must produce answers
// bit-identical to the same query run serially under ExecPolicy::kScalar
// (the bit-exactness reference) — extending the property-suite
// equivalence pattern to concurrent admission. Also covers per-query
// failure isolation and drain-on-destruction.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/exact_picker.h"
#include "core/random_picker.h"
#include "io/cold_source.h"
#include "io/fault_injector.h"
#include "io/partition_store.h"
#include "query/evaluator.h"
#include "runtime/query_scheduler.h"
#include "storage/partition_source.h"
#include "storage/sharded_table.h"
#include "workload/datasets.h"
#include "workload/generator.h"

#include "scratch_dir.h"

namespace ps3 {
namespace {

uint64_t BitsOf(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void ExpectAnswerBitIdentical(const query::QueryAnswer& expected,
                              const query::QueryAnswer& actual,
                              const char* label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (const auto& [key, vals] : expected) {
    auto it = actual.find(key);
    ASSERT_NE(it, actual.end()) << label;
    ASSERT_EQ(vals.size(), it->second.size()) << label;
    for (size_t a = 0; a < vals.size(); ++a) {
      EXPECT_EQ(BitsOf(vals[a]), BitsOf(it->second[a]))
          << label << " agg " << a;
    }
  }
}

/// Shared fixture data: a TPC-H-style table (13 partitions — not a
/// multiple of any shard count, so shard runs are uneven), a 4-shard view
/// of it, both served as resident PartitionSources (the flat table as one
/// shard), a randomized query set, and the serial scalar reference answer
/// for every query.
struct StreamFixture {
  static constexpr size_t kQueries = 12;

  StreamFixture() {
    bundle = workload::MakeTpchStar(4000, /*seed=*/29);
    pt = std::make_unique<storage::PartitionedTable>(bundle.table, 13);
    sharded = std::make_unique<storage::ShardedTable>(*pt, 4);
    flat = std::make_unique<storage::ResidentShardedSource>(*pt);
    sharded_src = std::make_unique<storage::ResidentShardedSource>(*sharded);
    workload::QueryGenerator gen(bundle.table.get(), bundle.spec);
    queries = gen.GenerateSet(kQueries, /*seed=*/97);
    serial.reserve(queries.size());
    for (const auto& q : queries) {
      query::ExecOptions ref;
      ref.policy = query::ExecPolicy::kScalar;
      ref.num_threads = 1;
      serial.push_back(
          query::ExactAnswer(q, query::EvaluateAllPartitions(q, *flat, ref)));
    }
  }

  workload::DatasetBundle bundle;
  std::unique_ptr<storage::PartitionedTable> pt;
  std::unique_ptr<storage::ShardedTable> sharded;
  std::unique_ptr<storage::ResidentShardedSource> flat;
  std::unique_ptr<storage::ResidentShardedSource> sharded_src;
  std::vector<query::Query> queries;
  std::vector<query::QueryAnswer> serial;
};

StreamFixture& Fixture() {
  static StreamFixture* f = new StreamFixture();
  return *f;
}

class SchedulerEquivalence
    : public ::testing::TestWithParam<query::ExecPolicy> {};

TEST_P(SchedulerEquivalence, ConcurrentSubmissionBitIdenticalToSerial) {
  // >= 8 queries in flight, submitted from >= 4 threads (acceptance
  // floor), with varied per-query lane caps so admission is genuinely
  // concurrent and unevenly allotted. Repeated rounds shake out schedule-
  // dependent interleavings.
  StreamFixture& fx = Fixture();
  const query::ExecPolicy policy = GetParam();
  runtime::QueryScheduler::Options sopts;
  sopts.num_drivers = 4;
  runtime::QueryScheduler scheduler(sopts);

  constexpr size_t kSubmitters = 4;
  constexpr int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::vector<std::future<query::QueryAnswer>>> futures(
        kSubmitters);
    std::vector<std::thread> submitters;
    for (size_t t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&, t] {
        // Each submitter owns queries t, t+kSubmitters, ... — 12 queries
        // across 4 threads, all in flight against 4 drivers at once.
        for (size_t i = t; i < fx.queries.size(); i += kSubmitters) {
          query::ExecOptions opts;
          opts.policy = policy;
          opts.num_threads = 1 + static_cast<int>(i % 3);
          // Alternate the flat (one-shard) and the sharded resident
          // source: both must meet the same determinism contract.
          futures[t].push_back(
              i % 2 == 0
                  ? scheduler.Submit(fx.queries[i], *fx.flat, opts)
                  : scheduler.Submit(fx.queries[i], *fx.sharded_src, opts));
        }
      });
    }
    for (auto& s : submitters) s.join();
    for (size_t t = 0; t < kSubmitters; ++t) {
      size_t k = 0;
      for (size_t i = t; i < fx.queries.size(); i += kSubmitters, ++k) {
        ExpectAnswerBitIdentical(fx.serial[i], futures[t][k].get(),
                                 policy == query::ExecPolicy::kScalar
                                     ? "concurrent-scalar"
                                     : "concurrent-vectorized");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, SchedulerEquivalence,
                         ::testing::Values(query::ExecPolicy::kScalar,
                                           query::ExecPolicy::kVectorized),
                         [](const auto& info) {
                           return info.param == query::ExecPolicy::kScalar
                                      ? std::string("scalar")
                                      : std::string("vectorized");
                         });

TEST(QueryScheduler, ThrowingTaskFailsOnlyItsOwnFuture) {
  StreamFixture& fx = Fixture();
  runtime::QueryScheduler::Options sopts;
  sopts.num_drivers = 3;
  runtime::QueryScheduler scheduler(sopts);

  // Poisoned tasks whose kernels throw mid-ParallelFor, interleaved with
  // healthy queries. Each poisoned future must rethrow; every healthy
  // future must still resolve bit-identically; the pool lanes and the
  // drivers must stay serviceable afterwards.
  std::vector<std::future<query::QueryAnswer>> good;
  std::vector<std::future<void>> poisoned;
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < 4; ++i) {
      good.push_back(scheduler.Submit(fx.queries[i], *fx.flat));
      poisoned.push_back(scheduler.Defer([&scheduler] {
        scheduler.pool().ParallelFor(1024, [](size_t j) {
          if (j == 513) throw std::runtime_error("kernel fault");
        });
      }));
    }
  }
  for (auto& f : poisoned) {
    EXPECT_THROW(f.get(), std::runtime_error);
  }
  for (size_t k = 0; k < good.size(); ++k) {
    ExpectAnswerBitIdentical(fx.serial[k % 4], good[k].get(),
                             "healthy-sibling");
  }
  // Still serviceable: a fresh round after the faults.
  auto after = scheduler.Submit(fx.queries[5], *fx.sharded_src);
  ExpectAnswerBitIdentical(fx.serial[5], after.get(), "after-faults");
}

TEST(QueryScheduler, DestructorDrainsAdmittedWork) {
  StreamFixture& fx = Fixture();
  std::vector<std::future<query::QueryAnswer>> futures;
  std::atomic<int> ran{0};
  {
    runtime::QueryScheduler::Options sopts;
    sopts.num_drivers = 2;  // fewer drivers than admitted queries
    runtime::QueryScheduler scheduler(sopts);
    for (size_t i = 0; i < fx.queries.size(); ++i) {
      futures.push_back(scheduler.Submit(fx.queries[i], *fx.flat));
    }
    futures.push_back(scheduler.Defer([&] {
      ran.fetch_add(1);
      return query::QueryAnswer{};
    }));
  }  // destructor: every admitted task must have completed
  EXPECT_EQ(ran.load(), 1);
  for (size_t i = 0; i < fx.queries.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    ExpectAnswerBitIdentical(fx.serial[i], futures[i].get(), "drained");
  }
}

TEST(QueryScheduler, SubmitIsThreadSafeUnderChurn) {
  // Many short generic tasks admitted from many threads while queries run:
  // the admission path itself (queue + cv) must be race-free and lose
  // nothing.
  StreamFixture& fx = Fixture();
  runtime::QueryScheduler scheduler;
  std::atomic<size_t> ticks{0};
  std::vector<std::thread> submitters;
  std::vector<std::vector<std::future<size_t>>> futs(6);
  for (size_t t = 0; t < 6; ++t) {
    submitters.emplace_back([&, t] {
      for (size_t k = 0; k < 40; ++k) {
        futs[t].push_back(scheduler.Defer(
            [&ticks] { return ticks.fetch_add(1) + 1; }));
      }
    });
  }
  auto q = scheduler.Submit(fx.queries[0], *fx.flat);
  for (auto& s : submitters) s.join();
  size_t collected = 0;
  for (auto& per_thread : futs) {
    for (auto& f : per_thread) {
      f.get();
      ++collected;
    }
  }
  EXPECT_EQ(collected, 240u);
  EXPECT_EQ(ticks.load(), 240u);
  ExpectAnswerBitIdentical(fx.serial[0], q.get(), "churn-query");
}

// ---------------------------------------------------------------------
// Multi-tenant admission: priority classes, deadlines, cancellation.

TEST(MultiTenant, MixedClassConcurrentBitIdenticalToSerial) {
  // Interactive and batch queries racing across drivers and shared lanes:
  // class affects when chunks run, never results — every answer must stay
  // bit-identical to the serial scalar reference.
  StreamFixture& fx = Fixture();
  runtime::QueryScheduler::Options sopts;
  sopts.num_drivers = 4;
  runtime::QueryScheduler scheduler(sopts);

  constexpr size_t kSubmitters = 4;
  for (int round = 0; round < 3; ++round) {
    std::vector<std::vector<std::future<query::QueryAnswer>>> futures(
        kSubmitters);
    std::vector<std::thread> submitters;
    for (size_t t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&, t] {
        for (size_t i = t; i < fx.queries.size(); i += kSubmitters) {
          query::ExecOptions opts;
          opts.policy = i % 2 == 0 ? query::ExecPolicy::kScalar
                                   : query::ExecPolicy::kVectorized;
          opts.num_threads = 1 + static_cast<int>(i % 3);
          runtime::SubmitOptions submit;
          submit.query_class = (i + t) % 2 == 0 ? QueryClass::kInteractive
                                                : QueryClass::kBatch;
          // A generous deadline on some queries arms the whole deadline
          // machinery (token creation, chunk-boundary polls) without ever
          // firing.
          if (i % 3 == 0) submit.deadline = std::chrono::seconds(300);
          futures[t].push_back(
              i % 2 == 0
                  ? scheduler.Submit(fx.queries[i], *fx.flat, submit, opts)
                  : scheduler.Submit(fx.queries[i], *fx.sharded_src, submit,
                                     opts));
        }
      });
    }
    for (auto& s : submitters) s.join();
    for (size_t t = 0; t < kSubmitters; ++t) {
      size_t k = 0;
      for (size_t i = t; i < fx.queries.size(); i += kSubmitters, ++k) {
        ExpectAnswerBitIdentical(fx.serial[i], futures[t][k].get(),
                                 "mixed-class");
      }
    }
  }
}

TEST(MultiTenant, ExpiredDeadlineFailsFastWithoutPoisoningSiblings) {
  StreamFixture& fx = Fixture();
  runtime::QueryScheduler::Options sopts;
  sopts.num_drivers = 3;
  runtime::QueryScheduler scheduler(sopts);

  std::vector<std::future<query::QueryAnswer>> dead;
  std::vector<std::future<query::QueryAnswer>> alive;
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < 4; ++i) {
      runtime::SubmitOptions submit;
      submit.deadline = std::chrono::microseconds(-1);  // already expired
      dead.push_back(scheduler.Submit(fx.queries[i], *fx.flat, submit));
      alive.push_back(scheduler.Submit(fx.queries[i], *fx.sharded_src));
    }
  }
  for (auto& f : dead) {
    try {
      f.get();
      FAIL() << "expected QueryAborted";
    } catch (const QueryAborted& e) {
      EXPECT_EQ(e.status().code(), StatusCode::kDeadlineExceeded);
    }
  }
  for (size_t k = 0; k < alive.size(); ++k) {
    ExpectAnswerBitIdentical(fx.serial[k % 4], alive[k].get(),
                             "deadline-sibling");
  }
}

TEST(MultiTenant, CancelResolvesFutureAndSparesSiblings) {
  StreamFixture& fx = Fixture();
  runtime::QueryScheduler scheduler;

  // Deterministic shape: a token cancelled before submission resolves
  // with kCancelled (the admission gate fires before any partition is
  // touched).
  {
    runtime::SubmitOptions submit;
    submit.cancel = std::make_shared<CancelToken>();
    submit.cancel->Cancel();
    auto fut = scheduler.Submit(fx.queries[0], *fx.flat, submit);
    try {
      fut.get();
      FAIL() << "expected QueryAborted";
    } catch (const QueryAborted& e) {
      EXPECT_EQ(e.status().code(), StatusCode::kCancelled);
    }
  }

  // Racy shape (the TSan target): cancel fires from another thread while
  // the query may be anywhere between queued and finished. Either
  // outcome — a clean abort or a completed bit-exact answer — is legal;
  // a wrong answer, a hung future, or a poisoned sibling is not.
  for (int round = 0; round < 8; ++round) {
    runtime::SubmitOptions submit;
    submit.cancel = std::make_shared<CancelToken>();
    auto racy = scheduler.Submit(fx.queries[1], *fx.flat, submit);
    auto sibling = scheduler.Submit(fx.queries[2], *fx.sharded_src);
    std::thread canceller(
        [token = submit.cancel] { token->Cancel(); });
    try {
      ExpectAnswerBitIdentical(fx.serial[1], racy.get(), "racy-complete");
    } catch (const QueryAborted& e) {
      EXPECT_EQ(e.status().code(), StatusCode::kCancelled);
    }
    canceller.join();
    ExpectAnswerBitIdentical(fx.serial[2], sibling.get(), "racy-sibling");
  }

  // One token shared by a group cancels the whole group.
  {
    runtime::SubmitOptions submit;
    submit.cancel = std::make_shared<CancelToken>();
    submit.cancel->Cancel();
    std::vector<std::future<query::QueryAnswer>> group;
    for (size_t i = 0; i < 3; ++i) {
      group.push_back(scheduler.Submit(fx.queries[i], *fx.flat, submit));
    }
    for (auto& f : group) EXPECT_THROW(f.get(), QueryAborted);
  }
  // Scheduler still serviceable after all the aborts.
  ExpectAnswerBitIdentical(fx.serial[3],
                           scheduler.Submit(fx.queries[3], *fx.flat).get(),
                           "after-cancels");
}

TEST(MultiTenant, InteractiveJumpsTheDriverQueue) {
  // One driver, held busy by a gate task while a batch backlog and then
  // one interactive task are enqueued. When the gate opens, the driver
  // must pop the interactive task before any of the earlier-enqueued
  // batch tasks — the two-level queue, observed deterministically.
  runtime::QueryScheduler::Options sopts;
  sopts.num_drivers = 1;
  runtime::QueryScheduler scheduler(sopts);

  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  auto held = scheduler.Defer([open] { open.wait(); });

  std::mutex order_mu;
  std::vector<int> order;
  std::vector<std::future<void>> batch;
  for (int i = 0; i < 4; ++i) {
    batch.push_back(scheduler.Defer([&order_mu, &order, i] {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(i);
    }));
  }
  auto interactive = scheduler.Defer(
      [&order_mu, &order] {
        std::lock_guard<std::mutex> lock(order_mu);
        order.push_back(100);
      },
      QueryClass::kInteractive);

  gate.set_value();
  held.get();
  interactive.get();
  for (auto& f : batch) f.get();
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order.front(), 100) << "interactive must run first";
}

void ExpectApproxBitIdentical(const runtime::ApproxAnswer& expected,
                              const runtime::ApproxAnswer& actual,
                              const char* label) {
  ExpectAnswerBitIdentical(expected.value, actual.value, label);
  ExpectAnswerBitIdentical(expected.error_estimate, actual.error_estimate,
                           label);
  EXPECT_EQ(expected.partitions_scanned, actual.partitions_scanned) << label;
  EXPECT_EQ(expected.partitions_total, actual.partitions_total) << label;
  EXPECT_EQ(expected.bytes_moved, actual.bytes_moved) << label;
}

TEST(QueryScheduler, ApproximateWithExactPickerMatchesSubmit) {
  // The approximate class with the degenerate "read everything" picker is
  // the exact scan: same value bit for bit, zero error estimate (every
  // stratum is read exactly), full scan accounting, and 0 bytes_moved on
  // a resident source.
  StreamFixture& fx = Fixture();
  storage::ResidentShardedSource src(*fx.sharded);
  core::ExactPicker picker(fx.pt->num_partitions());
  runtime::QueryScheduler scheduler;
  for (size_t i = 0; i < fx.queries.size(); ++i) {
    runtime::ApproxOptions aopts;
    aopts.sampling_fraction = 1.0;
    aopts.seed = 7;
    runtime::ApproxAnswer ans =
        scheduler.SubmitApproximate(fx.queries[i], src, picker, aopts).get();
    ExpectAnswerBitIdentical(fx.serial[i], ans.value, "approx-exact");
    EXPECT_EQ(ans.partitions_scanned, fx.pt->num_partitions());
    EXPECT_EQ(ans.partitions_total, fx.pt->num_partitions());
    EXPECT_EQ(ans.bytes_moved, 0u);
    ASSERT_EQ(ans.error_estimate.size(), ans.value.size());
    for (const auto& [key, errs] : ans.error_estimate) {
      for (double e : errs) EXPECT_EQ(e, 0.0) << "exact strata report 0";
    }
  }
}

TEST(QueryScheduler, ApproximateInvalidFractionPoisonsOnlyItsFuture) {
  StreamFixture& fx = Fixture();
  storage::ResidentShardedSource src(*fx.sharded);
  core::ExactPicker picker(fx.pt->num_partitions());
  runtime::QueryScheduler scheduler;
  for (double bad : {0.0, -0.25, 1.5,
                     std::numeric_limits<double>::quiet_NaN()}) {
    runtime::ApproxOptions aopts;
    aopts.sampling_fraction = bad;
    auto fut = scheduler.SubmitApproximate(fx.queries[0], src, picker, aopts);
    EXPECT_THROW(fut.get(), std::invalid_argument) << bad;
  }
  // The scheduler stays serviceable after the rejections.
  ExpectAnswerBitIdentical(
      fx.serial[1], scheduler.Submit(fx.queries[1], *fx.sharded_src).get(),
      "after-bad-fraction");
}

TEST(QueryScheduler, ConcurrentApproximateBitIdenticalToSerial) {
  // Determinism contract on the approximate path: same picker + seed +
  // fraction must produce a bit-identical ApproxAnswer (value, error
  // estimate, and accounting) whether the query runs alone or races
  // sibling approximate and exact queries across drivers — the picker
  // runs per-query with its own seeded RNG and the combine order is
  // canonical, so concurrency can't reorder anything observable.
  StreamFixture& fx = Fixture();
  core::PickerContext ctx;
  ctx.table = fx.pt.get();
  core::RandomPicker picker(ctx);
  // Alternate the sharded and the flat resident source: the pick and the
  // combine are shard-blind, so both must match the same reference.
  auto src = [&fx](size_t i) -> const storage::PartitionSource& {
    return i % 2 == 0 ? *fx.sharded_src : *fx.flat;
  };

  auto approx_opts = [](size_t i) {
    runtime::ApproxOptions aopts;
    aopts.sampling_fraction = 0.25 + 0.15 * static_cast<double>(i % 3);
    aopts.seed = 100 + i;
    return aopts;
  };

  std::vector<runtime::ApproxAnswer> reference;
  {
    runtime::QueryScheduler::Options sopts;
    sopts.num_drivers = 1;
    runtime::QueryScheduler serial_sched(sopts);
    for (size_t i = 0; i < fx.queries.size(); ++i) {
      query::ExecOptions opts;
      opts.policy = query::ExecPolicy::kScalar;
      opts.num_threads = 1;
      reference.push_back(
          serial_sched
              .SubmitApproximate(fx.queries[i], src(i), picker,
                                 approx_opts(i), opts)
              .get());
    }
  }

  runtime::QueryScheduler::Options sopts;
  sopts.num_drivers = 4;
  runtime::QueryScheduler scheduler(sopts);
  constexpr size_t kSubmitters = 4;
  for (int round = 0; round < 3; ++round) {
    std::vector<std::vector<std::future<runtime::ApproxAnswer>>> futures(
        kSubmitters);
    std::vector<std::future<query::QueryAnswer>> exact_siblings;
    std::vector<std::thread> submitters;
    std::mutex exact_mu;
    for (size_t t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&, t] {
        for (size_t i = t; i < fx.queries.size(); i += kSubmitters) {
          query::ExecOptions opts;
          opts.policy = i % 2 == 0 ? query::ExecPolicy::kScalar
                                   : query::ExecPolicy::kVectorized;
          opts.num_threads = 1 + static_cast<int>(i % 3);
          futures[t].push_back(scheduler.SubmitApproximate(
              fx.queries[i], src(i + 1), picker, approx_opts(i), opts));
          auto exact = scheduler.Submit(fx.queries[i], *fx.sharded_src, opts);
          std::lock_guard<std::mutex> lock(exact_mu);
          exact_siblings.push_back(std::move(exact));
        }
      });
    }
    for (auto& s : submitters) s.join();
    for (size_t t = 0; t < kSubmitters; ++t) {
      size_t k = 0;
      for (size_t i = t; i < fx.queries.size(); i += kSubmitters, ++k) {
        ExpectApproxBitIdentical(reference[i], futures[t][k].get(),
                                 "concurrent-approx");
      }
    }
    for (auto& f : exact_siblings) f.get();
  }
}

// ------------------------------------- degraded serving battery

/// Spills the fixture table once and hands out stores over it with
/// per-test fault plans.
const std::string& SpilledFixtureDir() {
  static const ScratchDir dir("ps3_sched_");
  static const bool spilled =
      io::PartitionStore::Spill(*Fixture().pt, dir).ok();
  EXPECT_TRUE(spilled);
  return dir;
}

std::unique_ptr<io::PartitionStore> OpenFaulted(
    io::FaultPlan plan, int max_attempts = 6,
    const io::PartitionStore::Options::HedgeOptions& hedge = {}) {
  io::PartitionStore::Options opts;
  if (plan.AnyFaults()) {
    opts.faults = std::make_shared<io::FaultInjector>(std::move(plan));
  }
  opts.retry.max_attempts = max_attempts;
  opts.retry.backoff_base_us = 50;
  opts.retry.backoff_cap_us = 500;
  opts.hedge = hedge;
  auto store = io::PartitionStore::Open(SpilledFixtureDir(), opts);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(*store);
}

TEST(DegradedServing, ColdFaultyConcurrentBitIdenticalToSerial) {
  // Faults cost retries, latency and — with retries off — failed
  // queries, never bits: under the full concurrency battery each answer
  // is bit-identical to the fault-free serial scalar reference, or its
  // future throws. One store per configuration: transient errors
  // absorbed by retries; latency spikes (and transient errors) raced by
  // a fixed-delay hedge; the first plan again with retries off.
  StreamFixture& fx = Fixture();
  struct Case {
    const char* name;
    double transient_rate;
    double latency_rate;
    int max_attempts;
    size_t hedge_delay_us;  // 0 = hedging off
  };
  const Case cases[] = {
      {"retried", 0.01, 0.0, 6, 0},
      {"hedged", 0.01, 0.2, 6, 2000},
      {"retries_off", 0.01, 0.0, 1, 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    io::FaultPlan plan;
    plan.seed = 17;
    plan.transient_rate = c.transient_rate;
    plan.latency_rate = c.latency_rate;
    // Spikes must dwarf the hedge delay, or the hedge never races.
    plan.latency_spike_us = 20000;
    io::PartitionStore::Options::HedgeOptions hedge;
    hedge.enabled = c.hedge_delay_us > 0;
    hedge.fixed_delay_us = c.hedge_delay_us;
    auto store = OpenFaulted(plan, c.max_attempts, hedge);
    io::ColdShardedSource cold(store.get(), 4);

    runtime::QueryScheduler::Options sopts;
    sopts.num_drivers = 4;
    runtime::QueryScheduler scheduler(sopts);
    constexpr size_t kSubmitters = 4;
    size_t failed = 0;
    for (int round = 0; round < 3; ++round) {
      std::vector<std::vector<std::future<query::QueryAnswer>>> futures(
          kSubmitters);
      std::vector<std::thread> submitters;
      for (size_t t = 0; t < kSubmitters; ++t) {
        submitters.emplace_back([&, t] {
          for (size_t i = t; i < fx.queries.size(); i += kSubmitters) {
            query::ExecOptions opts;
            opts.policy = i % 2 == 0 ? query::ExecPolicy::kScalar
                                     : query::ExecPolicy::kVectorized;
            opts.num_threads = 1 + static_cast<int>(i % 3);
            futures[t].push_back(scheduler.Submit(fx.queries[i], cold, opts));
          }
        });
      }
      for (auto& s : submitters) s.join();
      for (size_t t = 0; t < kSubmitters; ++t) {
        size_t k = 0;
        for (size_t i = t; i < fx.queries.size(); i += kSubmitters, ++k) {
          query::QueryAnswer answer;
          try {
            answer = futures[t][k].get();
          } catch (const std::runtime_error& e) {
            // A load that ran out of attempts surfaces its Status.
            EXPECT_EQ(std::string(e.what()).rfind("Unavailable", 0), 0u)
                << e.what();
            ++failed;
            continue;
          }
          ExpectAnswerBitIdentical(fx.serial[i], answer, c.name);
        }
      }
    }
    const io::StoreStats stats = store->store_stats();
    if (c.hedge_delay_us > 0) {
      // Spikes outlast the hedge delay, so duplicate reads raced them.
      EXPECT_GT(stats.hedged_loads, 0u);
    } else {
      // The plan fired over this many cold segment reads.
      EXPECT_GT(stats.transient_errors, 0u);
      EXPECT_EQ(stats.hedged_loads, 0u);
    }
    if (c.max_attempts > 1) {
      // Retries absorbed everything the plan threw.
      EXPECT_EQ(failed, 0u);
      EXPECT_EQ(stats.load_errors, 0u);
      if (c.hedge_delay_us == 0) {
        EXPECT_EQ(stats.transient_errors, stats.retries);
      }
    } else {
      // Retries off: a transient error fails its query, never its bits.
      EXPECT_GT(failed, 0u);
      EXPECT_LT(failed, 3 * fx.queries.size());
      EXPECT_GT(stats.load_errors, 0u);
      EXPECT_EQ(stats.retries, 0u);
    }
  }
}

TEST(DegradedServing, ExactSubmitFailsFastNamingLostPartitions) {
  StreamFixture& fx = Fixture();
  io::FaultPlan plan;
  plan.lost_partitions = {2, 5};
  auto store = OpenFaulted(plan);
  io::ColdShardedSource cold(store.get(), 3);

  runtime::QueryScheduler scheduler;
  // Both the exact path and the degradable path in its default kFail
  // mode refuse to serve: the failure is structured, naming exactly the
  // lost set so the consumer can re-plan around it. Plain Submit refuses
  // even when asked for kApproximate: its future cannot carry a degraded
  // answer, and the plan it shares with SubmitDegradable must not leak
  // one into it.
  auto exact = scheduler.Submit(fx.queries[0], cold);
  runtime::SubmitOptions approximate;
  approximate.degraded_mode = runtime::DegradedMode::kApproximate;
  auto exact_approximate = scheduler.Submit(fx.queries[0], cold, approximate);
  runtime::ApproxAnswer unused;
  auto degradable = scheduler.SubmitDegradable(fx.queries[0], cold);
  for (int which = 0; which < 3; ++which) {
    try {
      if (which == 0) {
        exact.get();
      } else if (which == 1) {
        exact_approximate.get();
      } else {
        unused = degradable.get();
      }
      FAIL() << "lost partitions must fail the exact path (" << which << ")";
    } catch (const QueryFailed& e) {
      EXPECT_EQ(e.status().code(), StatusCode::kUnavailable);
      const std::string& msg = e.status().message();
      EXPECT_NE(msg.find("permanently lost"), std::string::npos) << msg;
      EXPECT_NE(msg.find(" 2"), std::string::npos) << msg;
      EXPECT_NE(msg.find(" 5"), std::string::npos) << msg;
      EXPECT_NE(msg.find("SubmitDegradable"), std::string::npos) << msg;
    }
  }
  // No byte moved for any refusal: the guard runs before any load.
  EXPECT_EQ(store->store_stats().cold_loads, 0u);

  // A healthy store over the same spill still serves the exact answer.
  auto healthy = OpenFaulted(io::FaultPlan{});
  io::ColdShardedSource healthy_cold(healthy.get(), 3);
  ExpectAnswerBitIdentical(fx.serial[0],
                           scheduler.Submit(fx.queries[0], healthy_cold).get(),
                           "healthy-sibling");
}

TEST(DegradedServing, ApproximateModeReweightsReachableSet) {
  // kApproximate over a store with lost partitions: the answer is the
  // Horvitz–Thompson reweighted combine over exactly the reachable set,
  // bit-identical to the same combine computed straight from resident
  // partials — and identical across shard counts and exec policies.
  StreamFixture& fx = Fixture();
  io::FaultPlan plan;
  plan.lost_partitions = {2, 5};
  auto store = OpenFaulted(plan);

  const size_t n = fx.pt->num_partitions();
  std::vector<size_t> reachable;
  for (size_t p = 0; p < n; ++p) {
    if (p != 2 && p != 5) reachable.push_back(p);
  }
  const std::vector<query::WeightedPartition> sel =
      query::DegradedSelection(reachable, n);

  for (size_t i = 0; i < 4; ++i) {
    const query::Query& q = fx.queries[i];
    // Reference combine from the resident scalar partials.
    query::ExecOptions ref;
    ref.policy = query::ExecPolicy::kScalar;
    ref.num_threads = 1;
    query::ApproxCombined expected = query::CombineWeightedWithError(
        q, query::EvaluateAllPartitions(q, *fx.flat, ref), sel);

    runtime::QueryScheduler scheduler;
    runtime::ApproxAnswer first;
    for (size_t shards : {size_t{2}, size_t{5}}) {
      io::ColdShardedSource cold(store.get(), shards);
      for (auto policy :
           {query::ExecPolicy::kScalar, query::ExecPolicy::kVectorized}) {
        runtime::SubmitOptions submit;
        submit.degraded_mode = runtime::DegradedMode::kApproximate;
        query::ExecOptions opts;
        opts.policy = policy;
        opts.num_threads = 2;
        runtime::ApproxAnswer ans =
            scheduler.SubmitDegradable(q, cold, submit, opts).get();
        ExpectAnswerBitIdentical(expected.value, ans.value, "degraded-value");
        ExpectAnswerBitIdentical(expected.error, ans.error_estimate,
                                 "degraded-error");
        EXPECT_EQ(ans.partitions_scanned, n - 2);
        EXPECT_EQ(ans.partitions_total, n);
        EXPECT_GT(ans.bytes_moved, 0u);
        if (shards == 2 && policy == query::ExecPolicy::kScalar) {
          first = ans;
        } else {
          ExpectApproxBitIdentical(first, ans, "degraded-across-configs");
        }
      }
    }
  }
}

TEST(DegradedServing, HealthyDegradableIsExactWithZeroError) {
  // Nothing lost: every HT weight is exactly 1, so the degradable path
  // costs nothing in fidelity — the exact bits, a zero error surface,
  // and full scan accounting.
  StreamFixture& fx = Fixture();
  auto store = OpenFaulted(io::FaultPlan{});
  io::ColdShardedSource cold(store.get(), 4);
  runtime::QueryScheduler scheduler;
  for (size_t i = 0; i < 4; ++i) {
    runtime::SubmitOptions submit;
    submit.degraded_mode = runtime::DegradedMode::kApproximate;
    runtime::ApproxAnswer ans =
        scheduler.SubmitDegradable(fx.queries[i], cold, submit).get();
    ExpectAnswerBitIdentical(fx.serial[i], ans.value, "healthy-degradable");
    EXPECT_EQ(ans.partitions_scanned, fx.pt->num_partitions());
    EXPECT_EQ(ans.partitions_total, fx.pt->num_partitions());
    ASSERT_EQ(ans.error_estimate.size(), ans.value.size());
    for (const auto& [key, errs] : ans.error_estimate) {
      for (double e : errs) EXPECT_EQ(e, 0.0) << "weight-1 strata report 0";
    }
  }
}

TEST(DegradedServing, ApproximateRePicksAroundLossDeterministically) {
  // SubmitApproximate on a store with lost partitions: the picker's
  // choices are re-drawn (or rescaled) around the lost set at unchanged
  // budget, the query succeeds without ever touching a lost partition,
  // and the whole dance replays bit-identically for the same seed.
  StreamFixture& fx = Fixture();
  io::FaultPlan plan;
  plan.lost_partitions = {1, 7, 11};
  auto store = OpenFaulted(plan);
  io::ColdShardedSource cold(store.get(), 4);

  core::PickerContext ctx;
  ctx.table = fx.pt.get();
  core::RandomPicker picker(ctx);
  runtime::ApproxOptions aopts;
  aopts.sampling_fraction = 0.5;
  aopts.seed = 23;
  query::ExecOptions opts;
  opts.policy = query::ExecPolicy::kScalar;
  opts.num_threads = 1;

  std::vector<runtime::ApproxAnswer> reference;
  {
    runtime::QueryScheduler scheduler;
    for (size_t i = 0; i < 4; ++i) {
      // Success alone proves no lost partition was acquired: acquiring
      // one fails the load, and the evaluation with it.
      reference.push_back(
          scheduler.SubmitApproximate(fx.queries[i], cold, picker, aopts, opts)
              .get());
      EXPECT_GT(reference.back().partitions_scanned, 0u);
      EXPECT_LE(reference.back().partitions_scanned,
                (fx.pt->num_partitions() + 1) / 2);
    }
  }
  EXPECT_EQ(store->store_stats().lost_errors, 0u)
      << "re-picking must never touch a lost partition";
  {
    runtime::QueryScheduler scheduler;
    for (size_t i = 0; i < 4; ++i) {
      ExpectApproxBitIdentical(
          reference[i],
          scheduler.SubmitApproximate(fx.queries[i], cold, picker, aopts, opts)
              .get(),
          "repick-replay");
    }
  }
}

}  // namespace
}  // namespace ps3
