// Scan-path throughput: rows/sec of exact whole-table evaluation on the
// TPC-H-style workload, swept over execution policy (scalar interpreter vs
// vectorized engine), worker-lane count (resident work-stealing pool),
// predicate kernel (scalar word-packing vs explicit AVX2), shard count
// (multi-shard fan-out over a ShardedTable), concurrent query-stream
// count (closed-loop submitters through runtime::QueryScheduler, so
// scheduler fairness shows up as per-stream rows/sec), and IO placement
// (resident vs cold-with-prefetch vs cold-no-prefetch over a spilled
// io::PartitionStore, with cache hit rates), plus a wide-table column-
// pruning section (cold scans with the query's referenced-column hint vs
// full-partition rehydration, reporting bytes read per row). Emits JSON
// so successive PRs can track the perf trajectory. Scale with PS3_ROWS /
// PS3_PARTS / PS3_TESTQ; pin sweep dimensions with PS3_THREADS /
// PS3_SHARDS / PS3_STREAMS; PS3_IO=0 skips the out-of-core section,
// PS3_IO_DELAY_US sets the simulated remote-store latency per cold load,
// PS3_IO_MBPS the simulated link bandwidth for the pruning section,
// PS3_COLUMNS the wide table's numeric column count, PS3_ENCODING
// pins the segment-encoding sweep (raw / bitpack / for_delta / auto:
// on-disk bytes-per-row, encoded bytes read per row, cold rows/sec), and
// PS3_PICKERS / PS3_FRACTIONS pin the approximate-serving sweep
// (SubmitApproximate over the cold store with exact / random / learned
// ps3 pickers at several sampling fractions: rows/sec, encoded bytes
// read per row, and relative error vs the exact answer). The
// multi-tenant class section (PS3_CLASSES pins the stream counts,
// PS3_CLASSQ the interactive sample count, PS3_CLASS_THINK_US the
// interactive think time, PS3_CLASS_THREADS the lanes per query) races
// one bursty interactive stream against n-1 closed-loop batch streams
// twice per count — "classless" submits the interactive tenant as just
// another batch stream (the pre-class baseline), "classed" marks it
// QueryClass::kInteractive — reporting interactive p50/p99 latency and
// batch rows/sec side by side. The fault-tolerance section replays cold
// exact scans while the store's seeded FaultInjector throws transient
// errors and latency spikes: PS3_FAULT_RATE sweeps the injected rate
// (0 = fault-free baseline), PS3_FAULT_SEED pins the fault sequence,
// PS3_RETRY sweeps total load attempts (1 = retries off), PS3_HEDGE_MS
// sweeps the hedged-read delay (0 = hedging off); it reports success
// rate, cold p50/p99 latency, rows/sec, and the store's retry / hedge
// counters, with every successful answer gated bit-identical to the
// resident scan.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "core/exact_picker.h"
#include "core/ps3_picker.h"
#include "core/ps3_trainer.h"
#include "core/random_picker.h"
#include "core/training_data.h"
#include "io/cold_source.h"
#include "io/partition_store.h"
#include "io/prefetch_pipeline.h"
#include "query/compiler.h"
#include "query/evaluator.h"
#include "query/metrics.h"
#include "runtime/query_scheduler.h"
#include "runtime/simd.h"
#include "stats/stats_builder.h"
#include "storage/column_set.h"
#include "storage/sharded_table.h"
#include "workload/datasets.h"
#include "workload/generator.h"

namespace {

using Clock = std::chrono::steady_clock;

double TimeAll(const std::vector<ps3::query::Query>& queries,
               const ps3::storage::PartitionSource& source,
               const ps3::query::ExecOptions& opts) {
  auto start = Clock::now();
  for (const auto& q : queries) {
    auto answers = ps3::query::EvaluateAllPartitions(q, source, opts);
    // Keep the optimizer honest.
    if (answers.empty()) std::abort();
  }
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Closed-loop concurrent streams: `n_streams` submitter threads each push
/// their round-robin share of `queries` through one QueryScheduler
/// (submit, wait, submit), so at most `n_streams` queries are in flight
/// and the pool's round-robin chunk interleaving sets per-stream latency.
/// Returns wall seconds; fills per-stream elapsed seconds and query
/// counts.
double TimeStreamed(const std::vector<ps3::query::Query>& queries,
                    const ps3::storage::PartitionSource& source,
                    const ps3::query::ExecOptions& opts, size_t n_streams,
                    std::vector<double>* stream_secs,
                    std::vector<size_t>* stream_queries) {
  ps3::runtime::QueryScheduler::Options sopts;
  sopts.num_drivers = static_cast<int>(n_streams);
  ps3::runtime::QueryScheduler scheduler(sopts);
  stream_secs->assign(n_streams, 0.0);
  stream_queries->assign(n_streams, 0);
  auto start = Clock::now();
  std::vector<std::thread> streams;
  for (size_t s = 0; s < n_streams; ++s) {
    streams.emplace_back([&, s] {
      auto stream_start = Clock::now();
      size_t count = 0;
      for (size_t i = s; i < queries.size(); i += n_streams) {
        // future::get() is an opaque side-effecting call, so the answer
        // cannot be optimized away; an empty answer is legitimate here
        // (always-false predicates), unlike the flat-scan timers above.
        scheduler.Submit(queries[i], source, opts).get();
        ++count;
      }
      (*stream_secs)[s] =
          std::chrono::duration<double>(Clock::now() - stream_start).count();
      (*stream_queries)[s] = count;
    });
  }
  for (auto& t : streams) t.join();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct ClassBenchResult {
  double inter_p50_ms = 0.0;
  double inter_p99_ms = 0.0;
  size_t batch_queries = 0;
  double batch_rows_per_sec = 0.0;
};

/// Multi-tenant class mix: one closed-loop interactive stream (think
/// time between queries, `quota` queries total — the latency samples)
/// races `streams - 1` closed-loop batch streams through one
/// QueryScheduler with fewer drivers than streams — drivers track the
/// core count (capped at 8) like a real deployment would, so a driver
/// queue forms and the interactive queue jump is part of what's
/// measured, not just the weighted lane picks. `classed` submits the
/// interactive stream as
/// QueryClass::kInteractive; classless submits it as one more batch
/// stream — the pre-class baseline the p99 improvement is measured
/// against. Batch throughput is counted over the interactive stream's
/// window, so the classed row's batch_rows_per_sec prices what the
/// latency win costs the batch tenants.
ClassBenchResult TimeClassed(const std::vector<ps3::query::Query>& queries,
                             const ps3::storage::PartitionSource& source,
                             const ps3::query::ExecOptions& opts,
                             size_t streams, bool classed, size_t quota,
                             size_t think_us, size_t rows) {
  using namespace ps3;
  const unsigned hw = std::thread::hardware_concurrency();
  const size_t drivers = std::min(
      streams, std::min<size_t>(8, hw == 0 ? 1 : static_cast<size_t>(hw)));
  runtime::QueryScheduler::Options sopts;
  sopts.num_drivers = static_cast<int>(drivers);
  runtime::QueryScheduler scheduler(sopts);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> batch_done{0};
  std::vector<std::thread> batch_streams;
  batch_streams.reserve(streams - 1);
  for (size_t s = 1; s < streams; ++s) {
    batch_streams.emplace_back([&, s] {
      size_t i = s;
      while (!stop.load(std::memory_order_relaxed)) {
        scheduler.Submit(queries[i % queries.size()], source, opts).get();
        batch_done.fetch_add(1, std::memory_order_relaxed);
        ++i;
      }
    });
  }

  runtime::SubmitOptions submit;
  if (classed) submit.query_class = QueryClass::kInteractive;
  std::vector<double> lat_ms;
  lat_ms.reserve(quota);
  const auto window_start = Clock::now();
  for (size_t k = 0; k < quota; ++k) {
    if (think_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(think_us));
    }
    const auto q_start = Clock::now();
    scheduler.Submit(queries[k % queries.size()], source, submit, opts).get();
    lat_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - q_start)
            .count());
  }
  const double window_secs =
      std::chrono::duration<double>(Clock::now() - window_start).count();
  // Sampled before stop: queries the batch tenants completed while the
  // interactive tenant was live, not during the shutdown straggle.
  const uint64_t batch_in_window = batch_done.load(std::memory_order_relaxed);
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : batch_streams) t.join();

  std::sort(lat_ms.begin(), lat_ms.end());
  auto pct = [&](double p) {
    if (lat_ms.empty()) return 0.0;
    const size_t idx = static_cast<size_t>(p * (lat_ms.size() - 1) + 0.5);
    return lat_ms[std::min(idx, lat_ms.size() - 1)];
  };
  ClassBenchResult out;
  out.inter_p50_ms = pct(0.50);
  out.inter_p99_ms = pct(0.99);
  out.batch_queries = batch_in_window;
  out.batch_rows_per_sec =
      window_secs > 0.0 ? static_cast<double>(batch_in_window) *
                              static_cast<double>(rows) / window_secs
                        : 0.0;
  return out;
}

/// Cold source that ignores the evaluator's projection hint and always
/// rehydrates whole partitions — the "full" baseline the column-pruned
/// mode is measured against.
class FullColdSource : public ps3::io::ColdShardedSource {
 public:
  using ColdShardedSource::ColdShardedSource;

  ps3::Result<ps3::storage::PinnedPartition> Acquire(
      size_t global_index,
      const ps3::storage::ColumnSet& columns) const override {
    (void)columns;
    return store().Fetch(global_index, ps3::storage::ColumnSet::All());
  }
  void WillScanShard(size_t s,
                     const ps3::storage::ColumnSet& columns) const override {
    (void)columns;
    ColdShardedSource::WillScanShard(s, ps3::storage::ColumnSet::All());
  }
};

/// Synthetic wide table for the column-pruning comparison: one
/// categorical group column "G" (32 values) plus `num_numeric` numeric
/// columns N0..N{k-1}. Queries reference a fixed handful of columns, so
/// the referenced fraction shrinks as the table widens.
std::shared_ptr<ps3::storage::Table> MakeWideTable(size_t rows,
                                                   size_t num_numeric) {
  using namespace ps3;
  std::vector<storage::FieldDef> fields;
  fields.push_back({"G", storage::ColumnType::kCategorical});
  for (size_t c = 0; c < num_numeric; ++c) {
    fields.push_back({"N" + std::to_string(c),
                      storage::ColumnType::kNumeric});
  }
  auto table =
      std::make_shared<storage::Table>(storage::Schema(std::move(fields)));
  RandomEngine rng(20260730);
  std::vector<double> nums(num_numeric);
  for (size_t r = 0; r < rows; ++r) {
    for (auto& v : nums) v = rng.NextDouble();
    table->AppendRow(nums, {"g" + std::to_string(rng.NextUint64(32))});
  }
  table->Seal();
  return table;
}

void ExpectIdentical(const std::vector<ps3::query::PartitionAnswer>& a,
                     const std::vector<ps3::query::PartitionAnswer>& b) {
  if (a.size() != b.size()) std::abort();
  for (size_t p = 0; p < a.size(); ++p) {
    if (a[p].size() != b[p].size()) std::abort();
    for (const auto& [key, accs] : a[p]) {
      auto it = b[p].find(key);
      if (it == b[p].end()) std::abort();
      for (size_t x = 0; x < accs.size(); ++x) {
        if (accs[x].sum != it->second[x].sum ||
            accs[x].count != it->second[x].count ||
            accs[x].min != it->second[x].min ||
            accs[x].max != it->second[x].max) {
          std::abort();
        }
      }
    }
  }
}

}  // namespace

int main() {
  using namespace ps3;

  const size_t rows = bench::EnvSizeScalar("PS3_ROWS", 200000);
  const size_t partitions = bench::EnvSizeScalar("PS3_PARTS", 400);
  const size_t n_queries = bench::EnvSizeScalar("PS3_TESTQ", 16);
  const std::vector<size_t> thread_counts = bench::BenchThreadCounts();
  const std::vector<size_t> shard_counts = bench::BenchShardCounts();
  const bool avx2 = runtime::Avx2Available();

  auto bundle = workload::MakeTpchStar(rows, /*seed=*/7);
  auto sorted = bundle.table->SortedBy(bundle.default_sort);
  auto laid_out = std::make_shared<storage::Table>(std::move(sorted).value());
  storage::PartitionedTable table(laid_out, partitions);
  const storage::ResidentShardedSource flat_table(table);

  workload::QueryGenerator gen(laid_out.get(), bundle.spec);
  std::vector<query::Query> queries = gen.GenerateSet(n_queries, /*seed=*/41);

  // Correctness gate: every engine configuration must agree bit-wise with
  // the scalar reference before any throughput number is worth reporting.
  for (const auto& q : queries) {
    auto scalar = query::EvaluateAllPartitions(
        q, flat_table, {query::ExecPolicy::kScalar, 1});
    query::ExecOptions vopts;
    vopts.policy = query::ExecPolicy::kVectorized;
    vopts.num_threads = 1;
    vopts.simd = runtime::SimdLevel::kNone;
    ExpectIdentical(scalar,
                    query::EvaluateAllPartitions(q, flat_table, vopts));
    if (avx2) {
      vopts.simd = runtime::SimdLevel::kAvx2;
      ExpectIdentical(scalar,
                      query::EvaluateAllPartitions(q, flat_table, vopts));
    }
  }
  if (!queries.empty()) {
    // Sharded fan-out gate on the first query across all shard counts.
    query::ExecOptions vopts;
    vopts.num_threads = 4;
    auto flat = query::EvaluateAllPartitions(queries[0], flat_table, vopts);
    for (size_t shards : shard_counts) {
      const storage::ShardedTable st(table, shards);
      ExpectIdentical(flat, query::EvaluateAllPartitions(
                                queries[0], storage::ResidentShardedSource(st),
                                vopts));
    }
  }

  struct Config {
    query::ExecPolicy policy;
    size_t threads;
    runtime::SimdLevel simd;
    size_t shards;  // 0 = flat table
  };
  std::vector<Config> configs;
  for (size_t t : thread_counts) {
    configs.push_back({query::ExecPolicy::kScalar, t,
                       runtime::SimdLevel::kNone, 0});
  }
  for (size_t t : thread_counts) {
    configs.push_back({query::ExecPolicy::kVectorized, t,
                       runtime::SimdLevel::kNone, 0});
    if (avx2) {
      configs.push_back({query::ExecPolicy::kVectorized, t,
                         runtime::SimdLevel::kAvx2, 0});
    }
  }
  // Sharded fan-out at the widest lane count, best kernel.
  const size_t wide =
      *std::max_element(thread_counts.begin(), thread_counts.end());
  for (size_t shards : shard_counts) {
    configs.push_back({query::ExecPolicy::kVectorized, wide,
                       runtime::SimdLevel::kAuto, shards});
  }

  const double total_rows =
      static_cast<double>(rows) * static_cast<double>(queries.size());

  std::printf("{\n");
  std::printf("  \"bench\": \"evaluator_throughput\",\n");
  std::printf("  \"dataset\": \"tpch\",\n");
  std::printf("  \"rows\": %zu,\n", rows);
  std::printf("  \"partitions\": %zu,\n", partitions);
  std::printf("  \"queries\": %zu,\n", queries.size());
  std::printf("  \"avx2_available\": %s,\n", avx2 ? "true" : "false");
  std::printf("  \"results\": [\n");

  double scalar_1t = 0.0, vec_pack_1t = 0.0, vec_best_1t = 0.0,
         vec_best_wide = 0.0;
  for (size_t i = 0; i < configs.size(); ++i) {
    const Config& cfg = configs[i];
    query::ExecOptions opts;
    opts.policy = cfg.policy;
    opts.num_threads = static_cast<int>(cfg.threads);
    opts.simd = cfg.simd;

    double secs;
    if (cfg.shards > 0) {
      const storage::ShardedTable st(table, cfg.shards);
      const storage::ResidentShardedSource sharded(st);
      TimeAll(queries, sharded, opts);  // warm-up (page-in, scratch)
      secs = TimeAll(queries, sharded, opts);
    } else {
      TimeAll(queries, flat_table, opts);  // warm-up (page-in, scratch)
      secs = TimeAll(queries, flat_table, opts);
    }
    double rps = total_rows / secs;

    const char* name =
        cfg.policy == query::ExecPolicy::kScalar ? "scalar" : "vectorized";
    const char* kernel = cfg.policy == query::ExecPolicy::kScalar
                             ? "interpreter"
                             : (cfg.simd == runtime::SimdLevel::kNone
                                    ? "pack64"
                                    : (avx2 ? "avx2" : "pack64"));
    // The *_1t summary baselines are genuinely single-threaded: if
    // PS3_THREADS omits 1, they stay 0 and the speedups report 0.0
    // rather than mislabeling a wider config.
    if (cfg.shards == 0 && cfg.policy == query::ExecPolicy::kScalar &&
        cfg.threads == 1) {
      scalar_1t = secs;
    }
    if (cfg.shards == 0 && cfg.policy == query::ExecPolicy::kVectorized &&
        cfg.threads == 1) {
      if (cfg.simd == runtime::SimdLevel::kNone) {
        vec_pack_1t = secs;
      }
      // Last 1-lane vectorized config is the best kernel available.
      vec_best_1t = secs;
    }
    if (cfg.shards == 0 && cfg.policy == query::ExecPolicy::kVectorized &&
        cfg.threads == wide) {
      vec_best_wide = secs;
    }
    std::printf(
        "    {\"policy\": \"%s\", \"threads\": %zu, \"kernel\": \"%s\", "
        "\"shards\": %zu, \"seconds\": %.4f, \"rows_per_sec\": %.3e}%s\n",
        name, cfg.threads, kernel, cfg.shards, secs, rps,
        i + 1 < configs.size() ? "," : "");
  }
  std::printf("  ],\n");

  // Concurrent query streams through the scheduler: aggregate rows/sec
  // plus per-stream rows/sec, so unfair lane allotment (one stream
  // starved while another hogs the pool) is visible in the trajectory,
  // not averaged away.
  const std::vector<size_t> stream_counts = bench::BenchStreamCounts();
  std::printf("  \"stream_results\": [\n");
  for (size_t i = 0; i < stream_counts.size(); ++i) {
    const size_t streams = std::max<size_t>(1, stream_counts[i]);
    query::ExecOptions opts;
    opts.policy = query::ExecPolicy::kVectorized;
    opts.num_threads = static_cast<int>(wide);
    opts.simd = runtime::SimdLevel::kAuto;
    std::vector<double> stream_secs;
    std::vector<size_t> stream_queries;
    TimeStreamed(queries, flat_table, opts, streams, &stream_secs,
                 &stream_queries);  // warm-up (page-in, scratch, drivers)
    const double wall = TimeStreamed(queries, flat_table, opts, streams,
                                     &stream_secs, &stream_queries);
    std::printf(
        "    {\"policy\": \"vectorized\", \"streams\": %zu, \"threads\": "
        "%zu, \"kernel\": \"auto\", \"seconds\": %.4f, \"rows_per_sec\": "
        "%.3e, \"per_stream_rows_per_sec\": [",
        streams, wide, wall, total_rows / wall);
    for (size_t s = 0; s < streams; ++s) {
      const double stream_rows = static_cast<double>(rows) *
                                 static_cast<double>(stream_queries[s]);
      std::printf("%.3e%s",
                  stream_secs[s] > 0.0 ? stream_rows / stream_secs[s] : 0.0,
                  s + 1 < streams ? ", " : "");
    }
    std::printf("]}%s\n", i + 1 < stream_counts.size() ? "," : "");
  }
  std::printf("  ],\n");

  // Multi-tenant classes: per stream count, a classless baseline row and
  // a classed row from identical mixes, so interactive p99 improvement
  // and batch throughput cost divide directly within one JSON capture.
  const std::vector<size_t> class_counts = bench::BenchClassStreamCounts();
  const size_t class_quota = bench::BenchClassQuota();
  const size_t class_think_us = bench::BenchClassThinkUs();
  const size_t class_threads = bench::BenchClassThreads();
  std::printf("  \"class_results\": [\n");
  for (size_t i = 0; i < class_counts.size(); ++i) {
    const size_t streams = std::max<size_t>(2, class_counts[i]);
    query::ExecOptions clopts;
    clopts.policy = query::ExecPolicy::kVectorized;
    clopts.num_threads = static_cast<int>(class_threads);
    clopts.simd = runtime::SimdLevel::kAuto;
    for (int mode = 0; mode < 2; ++mode) {
      const bool classed = mode == 1;
      const ClassBenchResult r =
          TimeClassed(queries, flat_table, clopts, streams, classed,
                      class_quota, class_think_us, rows);
      std::printf(
          "    {\"mode\": \"%s\", \"streams\": %zu, \"batch_streams\": %zu, "
          "\"threads\": %zu, \"think_us\": %zu, "
          "\"interactive_queries\": %zu, \"interactive_p50_ms\": %.3f, "
          "\"interactive_p99_ms\": %.3f, \"batch_queries\": %zu, "
          "\"batch_rows_per_sec\": %.3e}%s\n",
          classed ? "classed" : "classless", streams, streams - 1,
          class_threads, class_think_us, class_quota, r.inter_p50_ms,
          r.inter_p99_ms, r.batch_queries, r.batch_rows_per_sec,
          (i + 1 < class_counts.size() || !classed) ? "," : "");
    }
  }
  std::printf("  ],\n");

  // Out-of-core scan path (PS3_IO=0 to skip): the same sharded fan-out
  // with the partitions resident, cold on disk with shard-granular
  // prefetch, and cold with no read-ahead. Cold modes drop the cache
  // before every query, so every partition load pays the (simulated)
  // remote-store latency; the prefetch rows measure how much of that
  // wait the pipeline hides. cache_hit_rate is the fraction of scan
  // fetches served by the cache (prefetch staging counts as a hit).
  const bool io_enabled =
      bench::EnvSizeScalar("PS3_IO", 1, /*min_value=*/0) != 0;
  std::printf("  \"io_results\": [\n");
  if (io_enabled) {
    // Default latency models a cloud object store round trip (~1.5ms);
    // below a few hundred us cold scans go CPU-bound on the decode and
    // the prefetch comparison stops measuring IO overlap.
    const size_t delay_us =
        bench::EnvSizeScalar("PS3_IO_DELAY_US", 1500, /*min_value=*/0);
    const size_t io_shards =
        *std::max_element(shard_counts.begin(), shard_counts.end());
    // Cold scans cost ~partitions × delay wall time per query, so the IO
    // dimension sweeps a small fixed query subset.
    const std::vector<query::Query> io_queries(
        queries.begin(),
        queries.begin() + std::min<size_t>(queries.size(), 4));
    char dir_tmpl[] = "/tmp/ps3_io_benchXXXXXX";
    if (mkdtemp(dir_tmpl) == nullptr) {
      std::fprintf(stderr, "mkdtemp failed\n");
      std::abort();
    }
    if (!io::PartitionStore::Spill(table, dir_tmpl).ok()) std::abort();
    io::PartitionStore::Options sopts;
    sopts.simulated_load_delay_us = delay_us;
    auto store_r = io::PartitionStore::Open(dir_tmpl, sopts);
    if (!store_r.ok()) std::abort();
    io::PartitionStore& probe = **store_r;
    // Budget smaller than the table, so cold scans genuinely evict.
    sopts.cache_budget_bytes = std::max<size_t>(probe.total_bytes() / 2, 1);
    store_r = io::PartitionStore::Open(dir_tmpl, sopts);
    if (!store_r.ok()) std::abort();
    io::PartitionStore& store = **store_r;

    // Correctness gate: cold answers must be bit-identical to the
    // resident scan under both policies before any throughput number is
    // worth reporting.
    if (!queries.empty()) {
      io::ColdShardedSource cold(&store, io_shards);
      for (query::ExecPolicy policy :
           {query::ExecPolicy::kScalar, query::ExecPolicy::kVectorized}) {
        query::ExecOptions gopts;
        gopts.policy = policy;
        gopts.num_threads = 4;
        ExpectIdentical(
            query::EvaluateAllPartitions(queries[0], flat_table, gopts),
            query::EvaluateAllPartitions(queries[0], cold, gopts));
      }
    }

    struct IoRow {
      const char* mode;
      size_t threads;
      double secs;
      double hit_rate;
    };
    std::vector<IoRow> io_rows;
    for (size_t t : thread_counts) {
      query::ExecOptions opts;
      opts.policy = query::ExecPolicy::kVectorized;
      opts.num_threads = static_cast<int>(t);
      opts.simd = runtime::SimdLevel::kAuto;

      {  // resident: everything in RAM, same fan-out.
        const storage::ShardedTable st(table, io_shards);
        const storage::ResidentShardedSource sharded(st);
        TimeAll(io_queries, sharded, opts);  // warm-up
        io_rows.push_back({"resident", t, TimeAll(io_queries, sharded, opts),
                           1.0});
      }

      // Cold modes skip the warm-up pass: the cache is dropped before
      // every query anyway, and lanes/scratch are warm from the sweeps
      // above, so a second multi-second cold pass would measure nothing.
      auto timed_cold = [&](io::PrefetchPipeline* pipeline,
                            io::ColdShardedSource* src) {
        auto run_all = [&] {
          double s = 0.0;
          for (const auto& q : io_queries) {
            if (pipeline != nullptr) pipeline->Drain();
            store.cache().Clear();
            auto start = Clock::now();
            auto answers = query::EvaluateAllPartitions(q, *src, opts);
            s += std::chrono::duration<double>(Clock::now() - start).count();
            if (answers.empty()) std::abort();
          }
          return s;
        };
        const io::CacheStats before = store.cache().stats();
        const double secs = run_all();
        const io::CacheStats after = store.cache().stats();
        const double lookups = static_cast<double>(
            (after.hits - before.hits) + (after.misses - before.misses));
        const double hit_rate =
            lookups > 0.0 ? static_cast<double>(after.hits - before.hits) /
                                lookups
                          : 0.0;
        return IoRow{"", t, secs, hit_rate};
      };

      {  // cold, no read-ahead: every fetch pays the load latency inline.
        io::ColdShardedSource src(&store, io_shards);
        IoRow row = timed_cold(nullptr, &src);
        row.mode = "cold_noprefetch";
        io_rows.push_back(row);
      }
      {  // cold + prefetch: next shard staged while this one scans.
        runtime::QueryScheduler scheduler;
        io::PrefetchPipeline pipeline(&store, &scheduler);
        io::ColdShardedSource src(&store, io_shards,
                                  storage::ShardAssignment::kRange, &pipeline);
        IoRow row = timed_cold(&pipeline, &src);
        row.mode = "cold_prefetch";
        io_rows.push_back(row);
      }
    }
    const double io_rows_total =
        static_cast<double>(rows) * static_cast<double>(io_queries.size());
    for (size_t i = 0; i < io_rows.size(); ++i) {
      const IoRow& r = io_rows[i];
      std::printf(
          "    {\"io\": \"%s\", \"threads\": %zu, \"shards\": %zu, "
          "\"delay_us\": %zu, \"seconds\": %.4f, \"rows_per_sec\": %.3e, "
          "\"cache_hit_rate\": %.3f}%s\n",
          r.mode, r.threads, io_shards, delay_us, r.secs,
          io_rows_total / r.secs, r.hit_rate,
          i + 1 < io_rows.size() ? "," : "");
    }
  }
  std::printf("  ],\n");

  // Wide-table column pruning (PS3_IO=0 skips): the same cold scan with
  // the evaluator's referenced-column hint honored (pruned) vs ignored
  // (full rehydration). The table is deliberately much wider than any
  // query's reference set, so the pruned mode should move a small
  // fraction of the bytes; bytes_read_per_row is the headline metric,
  // with the simulated-bandwidth model translating saved bytes into
  // saved seconds as a real object store would.
  std::printf("  \"column_results\": [\n");
  if (io_enabled) {
    const size_t n_numeric = bench::EnvSizeScalar("PS3_COLUMNS", 24);
    const size_t mbps =
        bench::EnvSizeScalar("PS3_IO_MBPS", 1000, /*min_value=*/0);
    const size_t col_delay_us =
        bench::EnvSizeScalar("PS3_IO_DELAY_US", 1500, /*min_value=*/0);
    // Cold scans cost ~partitions x delay wall time per query: bound the
    // partition count so the wide section stays a fraction of the sweep.
    const size_t wide_parts = std::min<size_t>(partitions, 64);
    auto wide_table = MakeWideTable(rows, n_numeric);
    storage::PartitionedTable wpt(wide_table, wide_parts);

    // Two query shapes: a selective filtered SUM and a broader grouped
    // scan; both reference 3 of the (1 + n_numeric) columns.
    std::vector<query::Query> wide_queries;
    {
      query::Query q;
      q.aggregates.push_back(query::Aggregate::Count());
      q.aggregates.push_back(query::Aggregate::Sum(query::Expr::Column(1)));
      q.predicate =
          query::Predicate::NumericCompare(2, query::CompareOp::kGt, 0.9);
      q.group_by.push_back(0);
      wide_queries.push_back(std::move(q));
    }
    {
      query::Query q;
      q.aggregates.push_back(query::Aggregate::Count());
      q.aggregates.push_back(query::Aggregate::Avg(query::Expr::Mul(
          query::Expr::Column(1), query::Expr::Column(2))));
      q.group_by.push_back(0);
      wide_queries.push_back(std::move(q));
    }
    const size_t cols_total = 1 + n_numeric;
    size_t cols_referenced = 0;
    for (const auto& q : wide_queries) {
      cols_referenced = std::max(
          cols_referenced, query::ReferencedColumns(query::CompileQuery(q))
                               .Resolve(cols_total)
                               .size());
    }

    char dir_tmpl[] = "/tmp/ps3_col_benchXXXXXX";
    if (mkdtemp(dir_tmpl) == nullptr) {
      std::fprintf(stderr, "mkdtemp failed\n");
      std::abort();
    }
    if (!io::PartitionStore::Spill(wpt, dir_tmpl).ok()) std::abort();
    io::PartitionStore::Options sopts;
    sopts.simulated_load_delay_us = col_delay_us;
    sopts.simulated_load_bandwidth_mbps = mbps;
    auto probe_r = io::PartitionStore::Open(dir_tmpl, sopts);
    if (!probe_r.ok()) std::abort();
    sopts.cache_budget_bytes =
        std::max<size_t>((*probe_r)->total_bytes() / 2, 1);
    auto store_r = io::PartitionStore::Open(dir_tmpl, sopts);
    if (!store_r.ok()) std::abort();
    io::PartitionStore& store = **store_r;

    // Correctness gate: pruned cold answers must be bit-identical to the
    // resident scan before the byte savings mean anything.
    {
      io::ColdShardedSource cold(&store, /*num_shards=*/4);
      for (const auto& q : wide_queries) {
        query::ExecOptions gopts;
        gopts.num_threads = 4;
        ExpectIdentical(
            query::EvaluateAllPartitions(
                q, storage::ResidentShardedSource(wpt), gopts),
            query::EvaluateAllPartitions(q, cold, gopts));
      }
    }

    struct ColRow {
      const char* mode;
      double secs;
      double bytes_per_row;
    };
    std::vector<ColRow> col_rows;
    const double wide_rows_total =
        static_cast<double>(rows) * static_cast<double>(wide_queries.size());
    query::ExecOptions copts;
    copts.policy = query::ExecPolicy::kVectorized;
    copts.num_threads = static_cast<int>(wide);
    copts.simd = runtime::SimdLevel::kAuto;
    io::ColdShardedSource pruned_src(&store, /*num_shards=*/4);
    FullColdSource full_src(&store, /*num_shards=*/4);
    const storage::PartitionSource* sources[] = {&pruned_src, &full_src};
    const char* mode_names[] = {"pruned", "full"};
    for (int m = 0; m < 2; ++m) {
      const uint64_t bytes_before = store.store_stats().bytes_loaded;
      double secs = 0.0;
      for (const auto& q : wide_queries) {
        store.cache().Clear();
        auto start = Clock::now();
        auto answers = query::EvaluateAllPartitions(q, *sources[m], copts);
        secs += std::chrono::duration<double>(Clock::now() - start).count();
        if (answers.empty()) std::abort();
      }
      const uint64_t bytes_moved =
          store.store_stats().bytes_loaded - bytes_before;
      col_rows.push_back(
          {mode_names[m], secs,
           static_cast<double>(bytes_moved) / wide_rows_total});
    }
    for (size_t i = 0; i < col_rows.size(); ++i) {
      const ColRow& r = col_rows[i];
      std::printf(
          "    {\"io_mode\": \"%s\", \"threads\": %zu, \"columns_total\": "
          "%zu, \"columns_referenced\": %zu, \"delay_us\": %zu, "
          "\"bandwidth_mbps\": %zu, \"seconds\": %.4f, \"rows_per_sec\": "
          "%.3e, \"bytes_read_per_row\": %.2f}%s\n",
          r.mode, wide, cols_total, cols_referenced, col_delay_us, mbps,
          r.secs, wide_rows_total / r.secs, r.bytes_per_row,
          i + 1 < col_rows.size() ? "," : "");
    }
  }
  std::printf("  ],\n");

  // Segment-encoding sweep (PS3_IO=0 skips; PS3_ENCODING pins modes):
  // spill the same TPC-H table under each encoding policy and cold-scan
  // it at a matched simulated link. The headline metrics: on-disk
  // bytes-per-row (total and for the dictionary-coded columns, where the
  // encodings act), *encoded* bytes read per row during the scan, and
  // cold rows/sec — compression must buy bytes without costing scan
  // throughput, since the decode runs through the AVX2 unpack kernels.
  std::printf("  \"encoding_results\": [\n");
  if (io_enabled) {
    const size_t enc_delay_us =
        bench::EnvSizeScalar("PS3_IO_DELAY_US", 1500, /*min_value=*/0);
    const size_t enc_mbps =
        bench::EnvSizeScalar("PS3_IO_MBPS", 1000, /*min_value=*/0);
    const std::vector<io::EncodingMode> modes = bench::BenchEncodingModes();
    const std::vector<query::Query> enc_queries(
        queries.begin(),
        queries.begin() + std::min<size_t>(queries.size(), 4));
    const double enc_rows_total =
        static_cast<double>(rows) * static_cast<double>(enc_queries.size());
    std::vector<size_t> cat_cols;
    for (size_t c = 0; c < table.schema().num_columns(); ++c) {
      if (table.schema().IsCategorical(c)) cat_cols.push_back(c);
    }

    for (size_t m = 0; m < modes.size(); ++m) {
      char dir_tmpl[] = "/tmp/ps3_enc_benchXXXXXX";
      if (mkdtemp(dir_tmpl) == nullptr) {
        std::fprintf(stderr, "mkdtemp failed\n");
        std::abort();
      }
      io::PartitionStore::SpillOptions spill_opts;
      spill_opts.encoding = modes[m];
      auto spill_start = Clock::now();
      if (!io::PartitionStore::Spill(table, dir_tmpl, spill_opts).ok()) {
        std::abort();
      }
      const double spill_secs =
          std::chrono::duration<double>(Clock::now() - spill_start).count();

      io::PartitionStore::Options sopts;
      sopts.simulated_load_delay_us = enc_delay_us;
      sopts.simulated_load_bandwidth_mbps = enc_mbps;
      auto probe_r = io::PartitionStore::Open(dir_tmpl, sopts);
      if (!probe_r.ok()) std::abort();
      sopts.cache_budget_bytes =
          std::max<size_t>((*probe_r)->total_bytes() / 2, 1);
      auto store_r = io::PartitionStore::Open(dir_tmpl, sopts);
      if (!store_r.ok()) std::abort();
      io::PartitionStore& store = **store_r;

      size_t cat_disk_bytes = 0;
      for (size_t p = 0; p < store.num_partitions(); ++p) {
        cat_disk_bytes += store.encoded_columns_bytes(p, cat_cols);
      }

      io::ColdShardedSource cold(&store, /*num_shards=*/4);
      query::ExecOptions eopts;
      eopts.policy = query::ExecPolicy::kVectorized;
      eopts.num_threads = static_cast<int>(wide);
      eopts.simd = runtime::SimdLevel::kAuto;
      // Correctness gate: every encoding's cold scan must be bit-exact
      // with the resident scan before its bytes or seconds mean anything.
      if (!enc_queries.empty()) {
        ExpectIdentical(
            query::EvaluateAllPartitions(enc_queries[0], flat_table, eopts),
            query::EvaluateAllPartitions(enc_queries[0], cold, eopts));
      }
      const uint64_t bytes_before = store.store_stats().bytes_loaded;
      double secs = 0.0;
      for (const auto& q : enc_queries) {
        store.cache().Clear();
        auto start = Clock::now();
        auto answers = query::EvaluateAllPartitions(q, cold, eopts);
        secs += std::chrono::duration<double>(Clock::now() - start).count();
        if (answers.empty()) std::abort();
      }
      const uint64_t bytes_moved =
          store.store_stats().bytes_loaded - bytes_before;
      std::printf(
          "    {\"encoding\": \"%s\", \"threads\": %zu, \"delay_us\": %zu, "
          "\"bandwidth_mbps\": %zu, \"spill_seconds\": %.4f, "
          "\"disk_bytes_per_row\": %.2f, \"cat_disk_bytes_per_row\": %.2f, "
          "\"bytes_read_per_row\": %.2f, \"seconds\": %.4f, "
          "\"rows_per_sec\": %.3e}%s\n",
          io::EncodingModeName(modes[m]), wide, enc_delay_us, enc_mbps,
          spill_secs,
          static_cast<double>(store.total_bytes()) / static_cast<double>(rows),
          static_cast<double>(cat_disk_bytes) / static_cast<double>(rows),
          static_cast<double>(bytes_moved) / enc_rows_total, secs,
          enc_rows_total / secs, m + 1 < modes.size() ? "," : "");
    }
  }
  std::printf("  ],\n");

  // Approximate serving (PS3_IO=0 skips; PS3_PICKERS / PS3_FRACTIONS pin
  // the sweep): SubmitApproximate over the cold store, where the picker's
  // weighted partition subset drives the scan — only picked (partition,
  // column) segments are fetched or prefetched. The exact row is the
  // same cold scan through the approximate path with an ExactPicker
  // (all partitions, weight 1; gated bit-identical to Submit), so the
  // learned rows' bytes_read_per_row divides directly against it. Errors
  // are measured against the resident exact answer.
  std::printf("  \"picker_results\": [\n");
  if (io_enabled) {
    const size_t pk_delay_us =
        bench::EnvSizeScalar("PS3_IO_DELAY_US", 1500, /*min_value=*/0);
    const size_t pk_mbps =
        bench::EnvSizeScalar("PS3_IO_MBPS", 1000, /*min_value=*/0);
    const size_t pk_shards =
        *std::max_element(shard_counts.begin(), shard_counts.end());
    const std::vector<std::string> picker_modes = bench::BenchPickerModes();
    const std::vector<double> fractions = bench::BenchPickerFractions();

    // Per-partition statistics + featurization over the same TPC-H table,
    // and a PS3 model trained on a disjoint generated workload — the
    // serving-path funnel consumes exactly what the offline pipeline
    // maintains.
    stats::StatsOptions stat_opts;
    for (const auto& name : bundle.spec.groupby_columns) {
      stat_opts.grouping_columns.push_back(
          static_cast<size_t>(laid_out->schema().FindColumn(name)));
    }
    stats::TableStats pk_stats = stats::StatsBuilder(stat_opts).Build(table);
    featurize::Featurizer pk_featurizer(laid_out->schema(), &pk_stats);
    core::PickerContext pk_ctx{&table, &pk_stats, &pk_featurizer};
    core::Ps3Model pk_model;
    bool want_ps3 = false;
    for (const auto& m : picker_modes) want_ps3 |= (m == "ps3");
    if (want_ps3) {
      const size_t train_q = bench::EnvSizeScalar("PS3_TRAINQ", 64);
      core::TrainingData tdata =
          core::BuildTrainingData(pk_ctx, gen.GenerateSet(train_q, 101));
      core::Ps3Options popts;
      popts.feature_selection.restarts = 1;
      popts.feature_selection.eval_queries = 5;
      pk_model = core::TrainPs3(pk_ctx, tdata, popts);
    }

    // Cold scans cost ~partitions x delay per query; sweep a small fixed
    // query subset, with resident exact answers as the error reference.
    const std::vector<query::Query> pk_queries(
        queries.begin(),
        queries.begin() + std::min<size_t>(queries.size(), 4));
    std::vector<query::QueryAnswer> pk_exact;
    for (const auto& q : pk_queries) {
      pk_exact.push_back(
          query::ExactAnswer(q, query::EvaluateAllPartitions(q, flat_table)));
    }
    const double pk_rows_total =
        static_cast<double>(rows) * static_cast<double>(pk_queries.size());

    char dir_tmpl[] = "/tmp/ps3_pick_benchXXXXXX";
    if (mkdtemp(dir_tmpl) == nullptr) {
      std::fprintf(stderr, "mkdtemp failed\n");
      std::abort();
    }
    if (!io::PartitionStore::Spill(table, dir_tmpl).ok()) std::abort();
    io::PartitionStore::Options sopts;
    sopts.simulated_load_delay_us = pk_delay_us;
    sopts.simulated_load_bandwidth_mbps = pk_mbps;
    auto probe_r = io::PartitionStore::Open(dir_tmpl, sopts);
    if (!probe_r.ok()) std::abort();
    sopts.cache_budget_bytes =
        std::max<size_t>((*probe_r)->total_bytes() / 2, 1);
    auto store_r = io::PartitionStore::Open(dir_tmpl, sopts);
    if (!store_r.ok()) std::abort();
    io::PartitionStore& store = **store_r;

    runtime::QueryScheduler scheduler;
    io::PrefetchPipeline pipeline(&store, &scheduler);
    io::ColdShardedSource cold(&store, pk_shards,
                               storage::ShardAssignment::kRange, &pipeline);

    query::ExecOptions pexec;
    pexec.policy = query::ExecPolicy::kVectorized;
    pexec.num_threads = static_cast<int>(wide);
    pexec.simd = runtime::SimdLevel::kAuto;

    const core::ExactPicker exact_picker(table.num_partitions());
    const core::RandomPicker random_picker(pk_ctx);
    const core::Ps3Picker ps3_picker(pk_ctx, &pk_model);

    // Correctness gate: the approximate path with the exact picker must
    // reproduce Submit's answer bit for bit before any row is reported.
    if (!pk_queries.empty()) {
      auto expect_bits = [](const query::QueryAnswer& a,
                            const query::QueryAnswer& b) {
        if (a.size() != b.size()) std::abort();
        for (const auto& [key, vals] : a) {
          auto it = b.find(key);
          if (it == b.end() || vals.size() != it->second.size()) std::abort();
          for (size_t x = 0; x < vals.size(); ++x) {
            if (std::memcmp(&vals[x], &it->second[x], sizeof(double)) != 0) {
              std::abort();
            }
          }
        }
      };
      query::QueryAnswer via_submit =
          scheduler.Submit(pk_queries[0], cold, pexec).get();
      runtime::ApproxAnswer via_approx =
          scheduler
              .SubmitApproximate(pk_queries[0], cold, exact_picker,
                                 {/*sampling_fraction=*/1.0, /*seed=*/1},
                                 pexec)
              .get();
      expect_bits(via_submit, via_approx.value);
      expect_bits(pk_exact[0], via_approx.value);
    }

    struct PickRow {
      std::string picker;
      double fraction;
      double secs = 0.0;
      uint64_t bytes_read = 0;
      uint64_t planned_bytes = 0;
      double scanned_frac = 0.0;
      double avg_rel_error = 0.0;
      double missed_groups = 0.0;
    };
    auto run_sweep = [&](const core::PartitionPicker& picker,
                         double fraction) {
      PickRow row;
      row.picker = picker.name();
      row.fraction = fraction;
      const uint64_t bytes_before = store.store_stats().bytes_loaded;
      for (size_t i = 0; i < pk_queries.size(); ++i) {
        pipeline.Drain();
        store.cache().Clear();
        runtime::ApproxOptions aopts;
        aopts.sampling_fraction = fraction;
        aopts.seed = 1000 + i;
        auto start = Clock::now();
        runtime::ApproxAnswer ans =
            scheduler
                .SubmitApproximate(pk_queries[i], cold, picker, aopts, pexec)
                .get();
        row.secs +=
            std::chrono::duration<double>(Clock::now() - start).count();
        row.planned_bytes += ans.bytes_moved;
        row.scanned_frac += static_cast<double>(ans.partitions_scanned) /
                            static_cast<double>(ans.partitions_total);
        query::ErrorMetrics err =
            query::ComputeErrorMetrics(pk_queries[i], pk_exact[i], ans.value);
        row.avg_rel_error += err.avg_rel_error;
        row.missed_groups += err.missed_groups;
      }
      pipeline.Drain();
      row.bytes_read = store.store_stats().bytes_loaded - bytes_before;
      const double nq = static_cast<double>(pk_queries.size());
      row.scanned_frac /= nq;
      row.avg_rel_error /= nq;
      row.missed_groups /= nq;
      return row;
    };

    std::vector<PickRow> pick_rows;
    for (const auto& mode : picker_modes) {
      if (mode == "exact") {
        // One row: the exact picker reads everything at any fraction.
        pick_rows.push_back(run_sweep(exact_picker, 1.0));
      } else {
        const core::PartitionPicker& picker =
            mode == "random"
                ? static_cast<const core::PartitionPicker&>(random_picker)
                : ps3_picker;
        for (double f : fractions) pick_rows.push_back(run_sweep(picker, f));
      }
    }
    for (size_t i = 0; i < pick_rows.size(); ++i) {
      const PickRow& r = pick_rows[i];
      std::printf(
          "    {\"picker\": \"%s\", \"fraction\": %.3f, \"threads\": %zu, "
          "\"shards\": %zu, \"delay_us\": %zu, \"bandwidth_mbps\": %zu, "
          "\"seconds\": %.4f, \"rows_per_sec\": %.3e, "
          "\"bytes_read_per_row\": %.2f, \"planned_bytes_per_row\": %.2f, "
          "\"partitions_scanned_frac\": %.3f, \"avg_rel_error\": %.4f, "
          "\"missed_groups\": %.2f}%s\n",
          r.picker.c_str(), r.fraction, wide, pk_shards, pk_delay_us, pk_mbps,
          r.secs, pk_rows_total / r.secs,
          static_cast<double>(r.bytes_read) / pk_rows_total,
          static_cast<double>(r.planned_bytes) / pk_rows_total,
          r.scanned_frac, r.avg_rel_error, r.missed_groups,
          i + 1 < pick_rows.size() ? "," : "");
    }
  }
  std::printf("  ],\n");

  // Fault tolerance (PS3_IO=0 skips): exact cold scans through the
  // scheduler while the store's FaultInjector throws seeded transient
  // errors and latency spikes, swept over fault rate (PS3_FAULT_RATE,
  // 0 = the fault-free baseline), retry attempts (PS3_RETRY, 1 = retries
  // off), and hedge delay (PS3_HEDGE_MS, 0 = hedging off), all under
  // PS3_FAULT_SEED so two runs see the identical failure sequence.
  // Successful answers are gated bit-identical to the resident scan —
  // faults may cost retries, latency, and failed queries, never bits.
  std::printf("  \"fault_results\": [\n");
  if (io_enabled) {
    const size_t ft_delay_us =
        bench::EnvSizeScalar("PS3_IO_DELAY_US", 1500, /*min_value=*/0);
    const size_t ft_shards =
        *std::max_element(shard_counts.begin(), shard_counts.end());
    const std::vector<double> fault_rates = bench::BenchFaultRates();
    const uint64_t fault_seed = bench::BenchFaultSeed();
    const std::vector<size_t> retry_attempts = bench::BenchRetryAttempts();
    const std::vector<size_t> hedge_delays_ms = bench::BenchHedgeDelaysMs();
    constexpr int kFaultReps = 3;

    const std::vector<query::Query> ft_queries(
        queries.begin(),
        queries.begin() + std::min<size_t>(queries.size(), 4));
    std::vector<query::QueryAnswer> ft_exact;
    for (const auto& q : ft_queries) {
      ft_exact.push_back(
          query::ExactAnswer(q, query::EvaluateAllPartitions(q, flat_table)));
    }

    char dir_tmpl[] = "/tmp/ps3_fault_benchXXXXXX";
    if (mkdtemp(dir_tmpl) == nullptr) {
      std::fprintf(stderr, "mkdtemp failed\n");
      std::abort();
    }
    if (!io::PartitionStore::Spill(table, dir_tmpl).ok()) std::abort();

    auto expect_bits = [](const query::QueryAnswer& a,
                          const query::QueryAnswer& b) {
      if (a.size() != b.size()) std::abort();
      for (const auto& [key, vals] : a) {
        auto it = b.find(key);
        if (it == b.end() || vals.size() != it->second.size()) std::abort();
        for (size_t x = 0; x < vals.size(); ++x) {
          if (std::memcmp(&vals[x], &it->second[x], sizeof(double)) != 0) {
            std::abort();
          }
        }
      }
    };
    auto percentile_ms = [](std::vector<double> v, double q) {
      if (v.empty()) return 0.0;
      std::sort(v.begin(), v.end());
      const size_t idx = std::min(
          v.size() - 1,
          static_cast<size_t>(q * static_cast<double>(v.size())));
      return v[idx] * 1000.0;
    };

    struct FaultCfg {
      double rate;
      size_t attempts;
      size_t hedge_ms;
    };
    std::vector<FaultCfg> cfgs;
    for (double rate : fault_rates) {
      for (size_t attempts : retry_attempts) {
        for (size_t hedge_ms : hedge_delays_ms) {
          cfgs.push_back({rate, attempts, hedge_ms});
        }
      }
    }
    for (size_t ci = 0; ci < cfgs.size(); ++ci) {
      const FaultCfg& cfg = cfgs[ci];
      io::PartitionStore::Options sopts;
      sopts.simulated_load_delay_us = ft_delay_us;
      if (cfg.rate > 0.0) {
        io::FaultPlan plan;
        plan.seed = fault_seed;
        plan.transient_rate = cfg.rate;
        plan.latency_rate = cfg.rate;
        // Spikes must dwarf the base RTT, or a hedged duplicate read has
        // nothing to win against.
        plan.latency_spike_us = std::max<size_t>(2000, ft_delay_us * 4);
        sopts.faults = std::make_shared<io::FaultInjector>(std::move(plan));
      }
      sopts.retry.max_attempts = static_cast<int>(cfg.attempts);
      sopts.hedge.enabled = cfg.hedge_ms > 0;
      sopts.hedge.fixed_delay_us = cfg.hedge_ms * 1000;
      auto store_r = io::PartitionStore::Open(dir_tmpl, sopts);
      if (!store_r.ok()) std::abort();
      io::PartitionStore& store = **store_r;

      runtime::QueryScheduler scheduler;
      io::ColdShardedSource cold(&store, ft_shards);
      query::ExecOptions fopts;
      fopts.policy = query::ExecPolicy::kVectorized;
      fopts.num_threads = static_cast<int>(wide);
      fopts.simd = runtime::SimdLevel::kAuto;

      size_t successes = 0;
      size_t attempts_total = 0;
      double success_secs = 0.0;
      std::vector<double> cold_secs;
      for (int rep = 0; rep < kFaultReps; ++rep) {
        for (size_t i = 0; i < ft_queries.size(); ++i) {
          store.cache().Clear();
          ++attempts_total;
          auto start = Clock::now();
          try {
            query::QueryAnswer ans =
                scheduler.Submit(ft_queries[i], cold, fopts).get();
            const double secs =
                std::chrono::duration<double>(Clock::now() - start).count();
            expect_bits(ft_exact[i], ans);
            ++successes;
            success_secs += secs;
            cold_secs.push_back(secs);
          } catch (const std::exception&) {
            // Retry-exhausted load: the query fails cleanly (a failure,
            // never a wrong answer) and counts against success_rate.
          }
        }
      }
      const io::StoreStats st = store.store_stats();
      const double success_rows =
          static_cast<double>(rows) * static_cast<double>(successes);
      std::printf(
          "    {\"fault_rate\": %.3f, \"fault_seed\": %llu, "
          "\"max_attempts\": %zu, \"hedge_ms\": %zu, \"threads\": %zu, "
          "\"shards\": %zu, \"delay_us\": %zu, \"queries\": %zu, "
          "\"successes\": %zu, \"success_rate\": %.3f, "
          "\"cold_p50_ms\": %.2f, \"cold_p99_ms\": %.2f, "
          "\"rows_per_sec\": %.3e, \"retries\": %llu, "
          "\"transient_errors\": %llu, \"load_errors\": %llu, "
          "\"hedged_loads\": %llu, \"hedge_wins\": %llu}%s\n",
          cfg.rate, static_cast<unsigned long long>(fault_seed), cfg.attempts,
          cfg.hedge_ms, wide, ft_shards, ft_delay_us, attempts_total,
          successes,
          attempts_total > 0
              ? static_cast<double>(successes) /
                    static_cast<double>(attempts_total)
              : 0.0,
          percentile_ms(cold_secs, 0.50), percentile_ms(cold_secs, 0.99),
          success_secs > 0.0 ? success_rows / success_secs : 0.0,
          static_cast<unsigned long long>(st.retries),
          static_cast<unsigned long long>(st.transient_errors),
          static_cast<unsigned long long>(st.load_errors),
          static_cast<unsigned long long>(st.hedged_loads),
          static_cast<unsigned long long>(st.hedge_wins),
          ci + 1 < cfgs.size() ? "," : "");
    }
  }
  std::printf("  ],\n");
  std::printf("  \"speedup_vectorized_1t\": %.2f,\n",
              vec_best_1t > 0.0 ? scalar_1t / vec_best_1t : 0.0);
  std::printf("  \"speedup_simd_kernels_1t\": %.2f,\n",
              vec_best_1t > 0.0 ? vec_pack_1t / vec_best_1t : 0.0);
  std::printf("  \"speedup_vectorized_wide\": %.2f\n",
              vec_best_wide > 0.0 ? scalar_1t / vec_best_wide : 0.0);
  std::printf("}\n");
  return 0;
}
