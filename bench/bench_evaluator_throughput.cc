// Scan-path layer bench: rows/sec of exact whole-table evaluation on the
// TPC-H-style workload, in four JSON sections that nothing else measures.
//   results           execution policy (scalar interpreter vs vectorized
//                     engine) x predicate kernel (word-packing vs AVX2) x
//                     worker lanes, plus the sharded fan-out;
//   io_results        resident vs cold-with-prefetch vs cold-no-prefetch
//                     over a spilled io::PartitionStore, with cache hit
//                     rates (cold_prefetch: the median of three passes,
//                     with the hit rate's min and max);
//   column_results    a wide table cold-scanned with the query's
//                     referenced-column hint (pruned) vs full rehydration,
//                     in bytes read per row;
//   encoding_results  the spill-time segment encodings: on-disk and read
//                     bytes per row, spill seconds, cold rows/sec.
// Every section gates its answers bit-identical to the resident scan
// before it reports a number. The serving paths (picked queries, tenant
// classes, faults, retries, hedges) are measured by bench/serving, and
// the paper's error curves by the bench_fig* binaries.
//
// Knobs, all strictly parsed (a malformed value aborts naming it):
// PS3_ROWS / PS3_PARTS / PS3_TESTQ size the table and query set;
// PS3_THREADS / PS3_SHARDS pin the lane and shard sweeps ("1,4,8");
// PS3_IO=0 skips the three cold sections; PS3_IO_DELAY_US sets the
// simulated remote-store latency per cold load and PS3_IO_MBPS the link
// bandwidth of the pruning and encoding sections; PS3_COLUMNS sets the
// wide table's numeric column count; PS3_ENCODING pins the encodings
// (raw / bitpack / for_delta / auto). Spills go to fresh directories
// under the system temp directory (TMPDIR) and are removed on exit.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "io/cold_source.h"
#include "io/partition_store.h"
#include "io/prefetch_pipeline.h"
#include "query/compiler.h"
#include "query/evaluator.h"
#include "runtime/query_scheduler.h"
#include "runtime/simd.h"
#include "storage/column_set.h"
#include "storage/sharded_table.h"
#include "workload/datasets.h"
#include "workload/generator.h"

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double TimeAll(const std::vector<ps3::query::Query>& queries,
               const ps3::storage::PartitionSource& source,
               const ps3::query::ExecOptions& opts) {
  auto start = Clock::now();
  for (const auto& q : queries) {
    auto answers = ps3::query::EvaluateAllPartitions(q, source, opts);
    // Keep the optimizer honest.
    if (answers.empty()) std::abort();
  }
  return SecondsSince(start);
}

/// A table spilled to a fresh directory under the system temp directory
/// and reopened with a cache of half its bytes, so cold scans genuinely
/// evict. The directory is removed when this goes out of scope.
class SpilledStore {
 public:
  SpilledStore(const ps3::storage::PartitionedTable& table,
               ps3::io::PartitionStore::Options opts,
               const ps3::io::PartitionStore::SpillOptions& spill = {}) {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "ps3_benchXXXXXX").string();
    if (mkdtemp(tmpl.data()) == nullptr) {
      std::perror("mkdtemp");
      std::abort();
    }
    dir_ = tmpl;
    const auto start = Clock::now();
    if (!ps3::io::PartitionStore::Spill(table, dir_, spill).ok()) std::abort();
    spill_secs_ = SecondsSince(start);
    auto probe = ps3::io::PartitionStore::Open(dir_, opts);
    if (!probe.ok()) std::abort();
    opts.cache_budget_bytes = std::max<size_t>((*probe)->total_bytes() / 2, 1);
    auto store = ps3::io::PartitionStore::Open(dir_, opts);
    if (!store.ok()) std::abort();
    store_ = std::move(*store);
  }
  ~SpilledStore() {
    store_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  SpilledStore(const SpilledStore&) = delete;
  SpilledStore& operator=(const SpilledStore&) = delete;

  ps3::io::PartitionStore& store() { return *store_; }
  double spill_secs() const { return spill_secs_; }

 private:
  std::string dir_;
  double spill_secs_ = 0.0;
  std::unique_ptr<ps3::io::PartitionStore> store_;
};

/// Cold source that ignores the evaluator's projection hint and always
/// rehydrates whole partitions — the "full" baseline the column-pruned
/// mode is measured against. It overrides the ScanControl forms, the
/// ones the evaluator calls.
class FullColdSource : public ps3::io::ColdShardedSource {
 public:
  using ColdShardedSource::ColdShardedSource;

  ps3::Result<ps3::storage::PinnedPartition> Acquire(
      size_t global_index, const ps3::storage::ColumnSet& columns,
      const ps3::storage::ScanControl& control) const override {
    (void)columns;
    return store().Fetch(global_index, ps3::storage::ColumnSet::All(),
                         control.cancel);
  }
  using ColdShardedSource::Acquire;
  void WillScanShard(size_t s, const ps3::storage::ColumnSet& columns,
                     const ps3::storage::ScanControl& control) const override {
    (void)columns;
    ColdShardedSource::WillScanShard(s, ps3::storage::ColumnSet::All(),
                                     control);
  }
  using ColdShardedSource::WillScanShard;
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

  // The three cold sections below share one simulated link (PS3_IO=0
  // skips them all). The default latency models a cloud object store
  // round trip (~1.5ms); below a few hundred us cold scans go CPU-bound on
  // the decode and the prefetch comparison stops measuring IO overlap.
  const bool io_enabled =
      bench::EnvSizeScalar("PS3_IO", 1, /*min_value=*/0) != 0;
  const size_t delay_us =
      bench::EnvSizeScalar("PS3_IO_DELAY_US", 1500, /*min_value=*/0);
  const size_t mbps =
      bench::EnvSizeScalar("PS3_IO_MBPS", 1000, /*min_value=*/0);
  // Cold scans cost ~partitions × delay wall time per query, so the cold
  // sections sweep a small fixed query subset.
  const std::vector<query::Query> cold_queries(
      queries.begin(), queries.begin() + std::min<size_t>(queries.size(), 4));
  const double cold_rows_total =
      static_cast<double>(rows) * static_cast<double>(cold_queries.size());

  // Out-of-core scan path: the same sharded fan-out with the partitions
  // resident, cold on disk with plan read-ahead, and cold with no
  // read-ahead. Cold modes drop the cache before every query, so every
  // partition load pays the (simulated) remote-store latency; the
  // prefetch rows measure how much of that wait the pipeline hides.
  // cache_hit_rate is the fraction of scan fetches served by the cache
  // (prefetch staging counts as a hit). Read-ahead races the scan, so one
  // pass's hit rate is noise: cold_prefetch rows report the median
  // seconds and hit rate of kPrefetchTrials passes, with the hit rate's
  // min and max (one pass, so min = max, for the other modes).
  std::printf("  \"io_results\": [\n");
  if (io_enabled) {
    const size_t io_shards =
        *std::max_element(shard_counts.begin(), shard_counts.end());
    // Latency only: the bandwidth term belongs to the byte-counting
    // sections below.
    io::PartitionStore::Options sopts;
    sopts.simulated_load_delay_us = delay_us;
    SpilledStore spilled(table, sopts);
    io::PartitionStore& store = spilled.store();

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

    constexpr size_t kPrefetchTrials = 3;
    struct IoRow {
      const char* mode;
      size_t threads;
      size_t trials;
      double secs;  ///< median over trials, as is hit_rate
      double hit_rate;
      double hit_min;
      double hit_max;
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
        TimeAll(cold_queries, sharded, opts);  // warm-up
        io_rows.push_back({"resident", t, 1,
                           TimeAll(cold_queries, sharded, opts), 1.0, 1.0,
                           1.0});
      }

      // Cold modes skip the warm-up pass: the cache is dropped before
      // every query anyway, and lanes/scratch are warm from the sweeps
      // above, so a second multi-second cold pass would measure nothing.
      auto timed_cold = [&](const char* mode, io::PrefetchPipeline* pipeline,
                            io::ColdShardedSource* src, size_t trials) {
        std::vector<double> secs(trials, 0.0);
        std::vector<double> hit_rates(trials, 0.0);
        for (size_t k = 0; k < trials; ++k) {
          const io::CacheStats before = store.cache().stats();
          for (const auto& q : cold_queries) {
            if (pipeline != nullptr) pipeline->Drain();
            store.cache().Clear();
            auto start = Clock::now();
            auto answers = query::EvaluateAllPartitions(q, *src, opts);
            secs[k] += SecondsSince(start);
            if (answers.empty()) std::abort();
          }
          const io::CacheStats after = store.cache().stats();
          const double lookups = static_cast<double>(
              (after.hits - before.hits) + (after.misses - before.misses));
          hit_rates[k] = lookups > 0.0
                             ? static_cast<double>(after.hits - before.hits) /
                                   lookups
                             : 0.0;
        }
        std::sort(secs.begin(), secs.end());
        std::sort(hit_rates.begin(), hit_rates.end());
        io_rows.push_back(IoRow{mode, t, trials, secs[trials / 2],
                                hit_rates[trials / 2], hit_rates.front(),
                                hit_rates.back()});
      };

      {  // cold, no read-ahead: every fetch pays the load latency inline.
        io::ColdShardedSource src(&store, io_shards);
        timed_cold("cold_noprefetch", nullptr, &src, 1);
      }
      {  // cold + prefetch: the plan fits a quarter of the cache, so the
         // first shard entry stages all of it.
        runtime::QueryScheduler scheduler;
        io::PrefetchPipeline pipeline(&store, &scheduler);
        io::ColdShardedSource src(&store, io_shards,
                                  storage::ShardAssignment::kRange, &pipeline);
        timed_cold("cold_prefetch", &pipeline, &src, kPrefetchTrials);
      }
    }
    for (size_t i = 0; i < io_rows.size(); ++i) {
      const IoRow& r = io_rows[i];
      std::printf(
          "    {\"io\": \"%s\", \"threads\": %zu, \"shards\": %zu, "
          "\"delay_us\": %zu, \"trials\": %zu, \"seconds\": %.4f, "
          "\"rows_per_sec\": %.3e, \"cache_hit_rate\": %.3f, "
          "\"cache_hit_rate_min\": %.3f, \"cache_hit_rate_max\": %.3f}%s\n",
          r.mode, r.threads, io_shards, delay_us, r.trials, r.secs,
          cold_rows_total / r.secs, r.hit_rate, r.hit_min, r.hit_max,
          i + 1 < io_rows.size() ? "," : "");
    }
  }
  std::printf("  ],\n");

  io::PartitionStore::Options link;
  link.simulated_load_delay_us = delay_us;
  link.simulated_load_bandwidth_mbps = mbps;

  // Wide-table column pruning: the same cold scan with the evaluator's
  // referenced-column hint honored (pruned) vs ignored (full
  // rehydration). The table is deliberately much wider than any query's
  // reference set, so the pruned mode should move a small fraction of the
  // bytes; bytes_read_per_row is the headline metric, with the
  // simulated-bandwidth model translating saved bytes into saved seconds
  // as a real object store would.
  std::printf("  \"column_results\": [\n");
  if (io_enabled) {
    const size_t n_numeric = bench::EnvSizeScalar("PS3_COLUMNS", 24);
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

    SpilledStore spilled(wpt, link);
    io::PartitionStore& store = spilled.store();

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
        secs += SecondsSince(start);
        if (answers.empty()) std::abort();
      }
      const uint64_t bytes_moved =
          store.store_stats().bytes_loaded - bytes_before;
      col_rows.push_back(
          {mode_names[m], secs,
           static_cast<double>(bytes_moved) / wide_rows_total});
    }
    // The comparison is meaningless unless the full mode really reads
    // the unreferenced columns.
    if (cols_referenced < cols_total &&
        !(col_rows[1].bytes_per_row > col_rows[0].bytes_per_row)) {
      std::fprintf(stderr,
                   "column_results: full mode read %.2f bytes/row, pruned "
                   "%.2f; full must read more\n",
                   col_rows[1].bytes_per_row, col_rows[0].bytes_per_row);
      std::abort();
    }
    for (size_t i = 0; i < col_rows.size(); ++i) {
      const ColRow& r = col_rows[i];
      std::printf(
          "    {\"io_mode\": \"%s\", \"threads\": %zu, \"columns_total\": "
          "%zu, \"columns_referenced\": %zu, \"delay_us\": %zu, "
          "\"bandwidth_mbps\": %zu, \"seconds\": %.4f, \"rows_per_sec\": "
          "%.3e, \"bytes_read_per_row\": %.2f}%s\n",
          r.mode, wide, cols_total, cols_referenced, delay_us, mbps, r.secs,
          wide_rows_total / r.secs, r.bytes_per_row,
          i + 1 < col_rows.size() ? "," : "");
    }
  }
  std::printf("  ],\n");

  // Segment-encoding sweep (PS3_ENCODING pins modes): spill the same
  // TPC-H table under each encoding policy and cold-scan it at a matched
  // simulated link. The headline metrics: on-disk bytes-per-row (total
  // and for the dictionary-coded columns, where the encodings act),
  // *encoded* bytes read per row during the scan, and cold rows/sec —
  // compression must buy bytes without costing scan throughput, since the
  // decode runs through the AVX2 unpack kernels.
  std::printf("  \"encoding_results\": [\n");
  if (io_enabled) {
    const std::vector<io::EncodingMode> modes = bench::BenchEncodingModes();
    std::vector<size_t> cat_cols;
    for (size_t c = 0; c < table.schema().num_columns(); ++c) {
      if (table.schema().IsCategorical(c)) cat_cols.push_back(c);
    }

    for (size_t m = 0; m < modes.size(); ++m) {
      io::PartitionStore::SpillOptions spill_opts;
      spill_opts.encoding = modes[m];
      SpilledStore spilled(table, link, spill_opts);
      io::PartitionStore& store = spilled.store();

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
      if (!cold_queries.empty()) {
        ExpectIdentical(
            query::EvaluateAllPartitions(cold_queries[0], flat_table, eopts),
            query::EvaluateAllPartitions(cold_queries[0], cold, eopts));
      }
      const uint64_t bytes_before = store.store_stats().bytes_loaded;
      double secs = 0.0;
      for (const auto& q : cold_queries) {
        store.cache().Clear();
        auto start = Clock::now();
        auto answers = query::EvaluateAllPartitions(q, cold, eopts);
        secs += SecondsSince(start);
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
          io::EncodingModeName(modes[m]), wide, delay_us, mbps,
          spilled.spill_secs(),
          static_cast<double>(store.total_bytes()) / static_cast<double>(rows),
          static_cast<double>(cat_disk_bytes) / static_cast<double>(rows),
          static_cast<double>(bytes_moved) / cold_rows_total, secs,
          cold_rows_total / secs, m + 1 < modes.size() ? "," : "");
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
