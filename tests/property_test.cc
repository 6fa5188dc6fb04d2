// Cross-module property tests: statistical invariants checked over
// parameterized sweeps (TEST_P), plus edge/failure-injection cases that
// don't fit a single module's unit tests.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>

#include <cstring>

#include <cstdlib>

#include "core/cluster_select.h"
#include "core/exact_picker.h"
#include "core/lss_picker.h"
#include "core/ps3_picker.h"
#include "core/ps3_trainer.h"
#include "core/random_picker.h"
#include "core/training_data.h"
#include "featurize/featurizer.h"
#include "io/cold_source.h"
#include "io/fault_injector.h"
#include "io/partition_store.h"
#include "io/prefetch_pipeline.h"
#include "query/evaluator.h"
#include "query/metrics.h"
#include "runtime/query_scheduler.h"
#include "sketch/histogram.h"
#include "sketch/akmv.h"
#include "common/hash.h"
#include "runtime/simd.h"
#include "stats/stats_builder.h"
#include "storage/partition_source.h"
#include "storage/sharded_table.h"
#include "workload/datasets.h"
#include "workload/generator.h"

#include "scratch_dir.h"

namespace ps3 {
namespace {

// ---------------------------------------------------------------------
// Histogram CDF vs brute force under different data shapes.

struct DistCase {
  const char* name;
  double (*draw)(RandomEngine&);
};

double DrawUniform(RandomEngine& rng) { return rng.NextDouble() * 100.0; }
double DrawGaussian(RandomEngine& rng) { return 10.0 * rng.NextGaussian(); }
double DrawExponential(RandomEngine& rng) {
  return rng.NextExponential(0.05);
}
double DrawDiscrete(RandomEngine& rng) {
  return static_cast<double>(rng.NextUint64(8));
}
double DrawHeavyZero(RandomEngine& rng) {
  return rng.NextBool(0.7) ? 0.0 : rng.NextExponential(0.01);
}

class HistogramDistributions : public ::testing::TestWithParam<DistCase> {};

TEST_P(HistogramDistributions, CdfWithinBucketResolution) {
  RandomEngine rng(99);
  std::vector<double> values(4000);
  for (auto& v : values) v = GetParam().draw(rng);
  auto hist = sketch::EquiDepthHistogram::Build(values, 10);
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (double q : {0.05, 0.2, 0.5, 0.77, 0.93}) {
    double x = sorted[static_cast<size_t>(q * 3999)];
    double truth = 0.0;
    for (double v : values) {
      if (v <= x) truth += 1.0;
    }
    truth /= 4000.0;
    // An equi-depth histogram with B buckets resolves the CDF to ~1/B.
    EXPECT_NEAR(hist.CdfLe(x), truth, 0.11) << GetParam().name << " q=" << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, HistogramDistributions,
    ::testing::Values(DistCase{"uniform", DrawUniform},
                      DistCase{"gaussian", DrawGaussian},
                      DistCase{"exponential", DrawExponential},
                      DistCase{"discrete", DrawDiscrete},
                      DistCase{"heavy_zero", DrawHeavyZero}),
    [](const auto& info) { return std::string(info.param.name); });

// ---------------------------------------------------------------------
// AKMV estimate accuracy across cardinalities.

class AkmvCardinality : public ::testing::TestWithParam<int> {};

TEST_P(AkmvCardinality, RelativeErrorBounded) {
  const int truth = GetParam();
  sketch::AkmvSketch sketch(128);
  for (int i = 0; i < truth * 3; ++i) {
    sketch.UpdateHash(HashInt(i % truth, /*salt=*/7));
  }
  double est = sketch.EstimateDistinct();
  if (truth < 128) {
    EXPECT_DOUBLE_EQ(est, truth);  // strictly below k: exact
  } else {
    // At or above k the sketch cannot distinguish "exactly k" from more
    // and falls back to the KMV estimator (~9% rel std at k=128).
    EXPECT_NEAR(est / truth, 1.0, 0.35);
  }
}

INSTANTIATE_TEST_SUITE_P(Cardinalities, AkmvCardinality,
                         ::testing::Values(10, 100, 128, 500, 2000, 20000));

// ---------------------------------------------------------------------
// Horvitz-Thompson unbiasedness of uniform selection, multiple budgets.

class UniformUnbiased : public ::testing::TestWithParam<size_t> {};

TEST_P(UniformUnbiased, SumEstimatorCentersOnTruth) {
  const size_t budget = GetParam();
  constexpr size_t kN = 40;
  // Per-partition values with strong skew.
  std::vector<double> part_sums(kN);
  RandomEngine data_rng(5);
  for (auto& v : part_sums) v = data_rng.NextExponential(0.01);
  double truth = std::accumulate(part_sums.begin(), part_sums.end(), 0.0);

  std::vector<size_t> candidates(kN);
  std::iota(candidates.begin(), candidates.end(), 0);
  double mean = 0.0;
  constexpr int kRuns = 4000;
  RandomEngine rng(11);
  for (int r = 0; r < kRuns; ++r) {
    auto sel = core::UniformSelection(candidates, budget, &rng);
    double est = 0.0;
    for (const auto& wp : sel.parts) est += wp.weight * part_sums[wp.partition];
    mean += est;
  }
  mean /= kRuns;
  EXPECT_NEAR(mean / truth, 1.0, 0.05) << "budget " << budget;
}

INSTANTIATE_TEST_SUITE_P(Budgets, UniformUnbiased,
                         ::testing::Values(1, 4, 10, 20, 39, 40));

// ---------------------------------------------------------------------
// AllocateSamples invariants over a parameter sweep.

class AllocateSweep
    : public ::testing::TestWithParam<std::tuple<size_t, double>> {};

TEST_P(AllocateSweep, TotalExactAndRatesMonotone) {
  auto [budget, alpha] = GetParam();
  const std::vector<size_t> sizes{37, 0, 12, 55, 3};
  auto alloc = core::Ps3Picker::AllocateSamples(sizes, budget, alpha);
  size_t total = 0, cap = 0;
  for (size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_LE(alloc[i], sizes[i]);
    total += alloc[i];
    cap += sizes[i];
  }
  EXPECT_EQ(total, std::min(budget, cap));
  // Sampling rates never decrease with importance (later groups), modulo
  // integer rounding of one sample on either side.
  for (size_t i = 0; i + 1 < sizes.size(); ++i) {
    if (sizes[i] == 0 || sizes[i + 1] == 0) continue;
    double r_lo = static_cast<double>(alloc[i]) / sizes[i];
    double r_hi = static_cast<double>(alloc[i + 1]) / sizes[i + 1];
    double rounding = 1.0 / sizes[i] + 1.0 / sizes[i + 1];
    EXPECT_GE(r_hi + rounding + 1e-9, r_lo);
  }
}

INSTANTIATE_TEST_SUITE_P(
    BudgetAlpha, AllocateSweep,
    ::testing::Combine(::testing::Values<size_t>(1, 7, 25, 60, 107, 200),
                       ::testing::Values(1.0, 1.5, 2.0, 4.0)));

// ---------------------------------------------------------------------
// LSS stratified selection invariants across strata counts.

class LssStrataSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(LssStrataSweep, WeightsAlwaysCoverPopulation) {
  const size_t n_strata = GetParam();
  RandomEngine rng(3);
  std::vector<size_t> candidates(60);
  std::iota(candidates.begin(), candidates.end(), 0);
  std::vector<double> scores(60);
  for (auto& s : scores) s = rng.NextGaussian();
  for (size_t budget : {5ul, 15ul, 30ul}) {
    RandomEngine pick_rng(budget * 31 + n_strata);
    auto sel = core::LssPicker::StratifiedSelect(candidates, scores, budget,
                                                 n_strata, &pick_rng);
    EXPECT_EQ(sel.parts.size(), budget);
    double total = 0.0;
    for (const auto& wp : sel.parts) total += wp.weight;
    EXPECT_NEAR(total, 60.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Strata, LssStrataSweep,
                         ::testing::Values(2, 3, 5, 8, 12, 20));

// ---------------------------------------------------------------------
// Edge and failure-injection cases.

TEST(EdgeCases, EmptyInClauseMatchesNothing) {
  auto bundle = workload::MakeAria(500, 1);
  storage::PartitionedTable pt(bundle.table, 2);
  const storage::ResidentShardedSource flat_src(pt);
  query::Query q;
  q.aggregates = {query::Aggregate::Count()};
  q.predicate = query::Predicate::CategoricalIn(
      static_cast<size_t>(bundle.table->schema().FindColumn("TenantId")),
      {});
  auto exact = query::ExactAnswer(q, query::EvaluateAllPartitions(q, flat_src));
  EXPECT_TRUE(exact.empty());
}

TEST(EdgeCases, SinglePartitionTable) {
  auto bundle = workload::MakeKdd(300, 2);
  storage::PartitionedTable pt(bundle.table, 1);
  stats::StatsOptions opts;
  auto stats = stats::StatsBuilder(opts).Build(pt);
  EXPECT_EQ(stats.num_partitions(), 1u);
  featurize::Featurizer fz(bundle.table->schema(), &stats);
  query::Query q;
  q.aggregates = {query::Aggregate::Count()};
  auto fm = fz.BuildFeatures(q);
  EXPECT_EQ(fm.n, 1u);
}

TEST(EdgeCases, PickBudgetZeroIsEmpty) {
  auto bundle = workload::MakeAria(1000, 3);
  storage::PartitionedTable pt(bundle.table, 5);
  stats::StatsOptions opts;
  auto stats = stats::StatsBuilder(opts).Build(pt);
  featurize::Featurizer fz(bundle.table->schema(), &stats);
  core::PickerContext ctx{&pt, &stats, &fz};
  core::RandomPicker picker(ctx);
  query::Query q;
  q.aggregates = {query::Aggregate::Count()};
  RandomEngine rng(1);
  EXPECT_TRUE(picker.Pick(q, 0, &rng, nullptr).parts.empty());
}

TEST(EdgeCases, MetricsWithEmptyExactAnswer) {
  query::Query q;
  q.aggregates = {query::Aggregate::Count()};
  query::QueryAnswer exact, est;
  auto m = query::ComputeErrorMetrics(q, exact, est);
  EXPECT_DOUBLE_EQ(m.avg_rel_error, 0.0);
  EXPECT_DOUBLE_EQ(m.missed_groups, 0.0);
}

TEST(EdgeCases, CombineWeightedEmptySelection) {
  auto bundle = workload::MakeAria(500, 5);
  storage::PartitionedTable pt(bundle.table, 4);
  const storage::ResidentShardedSource flat_src(pt);
  query::Query q;
  q.aggregates = {query::Aggregate::Count()};
  auto answers = query::EvaluateAllPartitions(q, flat_src);
  auto est = query::CombineWeighted(q, answers, {});
  EXPECT_TRUE(est.empty());
}

TEST(EdgeCases, ZipfSingleValue) {
  ZipfSampler z(1, 1.0);
  RandomEngine rng(1);
  EXPECT_EQ(z.Sample(&rng), 0u);
  EXPECT_DOUBLE_EQ(z.Pmf(0), 1.0);
}

TEST(EdgeCases, ClusterSelectIdenticalFeatures) {
  // All partitions identical: the degenerate path must still produce the
  // requested number of exemplars with total weight == member count.
  featurize::FeatureMatrix fm(10, 4);  // all zeros
  storage::Schema schema({{"x", storage::ColumnType::kNumeric}});
  stats::TableStats empty_stats;
  auto fs = featurize::FeatureSchema::Build(schema, empty_stats);
  std::vector<size_t> members(10);
  std::iota(members.begin(), members.end(), 0);
  RandomEngine rng(2);
  // Note: schema/features dims differ; ClusterSelect only reads dims via
  // the schema, which here yields no varying dimension -> degenerate path.
  featurize::FeatureMatrix sized(10, fs.num_features());
  auto sel = core::ClusterSelect(sized, fs, members, 4,
                                 core::ClusterSelectOptions{}, &rng);
  EXPECT_EQ(sel.parts.size(), 4u);
  double total = 0.0;
  for (const auto& wp : sel.parts) total += wp.weight;
  EXPECT_NEAR(total, 10.0, 1e-9);
}

TEST(EdgeCases, HistogramSingleRow) {
  auto h = sketch::EquiDepthHistogram::Build({42.0}, 10);
  EXPECT_DOUBLE_EQ(h.CdfLe(42.0), 1.0);
  EXPECT_DOUBLE_EQ(h.CdfLe(41.0), 0.0);
  auto b = h.RangeSelectivityBounds(40.0, 45.0);
  EXPECT_DOUBLE_EQ(b.upper, 1.0);
}

// ---------------------------------------------------------------------
// Scalar vs vectorized execution equivalence on randomized queries.
//
// The vectorized engine must be bit-identical to the scalar interpreter:
// same groups, and bitwise-equal (sum, count) accumulators, under any
// thread count. Queries are drawn adversarially: nested AND/OR/NOT trees,
// IN-lists (including empty and out-of-dictionary codes), all CompareOps,
// CASE-filtered aggregates, and compound arithmetic including division.

uint64_t BitsOf(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

query::PredicatePtr RandomPredicate(const storage::Table& t,
                                    RandomEngine* rng, int depth) {
  const auto& schema = t.schema();
  double roll = rng->NextDouble();
  if (depth <= 0 || roll < 0.45) {
    size_t col = rng->NextUint64(schema.num_columns());
    if (schema.IsCategorical(col)) {
      auto dict_size =
          static_cast<int64_t>(t.column(col).dict()->size());
      // 0 codes = empty IN-list; sets of 5+ take the membership-table
      // probe (AVX2 gather kernel) instead of the cmpeq chain, so both
      // dispatch tiers stay covered by the equivalence sweeps.
      size_t k = rng->NextBool(0.3) ? 5 + rng->NextUint64(8)
                                    : rng->NextUint64(5);
      std::vector<int32_t> codes;
      codes.reserve(k);
      for (size_t i = 0; i < k; ++i) {
        // Range [-1, dict_size]: occasionally absent codes.
        codes.push_back(
            static_cast<int32_t>(rng->NextInt64(-1, dict_size)));
      }
      return query::Predicate::CategoricalIn(col, std::move(codes));
    }
    auto op = static_cast<query::CompareOp>(rng->NextUint64(6));
    double v = t.column(col).NumericAt(rng->NextUint64(t.num_rows()));
    if (rng->NextBool(0.2)) v += rng->NextGaussian();
    return query::Predicate::NumericCompare(col, op, v);
  }
  if (roll < 0.60) return query::Predicate::Not(RandomPredicate(t, rng, depth - 1));
  size_t n_children = 2 + rng->NextUint64(2);
  std::vector<query::PredicatePtr> children;
  children.reserve(n_children);
  for (size_t i = 0; i < n_children; ++i) {
    children.push_back(RandomPredicate(t, rng, depth - 1));
  }
  return roll < 0.80 ? query::Predicate::And(std::move(children))
                     : query::Predicate::Or(std::move(children));
}

query::Query RandomQuery(const storage::Table& t, RandomEngine* rng) {
  const auto& schema = t.schema();
  std::vector<size_t> numeric_cols;
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (schema.IsNumeric(c)) numeric_cols.push_back(c);
  }
  auto random_numeric = [&]() {
    return numeric_cols[rng->NextUint64(numeric_cols.size())];
  };

  query::Query q;
  q.aggregates.push_back(query::Aggregate::Count());
  if (!numeric_cols.empty()) {
    q.aggregates.push_back(
        query::Aggregate::Sum(query::Expr::Column(random_numeric())));
    // Compound expression with division (exercises the div-by-zero guard
    // in both the AST walk and the compiled kernels).
    auto expr = query::Expr::Div(
        query::Expr::Mul(query::Expr::Column(random_numeric()),
                         query::Expr::Sub(query::Expr::Const(1.0),
                                          query::Expr::Column(random_numeric()))),
        query::Expr::Add(query::Expr::Column(random_numeric()),
                         query::Expr::Const(rng->NextBool(0.5) ? 0.0 : 2.0)));
    q.aggregates.push_back(query::Aggregate::Avg(std::move(expr)));
    q.aggregates.push_back(query::Aggregate::SumCase(
        query::Expr::Column(random_numeric()),
        RandomPredicate(t, rng, 1)));
    // Extrema: plain column MIN plus MAX of a compound expression, so
    // the extrema fold reads both a storage span and a computed value.
    q.aggregates.push_back(
        query::Aggregate::Min(query::Expr::Column(random_numeric())));
    q.aggregates.push_back(query::Aggregate::Max(
        query::Expr::Sub(query::Expr::Column(random_numeric()),
                         query::Expr::Const(rng->NextGaussian()))));
  }
  if (rng->NextBool(0.8)) q.predicate = RandomPredicate(t, rng, 3);
  double group_roll = rng->NextDouble();
  if (group_roll > 0.4) {
    std::set<size_t> group_cols;
    size_t want = group_roll > 0.8 ? 2 : 1;
    while (group_cols.size() < want) {
      group_cols.insert(rng->NextUint64(schema.num_columns()));
    }
    q.group_by.assign(group_cols.begin(), group_cols.end());
  }
  return q;
}

void ExpectAnswersBitIdentical(
    const std::vector<query::PartitionAnswer>& expected,
    const std::vector<query::PartitionAnswer>& actual, const char* label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t p = 0; p < expected.size(); ++p) {
    ASSERT_EQ(expected[p].size(), actual[p].size())
        << label << " partition " << p;
    for (const auto& [key, accs] : expected[p]) {
      auto it = actual[p].find(key);
      ASSERT_NE(it, actual[p].end()) << label << " partition " << p;
      ASSERT_EQ(accs.size(), it->second.size());
      for (size_t a = 0; a < accs.size(); ++a) {
        EXPECT_EQ(BitsOf(accs[a].sum), BitsOf(it->second[a].sum))
            << label << " partition " << p << " agg " << a;
        EXPECT_EQ(BitsOf(accs[a].count), BitsOf(it->second[a].count))
            << label << " partition " << p << " agg " << a;
        EXPECT_EQ(BitsOf(accs[a].min), BitsOf(it->second[a].min))
            << label << " partition " << p << " agg " << a;
        EXPECT_EQ(BitsOf(accs[a].max), BitsOf(it->second[a].max))
            << label << " partition " << p << " agg " << a;
      }
    }
  }
}

struct EquivCase {
  const char* name;
  workload::DatasetBundle (*make)(size_t, uint64_t);
  size_t rows;
  size_t partitions;  // deliberately not a multiple of 64 rows/partition
};

class ExecEquivalence : public ::testing::TestWithParam<EquivCase> {};

TEST_P(ExecEquivalence, RandomizedQueriesBitIdentical) {
  auto bundle = GetParam().make(GetParam().rows, /*seed=*/13);
  storage::PartitionedTable pt(bundle.table, GetParam().partitions);
  const storage::ResidentShardedSource flat_src(pt);
  RandomEngine rng(1234);
  for (int trial = 0; trial < 20; ++trial) {
    query::Query q = RandomQuery(*bundle.table, &rng);
    auto scalar = query::EvaluateAllPartitions(
        q, flat_src, {query::ExecPolicy::kScalar, 1});
    auto vec1 = query::EvaluateAllPartitions(
        q, flat_src, {query::ExecPolicy::kVectorized, 1});
    auto vec4 = query::EvaluateAllPartitions(
        q, flat_src, {query::ExecPolicy::kVectorized, 4});
    ExpectAnswersBitIdentical(scalar, vec1, "vectorized-1t");
    ExpectAnswersBitIdentical(scalar, vec4, "vectorized-4t");

    // Kernel equivalence: the scalar word-packing kernels and (when the
    // host supports them) the explicit AVX2 kernels must produce the same
    // bitmaps, hence bit-identical answers.
    query::ExecOptions packed;
    packed.policy = query::ExecPolicy::kVectorized;
    packed.num_threads = 1;
    packed.simd = runtime::SimdLevel::kNone;
    auto vec_packed = query::EvaluateAllPartitions(q, flat_src, packed);
    ExpectAnswersBitIdentical(scalar, vec_packed, "vectorized-scalar-pack");
    if (runtime::Avx2Available()) {
      packed.simd = runtime::SimdLevel::kAvx2;
      auto vec_avx2 = query::EvaluateAllPartitions(q, flat_src, packed);
      ExpectAnswersBitIdentical(scalar, vec_avx2, "vectorized-avx2");
    }

    // The finalized answers agree too (same combine path, same inputs).
    auto exact_s = query::ExactAnswer(q, scalar);
    auto exact_v = query::ExactAnswer(q, vec1);
    ASSERT_EQ(exact_s.size(), exact_v.size());
    for (const auto& [key, vals] : exact_s) {
      auto it = exact_v.find(key);
      ASSERT_NE(it, exact_v.end());
      for (size_t a = 0; a < vals.size(); ++a) {
        EXPECT_EQ(BitsOf(vals[a]), BitsOf(it->second[a]));
      }
    }

    // Bitmap-popcount row counting agrees with the scalar interpreter.
    EXPECT_EQ(query::CountMatchingRows(q.predicate, pt,
                                       {query::ExecPolicy::kScalar, 1}),
              query::CountMatchingRows(q.predicate, pt,
                                       {query::ExecPolicy::kVectorized, 4}));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, ExecEquivalence,
    ::testing::Values(EquivCase{"tpch", workload::MakeTpchStar, 4000, 7},
                      EquivCase{"aria", workload::MakeAria, 3000, 5},
                      EquivCase{"kdd", workload::MakeKdd, 2000, 3}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(ExecEquivalence, FeaturesInvariantToThreadCount) {
  // Parallel stats build and parallel featurization must be bit-identical
  // to the sequential versions for every feature (including the four
  // query-specific selectivity features).
  auto bundle = workload::MakeTpchStar(3000, 17);
  storage::PartitionedTable pt(bundle.table, 6);
  stats::StatsOptions opts1;
  opts1.num_threads = 1;
  stats::StatsOptions opts4 = opts1;
  opts4.num_threads = 4;
  auto stats1 = stats::StatsBuilder(opts1).Build(pt);
  auto stats4 = stats::StatsBuilder(opts4).Build(pt);
  featurize::Featurizer f1(bundle.table->schema(), &stats1, /*num_threads=*/1);
  featurize::Featurizer f4(bundle.table->schema(), &stats4, /*num_threads=*/4);
  RandomEngine rng(77);
  for (int trial = 0; trial < 5; ++trial) {
    query::Query q = RandomQuery(*bundle.table, &rng);
    auto sel1 = f1.ComputeSelectivity(q);
    auto sel4 = f4.ComputeSelectivity(q);
    ASSERT_EQ(sel1.size(), sel4.size());
    for (size_t p = 0; p < sel1.size(); ++p) {
      EXPECT_EQ(BitsOf(sel1[p].upper), BitsOf(sel4[p].upper));
      EXPECT_EQ(BitsOf(sel1[p].indep), BitsOf(sel4[p].indep));
      EXPECT_EQ(BitsOf(sel1[p].min_clause), BitsOf(sel4[p].min_clause));
      EXPECT_EQ(BitsOf(sel1[p].max_clause), BitsOf(sel4[p].max_clause));
      EXPECT_EQ(BitsOf(sel1[p].lower), BitsOf(sel4[p].lower));
    }
    auto fm1 = f1.BuildFeatures(q);
    auto fm4 = f4.BuildFeatures(q);
    ASSERT_EQ(fm1.data.size(), fm4.data.size());
    for (size_t i = 0; i < fm1.data.size(); ++i) {
      EXPECT_EQ(BitsOf(fm1.data[i]), BitsOf(fm4.data[i]));
    }
  }
}

// ---------------------------------------------------------------------
// Shard-count invariance: the same rows scanned flat (one shard) and
// sharded 1/2/8 ways must produce bit-identical per-partition answers —
// equal to the per-partition scalar oracle — under both exec policies and
// both assignment schemes. Sharding assigns whole partitions, so the global
// partition set (and each accumulator's addition order) never changes.

struct ShardCase {
  const char* name;
  size_t shards;
  storage::ShardAssignment assignment;
};

class ShardInvariance : public ::testing::TestWithParam<ShardCase> {};

TEST_P(ShardInvariance, BitIdenticalToFlatScan) {
  auto bundle = workload::MakeTpchStar(4000, /*seed=*/21);
  // 13 partitions: not a multiple of any shard count under test, so range
  // shards are uneven and hash shards can be empty.
  storage::PartitionedTable pt(bundle.table, 13);
  const storage::ResidentShardedSource flat_src(pt);
  storage::ShardedTable sharded(pt, GetParam().shards, GetParam().assignment);
  const storage::ResidentShardedSource sharded_src(sharded);
  ASSERT_EQ(sharded.num_partitions(), pt.num_partitions());

  RandomEngine rng(4242);
  for (int trial = 0; trial < 8; ++trial) {
    query::Query q = RandomQuery(*bundle.table, &rng);
    // The fan-out-free oracle: the scalar interpreter, partition by
    // partition, against which both the flat table (served as one shard)
    // and the sharded view are checked.
    std::vector<query::PartitionAnswer> oracle(pt.num_partitions());
    for (size_t i = 0; i < pt.num_partitions(); ++i) {
      oracle[i] = query::EvaluateOnPartition(q, pt.partition(i));
    }
    for (query::ExecPolicy policy :
         {query::ExecPolicy::kScalar, query::ExecPolicy::kVectorized}) {
      const bool scalar = policy == query::ExecPolicy::kScalar;
      query::ExecOptions opts;
      opts.policy = policy;
      opts.num_threads = 1;
      auto flat = query::EvaluateAllPartitions(q, flat_src, opts);
      ExpectAnswersBitIdentical(oracle, flat,
                                scalar ? "flat-scalar" : "flat-vectorized");
      opts.num_threads = 3;  // fan-out parallelism must not matter either
      auto fanned = query::EvaluateAllPartitions(q, sharded_src, opts);
      ExpectAnswersBitIdentical(
          flat, fanned, scalar ? "sharded-scalar" : "sharded-vectorized");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShardCounts, ShardInvariance,
    ::testing::Values(
        ShardCase{"range1", 1, storage::ShardAssignment::kRange},
        ShardCase{"range2", 2, storage::ShardAssignment::kRange},
        ShardCase{"range8", 8, storage::ShardAssignment::kRange},
        ShardCase{"hash2", 2, storage::ShardAssignment::kHash},
        ShardCase{"hash8", 8, storage::ShardAssignment::kHash}),
    [](const auto& info) { return std::string(info.param.name); });

// ---------------------------------------------------------------------
// Store-roundtrip invariance: spill → evict → rescan must be bit-exact
// with the resident scan, across shard counts, assignment schemes, cache
// budgets, both exec policies, and with/without prefetch — under budgets
// far smaller than the table, partitions (now: column segments) are
// genuinely evicted and reloaded mid-scan. Every scan through the
// PartitionSource seam is column-pruned (the evaluator passes the
// query's referenced-column hint), so this suite is also the pruned-
// cold-scan determinism contract.

struct StoreCase {
  const char* name;
  size_t shards;
  storage::ShardAssignment assignment;
  bool prefetch;
  /// Cache budget = table bytes / budget_divisor (1 = everything fits).
  size_t budget_divisor;
  /// Spill-time segment encoding; omitted = kAuto (the default policy).
  io::EncodingMode encoding = io::EncodingMode::kAuto;
};

class StoreRoundtripInvariance : public ::testing::TestWithParam<StoreCase> {
};

TEST_P(StoreRoundtripInvariance, ColdScanBitIdenticalToResident) {
  auto bundle = workload::MakeTpchStar(4000, /*seed=*/57);
  // 13 partitions: uneven shards, and partition sizes that are not a
  // multiple of 64 rows (bitmap tail words cross the file format).
  storage::PartitionedTable pt(bundle.table, 13);
  const storage::ResidentShardedSource flat_src(pt);

  const ScratchDir dir("ps3_prop_");
  io::PartitionStore::SpillOptions sopts;
  sopts.encoding = GetParam().encoding;
  ASSERT_TRUE(io::PartitionStore::Spill(pt, dir, sopts).ok());

  io::PartitionStore::Options opts;
  auto probe = io::PartitionStore::Open(dir, opts);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  opts.cache_budget_bytes =
      (*probe)->total_bytes() / GetParam().budget_divisor;
  auto store = io::PartitionStore::Open(dir, opts);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  runtime::QueryScheduler scheduler;
  io::PrefetchPipeline pipeline(store->get(), &scheduler);
  io::ColdShardedSource cold(store->get(), GetParam().shards,
                             GetParam().assignment,
                             GetParam().prefetch ? &pipeline : nullptr);
  ASSERT_EQ(cold.num_partitions(), pt.num_partitions());

  RandomEngine rng(31337);
  for (int trial = 0; trial < 6; ++trial) {
    query::Query q = RandomQuery(*bundle.table, &rng);
    for (query::ExecPolicy policy :
         {query::ExecPolicy::kScalar, query::ExecPolicy::kVectorized}) {
      query::ExecOptions eopts;
      eopts.policy = policy;
      eopts.num_threads = 1;
      auto resident = query::EvaluateAllPartitions(q, flat_src, eopts);
      eopts.num_threads = 3;  // lane count must not matter cold either
      auto first_cold = query::EvaluateAllPartitions(q, cold, eopts);
      ExpectAnswersBitIdentical(resident, first_cold, "cold-scan");
      // Rescan: a mix of cache hits and evict-forced reloads must not
      // change a bit either.
      auto rescan = query::EvaluateAllPartitions(q, cold, eopts);
      ExpectAnswersBitIdentical(resident, rescan, "cold-rescan");
    }
  }
  // Tight budgets genuinely forced out-of-core behavior; the roomy one
  // (divisor 1) legitimately may not evict.
  if (GetParam().budget_divisor > 1) {
    EXPECT_GT((*store)->cache().stats().evictions, 0u);
  }
  EXPECT_LE((*store)->cache().bytes_cached(), opts.cache_budget_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    Stores, StoreRoundtripInvariance,
    ::testing::Values(
        StoreCase{"range1", 1, storage::ShardAssignment::kRange, false, 5},
        StoreCase{"range2_prefetch", 2, storage::ShardAssignment::kRange,
                  true, 5},
        StoreCase{"range8", 8, storage::ShardAssignment::kRange, false, 5},
        StoreCase{"range8_prefetch", 8, storage::ShardAssignment::kRange,
                  true, 5},
        StoreCase{"hash8_prefetch", 8, storage::ShardAssignment::kHash, true,
                  5},
        // Budget sweep: everything fits / moderate pressure / brutal
        // (~1/20 of the table, segments churn constantly mid-scan).
        StoreCase{"range4_budget_full", 4, storage::ShardAssignment::kRange,
                  false, 1},
        StoreCase{"range4_prefetch_budget20", 4,
                  storage::ShardAssignment::kRange, true, 20},
        StoreCase{"hash4_budget20", 4, storage::ShardAssignment::kHash,
                  false, 20},
        // Encoding sweep: every forced segment encoding must rescan
        // bit-exactly too (kAuto is what every unsuffixed case above
        // exercises, since it is the spill default).
        StoreCase{"range4_raw", 4, storage::ShardAssignment::kRange, false,
                  5, io::EncodingMode::kRaw},
        StoreCase{"range4_bitpack_prefetch", 4,
                  storage::ShardAssignment::kRange, true, 5,
                  io::EncodingMode::kBitpack},
        StoreCase{"hash4_for_delta", 4, storage::ShardAssignment::kHash,
                  false, 5, io::EncodingMode::kForDelta}),
    [](const auto& info) { return std::string(info.param.name); });

// ---------------------------------------------------------------------
// Grouped-aggregation SIMD kernel vs its scalar reference. The AVX2
// dense group-id kernel only does integer id math (every sum stays
// scalar in the engine), so it must match the scalar kernel exactly.

#if defined(__x86_64__) || defined(__i386__)
TEST(AggregationKernels, DenseGroupIdsMatchScalar) {
  if (!runtime::Avx2Available()) GTEST_SKIP() << "no AVX2 on this host";
  RandomEngine rng(20260730);
  for (int trial = 0; trial < 10; ++trial) {
    const size_t n_rows = 65 + rng.NextUint64(900);  // crosses lane tails
    const size_t n_sel = 1 + rng.NextUint64(n_rows);
    std::vector<uint32_t> rows(n_sel);
    // Ascending selected rows, like a bitmap expansion.
    for (auto& r : rows) r = static_cast<uint32_t>(rng.NextUint64(n_rows));
    std::sort(rows.begin(), rows.end());

    // Dense group ids over 1-3 group columns.
    const size_t n_gcols = 1 + rng.NextUint64(3);
    std::vector<std::vector<int32_t>> codes(n_gcols,
                                            std::vector<int32_t>(n_rows));
    std::vector<const int32_t*> code_ptrs(n_gcols);
    std::vector<uint32_t> strides(n_gcols);
    uint32_t space = 1;
    for (size_t g = 0; g < n_gcols; ++g) {
      const uint32_t dict = 2 + static_cast<uint32_t>(rng.NextUint64(30));
      for (auto& c : codes[g]) {
        c = static_cast<int32_t>(rng.NextUint64(dict));
      }
      code_ptrs[g] = codes[g].data();
      strides[g] = space;
      space *= dict;
    }
    std::vector<uint32_t> ids_want(n_sel), ids_got(n_sel);
    runtime::DenseGroupIdsScalar(code_ptrs.data(), strides.data(), n_gcols,
                                 rows.data(), n_sel, ids_want.data());
    runtime::DenseGroupIdsAvx2(code_ptrs.data(), strides.data(), n_gcols,
                               rows.data(), n_sel, ids_got.data());
    for (size_t k = 0; k < n_sel; ++k) {
      EXPECT_EQ(ids_want[k], ids_got[k]) << "group id k=" << k;
    }
  }
}
#endif  // x86

// Compressed-segment decode kernels vs their scalar references: random
// widths 1..32, lengths crossing every lane tail, values saturating the
// width. BitPackScalar/BitUnpackScalar are the layout contract; the AVX2
// unpack and the FoR+delta prefix-sum reconstruct must match them
// bit-for-bit. Buffers carry kBitUnpackSlackBytes of readable slack past
// the payload, as the AVX2 kernel's contract requires (the reader's
// segment buffers do the same).
TEST(CompressionKernels, BitUnpackRoundtripAndForDeltaMatchScalar) {
  RandomEngine rng(20260808);
  for (int trial = 0; trial < 60; ++trial) {
    const unsigned width = 1 + static_cast<unsigned>(rng.NextUint64(32));
    const size_t n = 1 + rng.NextUint64(1200);
    const uint32_t mask =
        width == 32 ? 0xFFFFFFFFu : ((uint32_t{1} << width) - 1);
    std::vector<uint32_t> values(n);
    for (auto& v : values) {
      v = static_cast<uint32_t>(rng.NextUint64(uint64_t{1} << 32)) & mask;
    }
    if (n > 2) {
      values[0] = mask;  // saturate the width at both ends
      values[n - 1] = mask;
    }

    const size_t payload = runtime::BitPackedBytes(n, width);
    std::vector<uint8_t> packed(payload + runtime::kBitUnpackSlackBytes, 0);
    // Nonzero slack: the unpack kernels must mask it away.
    std::fill(packed.begin() + static_cast<long>(payload), packed.end(),
              0xAB);
    runtime::BitPackScalar(values.data(), n, width, packed.data());

    std::vector<uint32_t> want(n, 0);
    runtime::BitUnpackScalar(packed.data(), n, width, want.data());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(want[i], values[i])
          << "scalar roundtrip width=" << width << " i=" << i;
    }

    const uint32_t base =
        static_cast<uint32_t>(rng.NextUint64(uint64_t{1} << 32));
    std::vector<int32_t> rwant(n, 0);
    runtime::ForDeltaReconstructScalar(want.data(), n, base, rwant.data());

#if defined(__x86_64__) || defined(__i386__)
    if (runtime::Avx2Available()) {
      std::vector<uint32_t> got(n, 0);
      runtime::BitUnpackAvx2(packed.data(), n, width, got.data());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], want[i])
            << "avx2 unpack width=" << width << " i=" << i;
      }
      std::vector<int32_t> rgot(n, 0);
      runtime::ForDeltaReconstructAvx2(want.data(), n, base, rgot.data());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(rgot[i], rwant[i])
            << "avx2 reconstruct width=" << width << " i=" << i;
      }
    }
#endif  // x86
  }
}

// RandomQuery always adds a CASE-filtered aggregate, so it never runs the
// grouped loop with every aggregate unfiltered. Cover that shape
// directly, over sparse to dense selections and with MIN/MAX over bare
// columns: randomized filter-free GROUP BY queries must be bit-identical
// across scalar / pack64 / AVX2 at any thread count.
TEST(ExecEquivalence, FilterFreeGroupedSimdPathBitIdentical) {
  auto bundle = workload::MakeTpchStar(5000, /*seed=*/91);
  storage::PartitionedTable pt(bundle.table, 9);
  const storage::ResidentShardedSource flat_src(pt);
  const auto& schema = bundle.table->schema();
  std::vector<size_t> numeric_cols, cat_cols;
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    (schema.IsNumeric(c) ? numeric_cols : cat_cols).push_back(c);
  }
  ASSERT_FALSE(numeric_cols.empty());
  ASSERT_FALSE(cat_cols.empty());

  RandomEngine rng(777);
  for (int trial = 0; trial < 12; ++trial) {
    query::Query q;
    q.aggregates.push_back(query::Aggregate::Count());
    q.aggregates.push_back(query::Aggregate::Sum(query::Expr::Column(
        numeric_cols[rng.NextUint64(numeric_cols.size())])));
    q.aggregates.push_back(query::Aggregate::Avg(query::Expr::Mul(
        query::Expr::Column(
            numeric_cols[rng.NextUint64(numeric_cols.size())]),
        query::Expr::Const(1.0 + rng.NextDouble()))));
    q.aggregates.push_back(query::Aggregate::Min(query::Expr::Column(
        numeric_cols[rng.NextUint64(numeric_cols.size())])));
    q.aggregates.push_back(query::Aggregate::Max(query::Expr::Column(
        numeric_cols[rng.NextUint64(numeric_cols.size())])));
    q.group_by.push_back(cat_cols[rng.NextUint64(cat_cols.size())]);
    if (rng.NextBool(0.5) && cat_cols.size() > 1) {
      size_t extra = cat_cols[rng.NextUint64(cat_cols.size())];
      if (extra != q.group_by[0]) q.group_by.push_back(extra);
    }
    // Predicate selectivity spans sparse to dense, so the grouped loop
    // reads both materialized values (dense) and per-row evaluations
    // (sparse).
    if (rng.NextBool(0.7)) {
      q.predicate = RandomPredicate(*bundle.table, &rng, 2);
    }

    auto scalar = query::EvaluateAllPartitions(
        q, flat_src, {query::ExecPolicy::kScalar, 1});
    query::ExecOptions vopts;
    vopts.policy = query::ExecPolicy::kVectorized;
    vopts.num_threads = 1;
    vopts.simd = runtime::SimdLevel::kNone;
    ExpectAnswersBitIdentical(scalar,
                              query::EvaluateAllPartitions(q, flat_src, vopts),
                              "grouped-pack64");
    if (runtime::Avx2Available()) {
      vopts.simd = runtime::SimdLevel::kAvx2;
      ExpectAnswersBitIdentical(
          scalar, query::EvaluateAllPartitions(q, flat_src, vopts),
          "grouped-avx2");
      vopts.num_threads = 4;
      ExpectAnswersBitIdentical(
          scalar, query::EvaluateAllPartitions(q, flat_src, vopts),
          "grouped-avx2-4t");
    }
  }
}

// Categorical GROUP BYs whose id space (the product of the dictionary
// sizes, here 1,100 x 1,000) exceeds the evaluator's 2^20 dense cap are
// numbered through the key hash instead of dense ids. Each group holds
// four consecutive rows, so the per-group addition order shows, and the
// answers must still be bit-identical to the scalar interpreter under
// both kernel tiers, sparse and dense selections alike.
TEST(ExecEquivalence, CategoricalGroupByPastDenseCapBitIdentical) {
  constexpr size_t kCodesA = 1100, kCodesB = 1000, kRows = 4 * kCodesA;
  auto table = std::make_shared<storage::Table>(storage::Schema(
      {{"A", storage::ColumnType::kCategorical},
       {"B", storage::ColumnType::kCategorical},
       {"V", storage::ColumnType::kNumeric},
       {"W", storage::ColumnType::kNumeric}}));
  RandomEngine rng(4242);
  for (size_t r = 0; r < kRows; ++r) {
    table->AppendRow({rng.NextGaussian() * 1e3, rng.NextDouble()},
                     {"a" + std::to_string(r / 4),
                      "b" + std::to_string((r / 4 * 7) % kCodesB)});
  }
  table->Seal();
  ASSERT_EQ(table->column(0).dict()->size(), kCodesA);
  ASSERT_EQ(table->column(1).dict()->size(), kCodesB);
  ASSERT_GT(kCodesA * kCodesB, size_t{1} << 20);
  storage::PartitionedTable pt(table, 3);
  const storage::ResidentShardedSource flat_src(pt);

  query::Query q;
  q.aggregates.push_back(query::Aggregate::Count());
  q.aggregates.push_back(query::Aggregate::Sum(query::Expr::Column(2)));
  q.aggregates.push_back(query::Aggregate::Avg(query::Expr::Mul(
      query::Expr::Column(2), query::Expr::Column(3))));
  q.aggregates.push_back(query::Aggregate::SumCase(
      query::Expr::Column(2),
      query::Predicate::NumericCompare(3, query::CompareOp::kLt, 0.5)));
  q.aggregates.push_back(query::Aggregate::Min(query::Expr::Column(2)));
  q.aggregates.push_back(query::Aggregate::Max(query::Expr::Column(3)));
  q.group_by = {0, 1};
  // Unfiltered (dense values), then ~10% of rows (per-row evaluation).
  for (const double cut : {2.0, 0.1}) {
    q.predicate =
        query::Predicate::NumericCompare(3, query::CompareOp::kLt, cut);
    auto scalar = query::EvaluateAllPartitions(
        q, flat_src, {query::ExecPolicy::kScalar, 1});
    size_t groups = 0;
    for (const auto& part : scalar) groups += part.size();
    ASSERT_GT(groups, 100u);
    query::ExecOptions vopts;
    vopts.policy = query::ExecPolicy::kVectorized;
    vopts.num_threads = 1;
    vopts.simd = runtime::SimdLevel::kNone;
    ExpectAnswersBitIdentical(scalar,
                              query::EvaluateAllPartitions(q, flat_src, vopts),
                              "hashed-categorical-pack64");
    if (runtime::Avx2Available()) {
      vopts.simd = runtime::SimdLevel::kAvx2;
      ExpectAnswersBitIdentical(
          scalar, query::EvaluateAllPartitions(q, flat_src, vopts),
          "hashed-categorical-avx2");
    }
  }
}

TEST(EdgeCases, NotOfTruePredicateMatchesNothing) {
  auto bundle = workload::MakeAria(200, 7);
  storage::PartitionedTable pt(bundle.table, 2);
  const storage::ResidentShardedSource flat_src(pt);
  query::Query q;
  q.aggregates = {query::Aggregate::Count()};
  q.predicate = query::Predicate::Not(query::Predicate::True());
  auto exact = query::ExactAnswer(q, query::EvaluateAllPartitions(q, flat_src));
  EXPECT_TRUE(exact.empty());
}

// ---------------------------------------------------------------------
// Approximate-serving determinism. The contract extends the exact-path
// one: for a fixed picker (model included), seed, and sampling fraction,
// SubmitApproximate must produce a bit-identical ApproxAnswer — value,
// error estimate, partition counts, AND planned bytes_moved — across
// shard counts, shard assignments, prefetch on/off, cache budgets, and
// both ExecPolicy modes. And the degenerate ends must collapse to the
// exact path: fraction 1.0 with uniform weights (ExactPicker, or
// RandomPicker whose budget covers every candidate) equals the exact
// resident answer bit for bit with a zero error estimate.

void ExpectQueryAnswerBits(const query::QueryAnswer& expected,
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

void ExpectApproxBits(const runtime::ApproxAnswer& expected,
                      const runtime::ApproxAnswer& actual,
                      const char* label) {
  ExpectQueryAnswerBits(expected.value, actual.value, label);
  ExpectQueryAnswerBits(expected.error_estimate, actual.error_estimate,
                        label);
  EXPECT_EQ(expected.partitions_scanned, actual.partitions_scanned) << label;
  EXPECT_EQ(expected.partitions_total, actual.partitions_total) << label;
  EXPECT_EQ(expected.bytes_moved, actual.bytes_moved) << label;
}

/// Shared fixture: TPC-H analog with per-partition stats, featurization,
/// and a small trained PS3 model (the real funnel, not a stub), plus one
/// spilled copy of the table that each case reopens under its own cache
/// budget.
struct ApproxFixture {
  workload::DatasetBundle bundle;
  std::shared_ptr<storage::Table> table;
  std::unique_ptr<storage::PartitionedTable> pt;
  std::unique_ptr<stats::TableStats> stats;
  std::unique_ptr<featurize::Featurizer> featurizer;
  core::PickerContext ctx;
  core::Ps3Model model;
  std::vector<query::Query> queries;
  std::string dir;
  size_t total_bytes = 0;

  ApproxFixture() {
    bundle = workload::MakeTpchStar(4000, /*seed=*/57);
    auto sorted = bundle.table->SortedBy(bundle.default_sort);
    table = std::make_shared<storage::Table>(std::move(sorted).value());
    // 13 partitions: uneven shards for every swept shard count.
    pt = std::make_unique<storage::PartitionedTable>(table, 13);
    stats::StatsOptions sopts;
    for (const auto& name : bundle.spec.groupby_columns) {
      sopts.grouping_columns.push_back(
          static_cast<size_t>(table->schema().FindColumn(name)));
    }
    stats = std::make_unique<stats::TableStats>(
        stats::StatsBuilder(sopts).Build(*pt));
    featurizer =
        std::make_unique<featurize::Featurizer>(table->schema(), stats.get());
    ctx = {pt.get(), stats.get(), featurizer.get()};

    workload::QueryGenerator gen(table.get(), bundle.spec);
    core::TrainingData tdata =
        core::BuildTrainingData(ctx, gen.GenerateSet(12, 77));
    core::Ps3Options popts;
    popts.gbdt.num_trees = 8;
    popts.feature_selection.enabled = false;
    model = core::TrainPs3(ctx, tdata, popts);
    // Held-out generator queries: shapes the featurizer understands (the
    // learned funnel consults selectivity sketches per predicate).
    queries = gen.GenerateSet(4, 91);

    // The fixture lives for the whole run; its spill goes at exit.
    static const ScratchDir spill("ps3_approx_");
    dir = spill.path();
    EXPECT_TRUE(io::PartitionStore::Spill(*pt, dir).ok());
    io::PartitionStore::Options o;
    auto probe = io::PartitionStore::Open(dir, o);
    EXPECT_TRUE(probe.ok());
    total_bytes = (*probe)->total_bytes();
  }
};

ApproxFixture& SharedApproxFixture() {
  static ApproxFixture* f = new ApproxFixture();
  return *f;
}

TEST(ApproximateServing, BitIdenticalAcrossStoreConfigsAndPolicies) {
  ApproxFixture& fx = SharedApproxFixture();
  core::Ps3Picker ps3(fx.ctx, &fx.model);
  core::RandomFilterPicker rfilter(fx.ctx);
  const core::PartitionPicker* pickers[] = {&ps3, &rfilter};
  runtime::QueryScheduler scheduler;

  struct Cfg {
    const char* name;
    size_t shards;
    storage::ShardAssignment assignment;
    bool prefetch;
    size_t budget_divisor;
    query::ExecPolicy policy;
    int threads;
  };
  const Cfg cfgs[] = {
      // The reference: flat, roomy, scalar, single-lane.
      {"ref", 1, storage::ShardAssignment::kRange, false, 1,
       query::ExecPolicy::kScalar, 1},
      {"range4_vec", 4, storage::ShardAssignment::kRange, false, 1,
       query::ExecPolicy::kVectorized, 3},
      {"range7_prefetch_budget8", 7, storage::ShardAssignment::kRange, true,
       8, query::ExecPolicy::kVectorized, 3},
      {"hash4_budget8_scalar", 4, storage::ShardAssignment::kHash, false, 8,
       query::ExecPolicy::kScalar, 2},
      {"range13_prefetch", 13, storage::ShardAssignment::kRange, true, 1,
       query::ExecPolicy::kVectorized, 3},
  };

  // reference[q][p] filled by the first config, compared by the rest.
  std::vector<std::vector<runtime::ApproxAnswer>> reference(
      fx.queries.size());
  for (const Cfg& cfg : cfgs) {
    io::PartitionStore::Options o;
    o.cache_budget_bytes =
        std::max<size_t>(fx.total_bytes / cfg.budget_divisor, 1);
    auto store = io::PartitionStore::Open(fx.dir, o);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    io::PrefetchPipeline pipeline(store->get(), &scheduler);
    io::ColdShardedSource cold(store->get(), cfg.shards, cfg.assignment,
                               cfg.prefetch ? &pipeline : nullptr);

    query::ExecOptions eopts;
    eopts.policy = cfg.policy;
    eopts.num_threads = cfg.threads;
    for (size_t qi = 0; qi < fx.queries.size(); ++qi) {
      for (size_t pi = 0; pi < 2; ++pi) {
        runtime::ApproxOptions aopts;
        aopts.sampling_fraction = 0.4;
        aopts.seed = 500 + qi;
        runtime::ApproxAnswer ans =
            scheduler
                .SubmitApproximate(fx.queries[qi], cold, *pickers[pi], aopts,
                                   eopts)
                .get();
        if (reference[qi].size() <= pi) {
          EXPECT_LE(ans.partitions_scanned, ans.partitions_total);
          reference[qi].push_back(std::move(ans));
        } else {
          ExpectApproxBits(reference[qi][pi], ans, cfg.name);
        }
      }
    }
    pipeline.Drain();
  }
}

TEST(ApproximateServing, FullFractionUniformWeightsEqualsExact) {
  ApproxFixture& fx = SharedApproxFixture();
  core::ExactPicker exact_picker(fx.pt->num_partitions());
  core::RandomPicker random_picker(fx.ctx);
  runtime::QueryScheduler scheduler;

  io::PartitionStore::Options o;
  o.cache_budget_bytes = std::max<size_t>(fx.total_bytes / 5, 1);
  auto store = io::PartitionStore::Open(fx.dir, o);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  o.cache_budget_bytes = 16 * fx.total_bytes;
  auto roomy = io::PartitionStore::Open(fx.dir, o);
  ASSERT_TRUE(roomy.ok()) << roomy.status().ToString();
  // The spill read on demand through a tight cache, and through a roomy
  // one with the whole plan staged ahead on the prefetch lanes. Every
  // prefetched scan starts cold, so staging has the plan to fetch.
  io::PrefetchPipeline pipeline(roomy->get(), &scheduler);
  io::ColdShardedSource cold(store->get(), 4);
  io::ColdShardedSource prefetched(roomy->get(), 4,
                                   storage::ShardAssignment::kRange,
                                   &pipeline);
  auto scan_from = [&](const io::ColdShardedSource* src) {
    if (src == &prefetched) {
      pipeline.Drain();
      (*roomy)->cache().Clear();
    }
    return src;
  };

  for (size_t qi = 0; qi < fx.queries.size(); ++qi) {
    const query::Query& q = fx.queries[qi];
    for (query::ExecPolicy policy :
         {query::ExecPolicy::kScalar, query::ExecPolicy::kVectorized}) {
      query::ExecOptions eopts;
      eopts.policy = policy;
      eopts.num_threads = 2;
      const query::QueryAnswer exact =
          query::ExactAnswer(q, query::EvaluateAllPartitions(
                                    q, storage::ResidentShardedSource(*fx.pt),
                                    eopts));
      for (const io::ColdShardedSource* src : {&cold, &prefetched}) {
        const char* label = src == &cold ? "cold" : "prefetched";
        ExpectQueryAnswerBits(
            exact, scheduler.Submit(q, *scan_from(src), eopts).get(), label);
        // At fraction 1.0 the uniform budget covers every candidate, so
        // both pickers return all partitions with weight 1 — the combine
        // degenerates to ExactAnswer and the error estimate vanishes.
        for (const core::PartitionPicker* picker :
             {static_cast<const core::PartitionPicker*>(&exact_picker),
              static_cast<const core::PartitionPicker*>(&random_picker)}) {
          SCOPED_TRACE(std::string(label) + " " + picker->name());
          runtime::ApproxOptions aopts;
          aopts.sampling_fraction = 1.0;
          aopts.seed = 11 + qi;
          runtime::ApproxAnswer ans =
              scheduler
                  .SubmitApproximate(q, *scan_from(src), *picker, aopts, eopts)
                  .get();
          ExpectQueryAnswerBits(exact, ans.value, picker->name().c_str());
          EXPECT_EQ(ans.partitions_scanned, fx.pt->num_partitions());
          for (const auto& [key, errs] : ans.error_estimate) {
            for (double e : errs) EXPECT_EQ(e, 0.0);
          }
        }
      }
    }
  }
  pipeline.Drain();
  EXPECT_GT(pipeline.stats().staged, 0u);
}

TEST(DegradedServing, BitIdenticalAcrossStoreConfigsAndPolicies) {
  // The degraded-serving property: with the same partitions lost, the
  // kApproximate answer — value, error surface, and accounting — is a
  // pure function of (query, lost set), bit-identical across shard
  // counts, shard assignments, prefetch on/off, cache budgets, exec
  // policies, and thread counts; and it equals the Horvitz–Thompson
  // reweighted combine computed directly from resident scalar partials.
  ApproxFixture& fx = SharedApproxFixture();
  runtime::QueryScheduler scheduler;

  const std::set<size_t> lost = {3, 8, 12};
  const size_t n = fx.pt->num_partitions();
  std::vector<size_t> reachable;
  for (size_t p = 0; p < n; ++p) {
    if (lost.count(p) == 0) reachable.push_back(p);
  }
  const std::vector<query::WeightedPartition> sel =
      query::DegradedSelection(reachable, n);

  struct Cfg {
    const char* name;
    size_t shards;
    storage::ShardAssignment assignment;
    bool prefetch;
    size_t budget_divisor;
    query::ExecPolicy policy;
    int threads;
  };
  const Cfg cfgs[] = {
      {"flat_scalar", 1, storage::ShardAssignment::kRange, false, 1,
       query::ExecPolicy::kScalar, 1},
      {"range4_vec", 4, storage::ShardAssignment::kRange, false, 1,
       query::ExecPolicy::kVectorized, 3},
      {"hash4_budget8", 4, storage::ShardAssignment::kHash, false, 8,
       query::ExecPolicy::kScalar, 2},
      {"range7_prefetch", 7, storage::ShardAssignment::kRange, true, 1,
       query::ExecPolicy::kVectorized, 3},
  };

  std::vector<runtime::ApproxAnswer> reference;
  for (const Cfg& cfg : cfgs) {
    io::PartitionStore::Options o;
    o.cache_budget_bytes =
        std::max<size_t>(fx.total_bytes / cfg.budget_divisor, 1);
    io::FaultPlan plan;
    plan.lost_partitions = lost;
    o.faults = std::make_shared<io::FaultInjector>(std::move(plan));
    auto store = io::PartitionStore::Open(fx.dir, o);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    io::PrefetchPipeline pipeline(store->get(), &scheduler);
    io::ColdShardedSource cold(store->get(), cfg.shards, cfg.assignment,
                               cfg.prefetch ? &pipeline : nullptr);

    query::ExecOptions eopts;
    eopts.policy = cfg.policy;
    eopts.num_threads = cfg.threads;
    runtime::SubmitOptions submit;
    submit.degraded_mode = runtime::DegradedMode::kApproximate;
    for (size_t qi = 0; qi < fx.queries.size(); ++qi) {
      runtime::ApproxAnswer ans =
          scheduler.SubmitDegradable(fx.queries[qi], cold, submit, eopts)
              .get();
      EXPECT_EQ(ans.partitions_scanned, reachable.size()) << cfg.name;
      EXPECT_EQ(ans.partitions_total, n) << cfg.name;
      if (reference.size() <= qi) {
        // Independent reference: the same HT combine from resident
        // scalar partials — the degraded path must reproduce it exactly.
        query::ExecOptions ref;
        ref.policy = query::ExecPolicy::kScalar;
        ref.num_threads = 1;
        query::ApproxCombined expected = query::CombineWeightedWithError(
            fx.queries[qi],
            query::EvaluateAllPartitions(
                fx.queries[qi], storage::ResidentShardedSource(*fx.pt), ref),
            sel);
        ExpectQueryAnswerBits(expected.value, ans.value, cfg.name);
        ExpectQueryAnswerBits(expected.error, ans.error_estimate, cfg.name);
        reference.push_back(std::move(ans));
      } else {
        ExpectApproxBits(reference[qi], ans, cfg.name);
      }
    }
    pipeline.Drain();
    // Degraded planning routes around the lost set up front: no load
    // was ever even attempted against a lost partition.
    EXPECT_EQ((*store)->store_stats().lost_errors, 0u) << cfg.name;
  }
}

}  // namespace
}  // namespace ps3
