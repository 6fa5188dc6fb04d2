#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>

#include "query/bitmap_evaluator.h"
#include "query/compiler.h"
#include "query/evaluator.h"
#include "query/metrics.h"
#include "query/query.h"
#include "query/selection_bitmap.h"
#include "storage/partition_source.h"
#include "storage/table.h"

namespace ps3::query {
namespace {

using storage::ColumnType;
using storage::PartitionedTable;
using storage::Schema;
using storage::Table;

/// 10 partitions x 10 rows. x = row index (0..99), y = x^2, cat cycles
/// a/b/c with "a" twice as common.
std::shared_ptr<Table> MakeTable() {
  Schema schema({{"x", ColumnType::kNumeric},
                 {"y", ColumnType::kNumeric},
                 {"cat", ColumnType::kCategorical}});
  auto t = std::make_shared<Table>(schema);
  const char* cats[4] = {"a", "b", "a", "c"};
  for (int i = 0; i < 100; ++i) {
    t->AppendRow({double(i), double(i) * double(i)}, {cats[i % 4]});
  }
  t->Seal();
  return t;
}

TEST(Expr, Arithmetic) {
  auto t = MakeTable();
  PartitionedTable pt(t, 1);
  auto part = pt.partition(0);
  // (x + 1) * (y - x) at row 3: (3+1)*(9-3) = 24
  auto e = Expr::Mul(Expr::Add(Expr::Column(0), Expr::Const(1.0)),
                     Expr::Sub(Expr::Column(1), Expr::Column(0)));
  EXPECT_DOUBLE_EQ(e->Eval(part, 3), 24.0);
}

TEST(Expr, DivByZeroIsZero) {
  auto t = MakeTable();
  PartitionedTable pt(t, 1);
  auto e = Expr::Div(Expr::Const(5.0), Expr::Column(0));
  EXPECT_DOUBLE_EQ(e->Eval(pt.partition(0), 0), 0.0);  // x==0 at row 0
  EXPECT_DOUBLE_EQ(e->Eval(pt.partition(0), 5), 1.0);
}

TEST(Expr, CollectColumns) {
  std::set<size_t> cols;
  Expr::Mul(Expr::Column(2), Expr::Add(Expr::Column(0), Expr::Const(1)))
      ->CollectColumns(&cols);
  EXPECT_EQ(cols, (std::set<size_t>{0, 2}));
}

TEST(Predicate, NumericOps) {
  auto t = MakeTable();
  PartitionedTable pt(t, 1);
  auto part = pt.partition(0);
  EXPECT_TRUE(
      Predicate::NumericCompare(0, CompareOp::kLt, 5.0)->Matches(part, 4));
  EXPECT_FALSE(
      Predicate::NumericCompare(0, CompareOp::kLt, 5.0)->Matches(part, 5));
  EXPECT_TRUE(
      Predicate::NumericCompare(0, CompareOp::kLe, 5.0)->Matches(part, 5));
  EXPECT_TRUE(
      Predicate::NumericCompare(0, CompareOp::kEq, 7.0)->Matches(part, 7));
  EXPECT_TRUE(
      Predicate::NumericCompare(0, CompareOp::kNe, 7.0)->Matches(part, 8));
}

TEST(Predicate, CategoricalIn) {
  auto t = MakeTable();
  PartitionedTable pt(t, 1);
  auto part = pt.partition(0);
  int32_t a = t->column(2).dict()->Find("a");
  int32_t c = t->column(2).dict()->Find("c");
  auto p = Predicate::CategoricalIn(2, {a, c});
  EXPECT_TRUE(p->Matches(part, 0));   // "a"
  EXPECT_FALSE(p->Matches(part, 1));  // "b"
  EXPECT_TRUE(p->Matches(part, 3));   // "c"
}

TEST(Predicate, BooleanCombinators) {
  auto t = MakeTable();
  PartitionedTable pt(t, 1);
  auto part = pt.partition(0);
  auto lt10 = Predicate::NumericCompare(0, CompareOp::kLt, 10.0);
  auto gt5 = Predicate::NumericCompare(0, CompareOp::kGt, 5.0);
  EXPECT_TRUE(Predicate::And({lt10, gt5})->Matches(part, 7));
  EXPECT_FALSE(Predicate::And({lt10, gt5})->Matches(part, 3));
  EXPECT_TRUE(Predicate::Or({lt10, gt5})->Matches(part, 3));
  EXPECT_FALSE(Predicate::Not(lt10)->Matches(part, 3));
  EXPECT_EQ(Predicate::And({lt10, gt5})->NumClauses(), 2u);
  EXPECT_EQ(Predicate::Not(Predicate::Or({lt10, gt5}))->NumClauses(), 2u);
}

TEST(Query, UsedColumnsAndToString) {
  Query q;
  q.aggregates = {Aggregate::Sum(Expr::Column(1), "sum_y")};
  q.predicate = Predicate::NumericCompare(0, CompareOp::kGt, 3.0);
  q.group_by = {2};
  EXPECT_EQ(q.UsedColumns(), (std::set<size_t>{0, 1, 2}));
  Schema schema({{"x", ColumnType::kNumeric},
                 {"y", ColumnType::kNumeric},
                 {"cat", ColumnType::kCategorical}});
  std::string s = q.ToString(schema);
  EXPECT_NE(s.find("SUM(y)"), std::string::npos);
  EXPECT_NE(s.find("GROUP BY cat"), std::string::npos);
}

TEST(Evaluator, SumNoGroupBy) {
  auto t = MakeTable();
  PartitionedTable pt(t, 10);
  const storage::ResidentShardedSource flat_src(pt);
  Query q;
  q.aggregates = {Aggregate::Sum(Expr::Column(0), "sum_x")};
  auto answers = EvaluateAllPartitions(q, flat_src);
  auto exact = ExactAnswer(q, answers);
  ASSERT_EQ(exact.size(), 1u);
  EXPECT_DOUBLE_EQ(exact.begin()->second[0], 99.0 * 100.0 / 2.0);
}

TEST(Evaluator, CountWithPredicate) {
  auto t = MakeTable();
  PartitionedTable pt(t, 10);
  const storage::ResidentShardedSource flat_src(pt);
  Query q;
  q.aggregates = {Aggregate::Count()};
  q.predicate = Predicate::NumericCompare(0, CompareOp::kLt, 30.0);
  auto exact = ExactAnswer(q, EvaluateAllPartitions(q, flat_src));
  ASSERT_EQ(exact.size(), 1u);
  EXPECT_DOUBLE_EQ(exact.begin()->second[0], 30.0);
}

TEST(Evaluator, GroupByCategorical) {
  auto t = MakeTable();
  PartitionedTable pt(t, 10);
  const storage::ResidentShardedSource flat_src(pt);
  Query q;
  q.aggregates = {Aggregate::Count()};
  q.group_by = {2};
  auto exact = ExactAnswer(q, EvaluateAllPartitions(q, flat_src));
  ASSERT_EQ(exact.size(), 3u);  // a, b, c
  double total = 0.0;
  for (const auto& [key, vals] : exact) total += vals[0];
  EXPECT_DOUBLE_EQ(total, 100.0);
  // "a" occurs 50 times (positions 0 and 2 mod 4).
  int32_t a = t->column(2).dict()->Find("a");
  GroupKey ka{a};
  ASSERT_TRUE(exact.count(ka));
  EXPECT_DOUBLE_EQ(exact.at(ka)[0], 50.0);
}

TEST(Evaluator, AvgIsWeightedCorrectly) {
  auto t = MakeTable();
  PartitionedTable pt(t, 10);
  const storage::ResidentShardedSource flat_src(pt);
  Query q;
  q.aggregates = {Aggregate::Avg(Expr::Column(0), "avg_x")};
  auto answers = EvaluateAllPartitions(q, flat_src);
  // Take partitions 0 and 9 with weight 5 each: avg must be the weighted
  // sum / weighted count = plain average of the two partitions' rows,
  // not the average of their averages scaled.
  std::vector<WeightedPartition> sel{{0, 5.0}, {9, 5.0}};
  auto approx = CombineWeighted(q, answers, sel);
  ASSERT_EQ(approx.size(), 1u);
  // rows 0-9 and 90-99 -> mean = (4.5 + 94.5)/2
  EXPECT_DOUBLE_EQ(approx.begin()->second[0], 49.5);
}

TEST(Evaluator, WeightedSumScalesUp) {
  auto t = MakeTable();
  PartitionedTable pt(t, 10);
  const storage::ResidentShardedSource flat_src(pt);
  Query q;
  q.aggregates = {Aggregate::Sum(Expr::Column(0), "sum_x")};
  auto answers = EvaluateAllPartitions(q, flat_src);
  // Uniform 50% sample of partitions (evens) with HT weight 2 is unbiased
  // here by symmetry up to the layout; just check the arithmetic.
  std::vector<WeightedPartition> sel;
  double expected = 0.0;
  for (size_t p = 0; p < 10; p += 2) {
    sel.push_back({p, 2.0});
    for (const auto& [key, accs] : answers[p]) expected += 2.0 * accs[0].sum;
  }
  auto approx = CombineWeighted(q, answers, sel);
  EXPECT_DOUBLE_EQ(approx.begin()->second[0], expected);
}

TEST(Evaluator, CombineWithErrorWeightOneEqualsExact) {
  auto t = MakeTable();
  PartitionedTable pt(t, 10);
  const storage::ResidentShardedSource flat_src(pt);
  Query q;
  q.aggregates = {Aggregate::Sum(Expr::Column(0), "sum_x"),
                  Aggregate::Count("n"),
                  Aggregate::Avg(Expr::Column(1), "avg_y")};
  q.group_by = {2};
  auto answers = EvaluateAllPartitions(q, flat_src);
  auto exact = ExactAnswer(q, answers);
  std::vector<WeightedPartition> sel;
  for (size_t p = 0; p < 10; ++p) sel.push_back({p, 1.0});
  // A full selection at uniform weight 1 is the exact plan: values must
  // be bit-identical to ExactAnswer and every error entry exactly zero
  // (weight-1 strata contribute no sampling variance).
  auto combined = CombineWeightedWithError(q, answers, sel);
  ASSERT_EQ(combined.value.size(), exact.size());
  ASSERT_EQ(combined.error.size(), exact.size());
  for (const auto& [key, vals] : exact) {
    const auto& got = combined.value.at(key);
    ASSERT_EQ(got.size(), vals.size());
    for (size_t a = 0; a < vals.size(); ++a) {
      uint64_t want_bits, got_bits;
      std::memcpy(&want_bits, &vals[a], sizeof(want_bits));
      std::memcpy(&got_bits, &got[a], sizeof(got_bits));
      EXPECT_EQ(want_bits, got_bits) << "aggregate " << a;
    }
    for (double e : combined.error.at(key)) EXPECT_EQ(e, 0.0);
  }
}

TEST(Evaluator, CombineWithErrorMatchesHandComputedVariance) {
  auto t = MakeTable();
  PartitionedTable pt(t, 10);
  const storage::ResidentShardedSource flat_src(pt);
  Query q;
  q.aggregates = {Aggregate::Sum(Expr::Column(0), "sum_x"),
                  Aggregate::Count("n")};
  auto answers = EvaluateAllPartitions(q, flat_src);
  // Partition p holds rows 10p..10p+9, so sum_p(x) = 100p + 45 and
  // count_p = 10: small enough to hand-compute the HT/Poisson estimator
  // V = sum_{w_j > 1} (1 - 1/w_j) * (w_j * t_j)^2 independently of the
  // accumulators the implementation folds.
  std::vector<WeightedPartition> sel{{1, 2.0}, {3, 4.0}, {5, 1.0}};
  auto combined = CombineWeightedWithError(q, answers, sel);
  ASSERT_EQ(combined.value.size(), 1u);
  const double s1 = 145.0, s3 = 345.0, s5 = 545.0;
  EXPECT_DOUBLE_EQ(combined.value.begin()->second[0],
                   2.0 * s1 + 4.0 * s3 + 1.0 * s5);
  EXPECT_DOUBLE_EQ(combined.value.begin()->second[1],
                   2.0 * 10 + 4.0 * 10 + 1.0 * 10);
  const double vs = 0.5 * (2.0 * s1) * (2.0 * s1) +
                    0.75 * (4.0 * s3) * (4.0 * s3);  // weight-1 drops out
  const double vc = 0.5 * 20.0 * 20.0 + 0.75 * 40.0 * 40.0;
  EXPECT_DOUBLE_EQ(combined.error.begin()->second[0], std::sqrt(vs));
  EXPECT_DOUBLE_EQ(combined.error.begin()->second[1], std::sqrt(vc));
}

TEST(Evaluator, CombineWithErrorAvgUsesDeltaMethod) {
  auto t = MakeTable();
  PartitionedTable pt(t, 10);
  const storage::ResidentShardedSource flat_src(pt);
  Query q;
  q.aggregates = {Aggregate::Avg(Expr::Column(0), "avg_x")};
  auto answers = EvaluateAllPartitions(q, flat_src);
  std::vector<WeightedPartition> sel{{1, 2.0}, {3, 4.0}, {5, 1.0}};
  auto combined = CombineWeightedWithError(q, answers, sel);
  ASSERT_EQ(combined.value.size(), 1u);
  // AVG is a ratio S/C of two correlated HT totals; its standard error
  // comes from the delta method:
  //   Var(S/C) ~= (Var(S) - 2 r Cov(S,C) + r^2 Var(C)) / C^2,  r = S/C.
  const double s1 = 145.0, s3 = 345.0, s5 = 545.0;
  const double S = 2.0 * s1 + 4.0 * s3 + 1.0 * s5;
  const double C = 20.0 + 40.0 + 10.0;
  const double r = S / C;
  const double vs = 0.5 * (2.0 * s1) * (2.0 * s1) +
                    0.75 * (4.0 * s3) * (4.0 * s3);
  const double vc = 0.5 * 20.0 * 20.0 + 0.75 * 40.0 * 40.0;
  const double cov = 0.5 * (2.0 * s1) * 20.0 + 0.75 * (4.0 * s3) * 40.0;
  const double var = (vs - 2.0 * r * cov + r * r * vc) / (C * C);
  EXPECT_DOUBLE_EQ(combined.value.begin()->second[0], r);
  EXPECT_DOUBLE_EQ(combined.error.begin()->second[0], std::sqrt(var));
}

TEST(Evaluator, CombineWithErrorMinMaxErrorIsZero) {
  auto t = MakeTable();
  PartitionedTable pt(t, 10);
  const storage::ResidentShardedSource flat_src(pt);
  Query q;
  q.aggregates = {Aggregate::Min(Expr::Column(0), "min_x"),
                  Aggregate::Max(Expr::Column(0), "max_x")};
  auto answers = EvaluateAllPartitions(q, flat_src);
  // Extrema are one-sided bounds under sampling, not reweighted
  // estimates: the error contract pins them to exactly zero even at
  // large weights, and the values stay weight-free.
  std::vector<WeightedPartition> sel{{2, 5.0}, {7, 5.0}};
  auto combined = CombineWeightedWithError(q, answers, sel);
  ASSERT_EQ(combined.value.size(), 1u);
  EXPECT_DOUBLE_EQ(combined.value.begin()->second[0], 20.0);
  EXPECT_DOUBLE_EQ(combined.value.begin()->second[1], 79.0);
  EXPECT_EQ(combined.error.begin()->second[0], 0.0);
  EXPECT_EQ(combined.error.begin()->second[1], 0.0);
}

TEST(Evaluator, CanonicalizeSelectionPinsCombineOrder) {
  auto t = MakeTable();
  PartitionedTable pt(t, 10);
  const storage::ResidentShardedSource flat_src(pt);
  Query q;
  q.aggregates = {Aggregate::Sum(Expr::Column(1), "sum_y")};
  q.group_by = {2};
  auto answers = EvaluateAllPartitions(q, flat_src);
  std::vector<WeightedPartition> shuffled{{7, 2.5}, {0, 3.0}, {4, 1.5}};
  std::vector<WeightedPartition> sorted{{0, 3.0}, {4, 1.5}, {7, 2.5}};
  CanonicalizeSelection(&shuffled);
  ASSERT_EQ(shuffled.size(), 3u);
  for (size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(shuffled[i].partition, sorted[i].partition);
    EXPECT_DOUBLE_EQ(shuffled[i].weight, sorted[i].weight);
  }
  // After canonicalization the FP merge order is pinned, so any
  // permutation of the same picks combines to bit-identical answers.
  auto a = CombineWeightedWithError(q, answers, shuffled);
  auto b = CombineWeightedWithError(q, answers, sorted);
  ASSERT_EQ(a.value.size(), b.value.size());
  for (const auto& [key, vals] : a.value) {
    const auto& other = b.value.at(key);
    for (size_t i = 0; i < vals.size(); ++i) {
      uint64_t ab, bb;
      std::memcpy(&ab, &vals[i], sizeof(ab));
      std::memcpy(&bb, &other[i], sizeof(bb));
      EXPECT_EQ(ab, bb);
    }
  }
}

TEST(Evaluator, CaseFilterAggregates) {
  auto t = MakeTable();
  PartitionedTable pt(t, 5);
  const storage::ResidentShardedSource flat_src(pt);
  int32_t b = t->column(2).dict()->Find("b");
  Query q;
  q.aggregates = {
      Aggregate{AggFunc::kCount, nullptr,
                Predicate::CategoricalIn(2, {b}), "count_b"},
      Aggregate::Count("count_all"),
  };
  auto exact = ExactAnswer(q, EvaluateAllPartitions(q, flat_src));
  ASSERT_EQ(exact.size(), 1u);
  EXPECT_DOUBLE_EQ(exact.begin()->second[0], 25.0);
  EXPECT_DOUBLE_EQ(exact.begin()->second[1], 100.0);
}

TEST(Evaluator, MinMaxBasicAndPolicyAgreement) {
  auto t = MakeTable();
  PartitionedTable pt(t, 5);
  const storage::ResidentShardedSource flat_src(pt);
  Query q;
  q.aggregates = {Aggregate::Min(Expr::Column(0), "min_x"),
                  Aggregate::Max(Expr::Column(1), "max_y")};
  // Restrict to rows 10..89: extrema are interior, not the data bounds.
  q.predicate = Predicate::And(
      {Predicate::NumericCompare(0, CompareOp::kGe, 10.0),
       Predicate::NumericCompare(0, CompareOp::kLt, 90.0)});
  for (ExecPolicy policy : {ExecPolicy::kScalar, ExecPolicy::kVectorized}) {
    auto exact =
        ExactAnswer(q, EvaluateAllPartitions(q, flat_src, {policy, 1}));
    ASSERT_EQ(exact.size(), 1u);
    EXPECT_DOUBLE_EQ(exact.begin()->second[0], 10.0);
    EXPECT_DOUBLE_EQ(exact.begin()->second[1], 89.0 * 89.0);
  }
}

TEST(Evaluator, MinMaxCombineIsWeightFree) {
  auto t = MakeTable();
  PartitionedTable pt(t, 10);
  const storage::ResidentShardedSource flat_src(pt);
  Query q;
  q.aggregates = {Aggregate::Min(Expr::Column(0), "min_x"),
                  Aggregate::Max(Expr::Column(0), "max_x")};
  auto answers = EvaluateAllPartitions(q, flat_src);
  // Partition weights scale sums and counts, never extrema: MIN/MAX over
  // the weighted union are still the smallest/largest observed values.
  std::vector<WeightedPartition> sel{{2, 5.0}, {7, 5.0}};
  auto approx = CombineWeighted(q, answers, sel);
  ASSERT_EQ(approx.size(), 1u);
  EXPECT_DOUBLE_EQ(approx.begin()->second[0], 20.0);  // rows 20-29, 70-79
  EXPECT_DOUBLE_EQ(approx.begin()->second[1], 79.0);
}

TEST(Evaluator, MinMaxOverEmptyRowSetIsZero) {
  auto t = MakeTable();
  PartitionedTable pt(t, 2);
  const storage::ResidentShardedSource flat_src(pt);
  Query q;
  q.aggregates = {Aggregate::Min(Expr::Column(0), "min_x"),
                  Aggregate::Max(Expr::Column(0), "max_x"),
                  Aggregate::Count()};
  q.predicate = Predicate::NumericCompare(0, CompareOp::kLt, -1.0);
  q.group_by = {2};
  for (ExecPolicy policy : {ExecPolicy::kScalar, ExecPolicy::kVectorized}) {
    auto exact =
        ExactAnswer(q, EvaluateAllPartitions(q, flat_src, {policy, 1}));
    // No rows match: no groups at all (like SUM/COUNT/AVG).
    EXPECT_TRUE(exact.empty());
  }
  // With a filtered aggregate matching nothing, the group exists but the
  // extrema finalize to 0.0, like AVG over zero rows.
  Query q2;
  q2.aggregates = {
      Aggregate{AggFunc::kMin, Expr::Column(0),
                Predicate::NumericCompare(0, CompareOp::kLt, -1.0),
                "min_none"},
      Aggregate::Count()};
  for (ExecPolicy policy : {ExecPolicy::kScalar, ExecPolicy::kVectorized}) {
    auto exact =
        ExactAnswer(q2, EvaluateAllPartitions(q2, flat_src, {policy, 1}));
    ASSERT_EQ(exact.size(), 1u);
    EXPECT_DOUBLE_EQ(exact.begin()->second[0], 0.0);
    EXPECT_DOUBLE_EQ(exact.begin()->second[1], 100.0);
  }
}

TEST(Evaluator, GroupByNumericColumn) {
  auto t = MakeTable();
  PartitionedTable pt(t, 4);
  const storage::ResidentShardedSource flat_src(pt);
  Query q;
  q.aggregates = {Aggregate::Count()};
  q.group_by = {0};  // x: 100 distinct values
  auto exact = ExactAnswer(q, EvaluateAllPartitions(q, flat_src));
  EXPECT_EQ(exact.size(), 100u);
}

TEST(Metrics, PerfectEstimateIsZeroError) {
  auto t = MakeTable();
  PartitionedTable pt(t, 10);
  const storage::ResidentShardedSource flat_src(pt);
  Query q;
  q.aggregates = {Aggregate::Sum(Expr::Column(0), "s")};
  q.group_by = {2};
  auto answers = EvaluateAllPartitions(q, flat_src);
  auto exact = ExactAnswer(q, answers);
  auto m = ComputeErrorMetrics(q, exact, exact);
  EXPECT_DOUBLE_EQ(m.missed_groups, 0.0);
  EXPECT_DOUBLE_EQ(m.avg_rel_error, 0.0);
  EXPECT_DOUBLE_EQ(m.abs_over_true, 0.0);
}

TEST(Metrics, MissedGroupCountsAsOne) {
  Query q;
  q.aggregates = {Aggregate::Count()};
  QueryAnswer exact;
  exact[{0}] = {10.0};
  exact[{1}] = {20.0};
  QueryAnswer est;
  est[{0}] = {10.0};
  auto m = ComputeErrorMetrics(q, exact, est);
  EXPECT_DOUBLE_EQ(m.missed_groups, 0.5);
  EXPECT_DOUBLE_EQ(m.avg_rel_error, 0.5);  // (0 + 1) / 2
}

TEST(Metrics, RelativeErrorMagnitude) {
  Query q;
  q.aggregates = {Aggregate::Count()};
  QueryAnswer exact, est;
  exact[{0}] = {100.0};
  est[{0}] = {150.0};
  auto m = ComputeErrorMetrics(q, exact, est);
  EXPECT_DOUBLE_EQ(m.avg_rel_error, 0.5);
  EXPECT_DOUBLE_EQ(m.abs_over_true, 0.5);
}

TEST(Metrics, AccumulateAndAverage) {
  ErrorMetrics a{0.2, 0.4, 0.6};
  ErrorMetrics b{0.0, 0.2, 0.0};
  a += b;
  a /= 2.0;
  EXPECT_DOUBLE_EQ(a.missed_groups, 0.1);
  EXPECT_DOUBLE_EQ(a.avg_rel_error, 0.3);
  EXPECT_DOUBLE_EQ(a.abs_over_true, 0.3);
}

// ---------------------------------------------------------------------
// GroupKeyHash bucket spread.

TEST(GroupKeyHash, SpreadsSmallSingleColumnCodes) {
  // Single-column GROUP BY keys are small dictionary codes; their hashes
  // must spread across buckets (the pre-fix constant-seeded HashCombine
  // clustered them). With 4096 keys into 4096 buckets, a uniform hash
  // occupies ~(1 - 1/e) ~ 63% distinct buckets.
  GroupKeyHash hasher;
  constexpr size_t kKeys = 4096;
  std::set<size_t> buckets;
  for (size_t v = 0; v < kKeys; ++v) {
    buckets.insert(hasher(GroupKey{static_cast<int64_t>(v)}) % kKeys);
  }
  EXPECT_GT(buckets.size(), kKeys * 55 / 100);
}

TEST(GroupKeyHash, LengthChangesHash) {
  // {0} vs {0,0} vs {} must not collide: the key length seeds the hash.
  GroupKeyHash hasher;
  size_t h0 = hasher(GroupKey{});
  size_t h1 = hasher(GroupKey{0});
  size_t h2 = hasher(GroupKey{0, 0});
  EXPECT_NE(h0, h1);
  EXPECT_NE(h1, h2);
  EXPECT_NE(h0, h2);
}

TEST(GroupKeyHash, SpreadsTwoColumnKeys) {
  GroupKeyHash hasher;
  std::set<size_t> buckets;
  constexpr size_t kSide = 64;  // 64x64 = 4096 keys
  for (size_t a = 0; a < kSide; ++a) {
    for (size_t b = 0; b < kSide; ++b) {
      buckets.insert(hasher(GroupKey{static_cast<int64_t>(a),
                                     static_cast<int64_t>(b)}) %
                     (kSide * kSide));
    }
  }
  EXPECT_GT(buckets.size(), kSide * kSide * 55 / 100);
}

// ---------------------------------------------------------------------
// SelectionBitmap and the predicate compiler.

TEST(SelectionBitmap, TailMaskingAndCounts) {
  SelectionBitmap bm(70);  // deliberately not a multiple of 64
  EXPECT_EQ(bm.CountOnes(), 0u);
  bm.SetAll();
  EXPECT_EQ(bm.CountOnes(), 70u);
  bm.NotSelf();
  EXPECT_EQ(bm.CountOnes(), 0u);
  bm.Set(0);
  bm.Set(63);
  bm.Set(69);
  EXPECT_EQ(bm.CountOnes(), 3u);
  std::vector<size_t> rows;
  bm.ForEachSetBit([&](size_t r) { rows.push_back(r); });
  EXPECT_EQ(rows, (std::vector<size_t>{0, 63, 69}));
  bm.NotSelf();
  EXPECT_EQ(bm.CountOnes(), 67u);
}

TEST(SelectionBitmap, WordwiseAndOr) {
  SelectionBitmap a(100), b(100);
  for (size_t i = 0; i < 100; i += 2) a.Set(i);
  for (size_t i = 0; i < 100; i += 3) b.Set(i);
  SelectionBitmap both = a;
  both.AndWith(b);
  EXPECT_EQ(both.CountOnes(), 17u);  // multiples of 6 in [0, 100)
  SelectionBitmap either = a;
  either.OrWith(b);
  EXPECT_EQ(either.CountOnes(), 67u);  // incl-excl: 50 + 34 - 17
}

TEST(Compiler, MatchesScalarPredicatePerRow) {
  auto t = MakeTable();
  PartitionedTable pt(t, 3);
  // NOT(x < 20 AND (cat IN {a} OR y >= 900))
  auto pred = Predicate::Not(Predicate::And(
      {Predicate::NumericCompare(0, CompareOp::kLt, 20.0),
       Predicate::Or({Predicate::CategoricalIn(2, {0}),
                      Predicate::NumericCompare(1, CompareOp::kGe, 900.0)})}));
  PredProgram prog = CompilePredicate(pred);
  BitmapEvaluator be;
  SelectionBitmap bm;
  for (size_t p = 0; p < pt.num_partitions(); ++p) {
    auto part = pt.partition(p);
    be.EvalPredicate(prog, part, &bm);
    ASSERT_EQ(bm.num_bits(), part.num_rows());
    for (size_t r = 0; r < part.num_rows(); ++r) {
      EXPECT_EQ(bm.Test(r), pred->Matches(part, r)) << "row " << r;
    }
  }
}

TEST(Compiler, CompiledExprMatchesAstWalk) {
  auto t = MakeTable();
  PartitionedTable pt(t, 2);
  auto expr = Expr::Div(
      Expr::Mul(Expr::Add(Expr::Column(0), Expr::Const(1.0)), Expr::Column(1)),
      Expr::Sub(Expr::Column(0), Expr::Const(50.0)));  // zero at x == 50
  ExprProgram prog = CompileExpr(expr);
  BitmapEvaluator be;
  for (size_t p = 0; p < pt.num_partitions(); ++p) {
    auto part = pt.partition(p);
    std::vector<double> dense;
    be.EvalExprDense(prog, part, &dense);
    for (size_t r = 0; r < part.num_rows(); ++r) {
      double expected = expr->Eval(part, r);
      EXPECT_DOUBLE_EQ(be.EvalExprAt(prog, part, r), expected);
      EXPECT_DOUBLE_EQ(dense[r], expected);
    }
  }
}

TEST(Compiler, EmptyInListCompilesToNoMatch) {
  auto t = MakeTable();
  PartitionedTable pt(t, 1);
  PredProgram prog = CompilePredicate(Predicate::CategoricalIn(2, {}));
  BitmapEvaluator be;
  SelectionBitmap bm;
  be.EvalPredicate(prog, pt.partition(0), &bm);
  EXPECT_EQ(bm.CountOnes(), 0u);
}

TEST(ExecPolicy, SinglePartitionDispatchAgrees) {
  auto t = MakeTable();
  PartitionedTable pt(t, 4);
  Query q;
  q.aggregates = {Aggregate::Count(), Aggregate::Sum(Expr::Column(1))};
  q.predicate = Predicate::NumericCompare(0, CompareOp::kGe, 30.0);
  q.group_by = {2};
  for (size_t p = 0; p < pt.num_partitions(); ++p) {
    auto scalar =
        EvaluateOnPartition(q, pt.partition(p), ExecPolicy::kScalar);
    auto vec =
        EvaluateOnPartition(q, pt.partition(p), ExecPolicy::kVectorized);
    ASSERT_EQ(scalar.size(), vec.size());
    for (const auto& [key, accs] : scalar) {
      auto it = vec.find(key);
      ASSERT_NE(it, vec.end());
      for (size_t a = 0; a < accs.size(); ++a) {
        EXPECT_DOUBLE_EQ(accs[a].sum, it->second[a].sum);
        EXPECT_DOUBLE_EQ(accs[a].count, it->second[a].count);
      }
    }
  }
}

}  // namespace
}  // namespace ps3::query
