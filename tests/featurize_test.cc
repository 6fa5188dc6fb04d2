#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/random.h"
#include "featurize/featurizer.h"
#include "featurize/normalizer.h"
#include "featurize/selectivity.h"
#include "stats/stats_builder.h"

namespace ps3::featurize {
namespace {

using query::Aggregate;
using query::CompareOp;
using query::Expr;
using query::Predicate;
using query::Query;
using storage::ColumnType;
using storage::PartitionedTable;
using storage::Schema;
using storage::Table;

struct Fixture {
  std::shared_ptr<Table> table;
  std::unique_ptr<PartitionedTable> parts;
  std::unique_ptr<stats::TableStats> stats;
  std::unique_ptr<Featurizer> featurizer;

  // 8 partitions x 200 rows; x in [p*200, p*200+200); cat has a dominant
  // value per partition half; z uniform noise.
  Fixture() {
    Schema schema({{"x", ColumnType::kNumeric},
                   {"z", ColumnType::kNumeric},
                   {"cat", ColumnType::kCategorical}});
    table = std::make_shared<Table>(schema);
    RandomEngine rng(17);
    for (int p = 0; p < 8; ++p) {
      for (int r = 0; r < 200; ++r) {
        table->AppendRow(
            {double(p * 200 + r), rng.NextDouble() * 10.0},
            {p < 4 ? "left" : "right"});
      }
    }
    table->Seal();
    parts = std::make_unique<PartitionedTable>(table, 8);
    stats::StatsOptions opts;
    opts.grouping_columns = {2};
    stats = std::make_unique<stats::TableStats>(
        stats::StatsBuilder(opts).Build(*parts));
    featurizer = std::make_unique<Featurizer>(schema, stats.get());
  }

  bool RowMatches(const query::Query& q, size_t part, size_t row) const {
    return q.EffectivePredicate()->Matches(parts->partition(part), row);
  }

  double TrueSelectivity(const query::Query& q, size_t part) const {
    auto p = parts->partition(part);
    size_t matched = 0;
    for (size_t r = 0; r < p.num_rows(); ++r) {
      if (q.EffectivePredicate()->Matches(p, r)) ++matched;
    }
    return double(matched) / double(p.num_rows());
  }
};

TEST(FeatureSchema, LayoutContainsExpectedKinds) {
  Fixture f;
  const FeatureSchema& fs = f.featurizer->feature_schema();
  EXPECT_GT(fs.num_features(), 20u);
  // Selectivity features lead.
  EXPECT_EQ(fs.def(fs.sel_upper_index()).kind, StatKind::kSelUpper);
  // Categorical column carries no measure features.
  for (const auto& def : fs.defs()) {
    if (def.column == 2) {
      EXPECT_NE(CategoryOf(def.kind), FeatureCategory::kMeasure)
          << def.name;
    }
  }
  // Bitmap features exist for the grouping column.
  bool has_bitmap = false;
  for (const auto& def : fs.defs()) {
    if (def.kind == StatKind::kHhBitmap) {
      has_bitmap = true;
      EXPECT_EQ(def.column, 2);
    }
  }
  EXPECT_TRUE(has_bitmap);
}

TEST(FeatureSchema, KindNamesAndCategories) {
  EXPECT_STREQ(StatKindName(StatKind::kSelUpper), "selectivity_upper");
  EXPECT_EQ(CategoryOf(StatKind::kHhBitmap), FeatureCategory::kHeavyHitter);
  EXPECT_EQ(CategoryOf(StatKind::kNumDv), FeatureCategory::kDistinctValue);
  EXPECT_EQ(CategoryOf(StatKind::kLogMax), FeatureCategory::kMeasure);
  EXPECT_STREQ(FeatureCategoryName(FeatureCategory::kSelectivity),
               "selectivity");
}

TEST(Featurizer, StaticFeaturesMatchSketches) {
  Fixture f;
  Query q;
  q.aggregates = {Aggregate::Sum(Expr::Column(0), "s")};
  q.group_by = {2};
  auto fm = f.featurizer->BuildFeatures(q);
  const FeatureSchema& fs = f.featurizer->feature_schema();
  for (size_t j = 0; j < fs.num_features(); ++j) {
    const auto& def = fs.def(j);
    if (def.kind == StatKind::kMax && def.column == 0) {
      EXPECT_DOUBLE_EQ(fm.At(3, j), 3.0 * 200 + 199);
    }
    if (def.kind == StatKind::kMean && def.column == 0) {
      EXPECT_NEAR(fm.At(0, j), 99.5, 1e-9);
    }
  }
}

TEST(Featurizer, MaskZeroesUnusedColumns) {
  Fixture f;
  Query q;  // uses only column 0
  q.aggregates = {Aggregate::Sum(Expr::Column(0), "s")};
  auto fm = f.featurizer->BuildFeatures(q);
  const FeatureSchema& fs = f.featurizer->feature_schema();
  for (size_t j = 0; j < fs.num_features(); ++j) {
    const auto& def = fs.def(j);
    if (def.column >= 1) {
      for (size_t p = 0; p < fm.n; ++p) {
        EXPECT_DOUBLE_EQ(fm.At(p, j), 0.0) << def.name;
      }
    }
  }
}

TEST(Featurizer, NoPredicateHasUnitSelectivity) {
  Fixture f;
  Query q;
  q.aggregates = {Aggregate::Count()};
  auto sel = f.featurizer->ComputeSelectivity(q);
  for (const auto& s : sel) {
    EXPECT_DOUBLE_EQ(s.upper, 1.0);
    EXPECT_DOUBLE_EQ(s.indep, 1.0);
    EXPECT_DOUBLE_EQ(s.lower, 1.0);
  }
}

TEST(Selectivity, RangeFilterHasPerfectRecall) {
  Fixture f;
  // x in [500, 700): only partitions 2 and 3 contain matching rows.
  Query q;
  q.aggregates = {Aggregate::Count()};
  q.predicate = Predicate::And(
      {Predicate::NumericCompare(0, CompareOp::kGe, 500.0),
       Predicate::NumericCompare(0, CompareOp::kLt, 700.0)});
  auto sel = f.featurizer->ComputeSelectivity(q);
  for (size_t p = 0; p < 8; ++p) {
    double truth = f.TrueSelectivity(q, p);
    if (truth > 0.0) {
      EXPECT_GT(sel[p].upper, 0.0) << "partition " << p;
    }
    EXPECT_GE(sel[p].upper + 1e-9, truth) << "partition " << p;
    EXPECT_LE(sel[p].lower - 1e-9, truth) << "partition " << p;
  }
  EXPECT_DOUBLE_EQ(sel[0].upper, 0.0);
  EXPECT_DOUBLE_EQ(sel[7].upper, 0.0);
}

TEST(Selectivity, CategoricalExactForSmallDomains) {
  Fixture f;
  auto dict = f.table->column(2).dict();
  Query q;
  q.aggregates = {Aggregate::Count()};
  q.predicate = Predicate::CategoricalIn(2, {dict->Find("left")});
  auto sel = f.featurizer->ComputeSelectivity(q);
  // Partitions 0-3 are 100% "left"; 4-7 contain none.
  for (size_t p = 0; p < 4; ++p) EXPECT_DOUBLE_EQ(sel[p].upper, 1.0);
  for (size_t p = 4; p < 8; ++p) EXPECT_DOUBLE_EQ(sel[p].upper, 0.0);
}

TEST(Selectivity, NegationBoundsStaySound) {
  Fixture f;
  Query q;
  q.aggregates = {Aggregate::Count()};
  q.predicate = Predicate::Not(
      Predicate::NumericCompare(0, CompareOp::kLt, 800.0));
  auto sel = f.featurizer->ComputeSelectivity(q);
  for (size_t p = 0; p < 8; ++p) {
    double truth = f.TrueSelectivity(q, p);
    EXPECT_GE(sel[p].upper + 1e-9, truth) << p;
    EXPECT_LE(sel[p].lower - 1e-9, truth) << p;
  }
}

TEST(Selectivity, SameColumnClausesEvaluatedJointly) {
  Fixture f;
  // Contradictory range on the same column: upper bound must be 0 thanks
  // to the joint interval intersection.
  Query q;
  q.aggregates = {Aggregate::Count()};
  q.predicate = Predicate::And(
      {Predicate::NumericCompare(0, CompareOp::kGt, 900.0),
       Predicate::NumericCompare(0, CompareOp::kLt, 100.0)});
  auto sel = f.featurizer->ComputeSelectivity(q);
  for (size_t p = 0; p < 8; ++p) {
    EXPECT_DOUBLE_EQ(sel[p].upper, 0.0) << p;
  }
}

TEST(Selectivity, OrOfDisjointRanges) {
  Fixture f;
  Query q;
  q.aggregates = {Aggregate::Count()};
  q.predicate = Predicate::Or(
      {Predicate::NumericCompare(0, CompareOp::kLt, 100.0),
       Predicate::NumericCompare(0, CompareOp::kGe, 1500.0)});
  auto sel = f.featurizer->ComputeSelectivity(q);
  for (size_t p = 0; p < 8; ++p) {
    double truth = f.TrueSelectivity(q, p);
    EXPECT_GE(sel[p].upper + 1e-9, truth) << p;
  }
  // Middle partitions match nothing.
  EXPECT_DOUBLE_EQ(sel[3].upper, 0.0);
}

/// Property sweep: on random conjunctive predicates the upper bound never
/// under-estimates and the lower bound never over-estimates.
class SelectivityProperty : public ::testing::TestWithParam<int> {};

TEST_P(SelectivityProperty, BoundsAreSoundOnRandomPredicates) {
  Fixture f;
  RandomEngine rng(static_cast<uint64_t>(GetParam()));
  Query q;
  q.aggregates = {Aggregate::Count()};
  std::vector<query::PredicatePtr> clauses;
  size_t n_clauses = 1 + rng.NextUint64(3);
  for (size_t c = 0; c < n_clauses; ++c) {
    if (rng.NextBool(0.3)) {
      auto dict = f.table->column(2).dict();
      clauses.push_back(Predicate::CategoricalIn(
          2, {static_cast<int32_t>(rng.NextUint64(dict->size()))}));
    } else {
      size_t col = rng.NextUint64(2);
      double v = col == 0 ? rng.NextDouble() * 1600.0
                          : rng.NextDouble() * 10.0;
      auto op = rng.NextBool(0.5) ? CompareOp::kLt : CompareOp::kGe;
      clauses.push_back(Predicate::NumericCompare(col, op, v));
    }
  }
  q.predicate = rng.NextBool(0.3) ? Predicate::Or(std::move(clauses))
                                  : Predicate::And(std::move(clauses));
  auto sel = f.featurizer->ComputeSelectivity(q);
  for (size_t p = 0; p < 8; ++p) {
    double truth = f.TrueSelectivity(q, p);
    EXPECT_GE(sel[p].upper + 1e-9, truth)
        << "part " << p << " pred "
        << q.predicate->ToString(f.table->schema());
    EXPECT_LE(sel[p].lower - 1e-9, truth)
        << "part " << p << " pred "
        << q.predicate->ToString(f.table->schema());
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPredicates, SelectivityProperty,
                         ::testing::Range(0, 40));

TEST(Normalizer, TransformShapes) {
  EXPECT_DOUBLE_EQ(FeatureNormalizer::Transform(StatKind::kSelUpper, 0.125),
                   0.5);
  EXPECT_DOUBLE_EQ(FeatureNormalizer::Transform(StatKind::kMean, 0.0), 0.0);
  EXPECT_NEAR(FeatureNormalizer::Transform(StatKind::kMean, std::exp(1) - 1),
              1.0, 1e-12);
  // Signed transform is odd.
  EXPECT_DOUBLE_EQ(FeatureNormalizer::Transform(StatKind::kMin, -3.0),
                   -FeatureNormalizer::Transform(StatKind::kMin, 3.0));
}

TEST(Normalizer, FitAndApply) {
  Fixture f;
  Query q;
  q.aggregates = {Aggregate::Sum(Expr::Column(0), "s")};
  q.group_by = {2};
  auto fm = f.featurizer->BuildFeatures(q);
  FeatureNormalizer norm;
  norm.Fit(f.featurizer->feature_schema(), {&fm});
  ASSERT_TRUE(norm.fitted());
  auto fm2 = fm;
  norm.Apply(&fm2);
  // Normalized features should have mean |value| ~ 1 for non-constant dims.
  const FeatureSchema& fs = f.featurizer->feature_schema();
  for (size_t j = 0; j < fs.num_features(); ++j) {
    if (fs.def(j).kind != StatKind::kMean || fs.def(j).column != 0) continue;
    double acc = 0.0;
    for (size_t p = 0; p < fm2.n; ++p) acc += std::fabs(fm2.At(p, j));
    EXPECT_NEAR(acc / double(fm2.n), 1.0, 1e-9);
  }
}

TEST(Normalizer, TestTimeUsesTrainingScales) {
  Fixture f;
  Query q;
  q.aggregates = {Aggregate::Sum(Expr::Column(0), "s")};
  auto fm = f.featurizer->BuildFeatures(q);
  FeatureNormalizer norm;
  norm.Fit(f.featurizer->feature_schema(), {&fm});
  auto scales = norm.scales();
  // Fitting on the same data twice gives identical scales (deterministic).
  FeatureNormalizer norm2;
  norm2.Fit(f.featurizer->feature_schema(), {&fm});
  EXPECT_EQ(scales, norm2.scales());
}

TEST(NormalizedFeatures, BuildEqualsBuildFeaturesThenApplyBitForBit) {
  Fixture f;
  Query sum_x;
  sum_x.aggregates = {Aggregate::Sum(Expr::Column(0), "s")};
  Query by_cat = sum_x;  // every column used, with a range predicate
  by_cat.group_by = {2};
  by_cat.predicate = Predicate::NumericCompare(1, CompareOp::kLt, 4.0);
  Query count_z;  // column 1 only, a predicate that prunes partitions
  count_z.aggregates = {Aggregate::Count()};
  count_z.predicate = Predicate::NumericCompare(0, CompareOp::kGe, 1000.0);
  Query bare;  // no column at all: every static feature masked
  bare.aggregates = {Aggregate::Count()};
  std::vector<Query> queries = {sum_x, by_cat, count_z, bare};
  // Ranges that cut through partitions give fractional selectivities in
  // all four selectivity features.
  for (double cut : {150.0, 333.0, 777.0, 1111.0, 1390.0}) {
    Query q = count_z;
    q.predicate = Predicate::And(
        {Predicate::NumericCompare(0, CompareOp::kLt, cut),
         Predicate::NumericCompare(1, CompareOp::kGt, cut / 400.0)});
    queries.push_back(std::move(q));
  }

  auto train_a = f.featurizer->BuildFeatures(sum_x);
  auto train_b = f.featurizer->BuildFeatures(by_cat);
  auto train_c = f.featurizer->BuildFeatures(queries.back());
  FeatureNormalizer norm;
  norm.Fit(f.featurizer->feature_schema(), {&train_a, &train_b, &train_c});
  const NormalizedFeatures normalized(*f.featurizer, norm);
  for (const Query& q : queries) {
    FeatureMatrix want = f.featurizer->BuildFeatures(q);
    norm.Apply(&want);
    const FeatureMatrix got =
        normalized.Build(q, f.featurizer->ComputeSelectivity(q));
    ASSERT_EQ(got.n, want.n);
    ASSERT_EQ(got.m, want.m);
    // memcmp, not ==: a masked feature must be +0.0, as Apply makes it.
    EXPECT_EQ(std::memcmp(got.data.data(), want.data.data(),
                          want.data.size() * sizeof(double)),
              0)
        << q.ToString(f.table->schema());
  }
}

}  // namespace
}  // namespace ps3::featurize
