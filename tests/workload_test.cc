#include <gtest/gtest.h>

#include <set>
#include <unordered_map>

#include "query/evaluator.h"
#include "storage/partition_source.h"
#include "workload/datasets.h"
#include "workload/generator.h"
#include "workload/tpch_queries.h"

namespace ps3::workload {
namespace {

TEST(Datasets, DispatchByName) {
  for (const char* name : {"tpch", "tpcds", "aria", "kdd"}) {
    auto made = MakeDataset(name, 2000, 1);
    ASSERT_TRUE(made.ok()) << name;
    EXPECT_EQ(made->name, name);
    EXPECT_EQ(made->table->num_rows(), 2000u);
    EXPECT_FALSE(made->default_sort.empty());
    EXPECT_FALSE(made->spec.groupby_columns.empty());
    EXPECT_FALSE(made->spec.aggregates.empty());
  }
  EXPECT_FALSE(MakeDataset("nope", 10, 1).ok());
}

TEST(Datasets, SpecColumnsExist) {
  for (const char* name : {"tpch", "tpcds", "aria", "kdd"}) {
    auto bundle = MakeDataset(name, 1000, 2);
    ASSERT_TRUE(bundle.ok());
    const auto& schema = bundle->table->schema();
    for (const auto& col : bundle->spec.groupby_columns) {
      EXPECT_GE(schema.FindColumn(col), 0) << name << "." << col;
    }
    for (const auto& col : bundle->spec.predicate_columns) {
      EXPECT_GE(schema.FindColumn(col), 0) << name << "." << col;
    }
    for (const auto& col : bundle->default_sort) {
      EXPECT_GE(schema.FindColumn(col), 0) << name << "." << col;
    }
  }
}

TEST(Datasets, AriaVersionSkewMatchesPaper) {
  auto bundle = MakeAria(50000, 3);
  auto col = bundle.table->GetColumn("AppInfo_Version");
  ASSERT_TRUE(col.ok());
  std::unordered_map<int32_t, size_t> counts;
  for (size_t r = 0; r < bundle.table->num_rows(); ++r) {
    ++counts[(*col)->CodeAt(r)];
  }
  size_t max_count = 0;
  for (const auto& [code, c] : counts) max_count = std::max(max_count, c);
  double top_share =
      static_cast<double>(max_count) / double(bundle.table->num_rows());
  // §1: the most popular of the 167 versions accounts for ~half the data.
  EXPECT_GT(top_share, 0.35);
  EXPECT_LT(top_share, 0.65);
  EXPECT_LE(counts.size(), 167u);
  EXPECT_GT(counts.size(), 100u);
}

TEST(Datasets, TpchZipfSkewOnBrands) {
  auto bundle = MakeTpchStar(30000, 5);
  auto col = bundle.table->GetColumn("p_brand");
  ASSERT_TRUE(col.ok());
  std::unordered_map<int32_t, size_t> counts;
  for (size_t r = 0; r < bundle.table->num_rows(); ++r) {
    ++counts[(*col)->CodeAt(r)];
  }
  size_t max_count = 0, min_count = bundle.table->num_rows();
  for (const auto& [code, c] : counts) {
    max_count = std::max(max_count, c);
    min_count = std::min(min_count, c);
  }
  // Zipf part popularity must propagate into brand skew.
  EXPECT_GT(max_count, 4 * min_count);
}

TEST(Datasets, KddAttackMixIsSkewed) {
  auto bundle = MakeKdd(30000, 7);
  auto col = bundle.table->GetColumn("label");
  ASSERT_TRUE(col.ok());
  std::unordered_map<int32_t, size_t> counts;
  for (size_t r = 0; r < bundle.table->num_rows(); ++r) {
    ++counts[(*col)->CodeAt(r)];
  }
  EXPECT_GE(counts.size(), 8u);  // rare attack classes present
  size_t max_count = 0;
  for (const auto& [code, c] : counts) max_count = std::max(max_count, c);
  EXPECT_GT(static_cast<double>(max_count) / 30000.0, 0.25);
}

TEST(Datasets, TpcdsDateColumnsInRange) {
  auto bundle = MakeTpcdsStar(5000, 9);
  auto year = bundle.table->GetColumn("d_year");
  ASSERT_TRUE(year.ok());
  for (size_t r = 0; r < 5000; ++r) {
    double y = (*year)->NumericAt(r);
    EXPECT_GE(y, 1999.0);
    EXPECT_LE(y, 2001.0);
  }
}

struct GeneratorFixture {
  DatasetBundle bundle = MakeAria(5000, 13);
  QueryGenerator gen{bundle.table.get(), bundle.spec, {}};
};

TEST(QueryGenerator, ProducesDistinctValidQueries) {
  GeneratorFixture f;
  auto queries = f.gen.GenerateSet(50, 21);
  EXPECT_EQ(queries.size(), 50u);
  std::set<std::string> rendered;
  for (const auto& q : queries) {
    EXPECT_GE(q.aggregates.size(), 1u);
    EXPECT_LE(q.aggregates.size(), 3u);
    EXPECT_LE(q.NumPredicateClauses(), 5u);
    rendered.insert(q.ToString(f.bundle.table->schema()));
  }
  EXPECT_EQ(rendered.size(), 50u);
}

TEST(QueryGenerator, GroupByColumnsComeFromSpec) {
  GeneratorFixture f;
  std::set<size_t> allowed;
  for (const auto& name : f.bundle.spec.groupby_columns) {
    allowed.insert(static_cast<size_t>(
        f.bundle.table->schema().FindColumn(name)));
  }
  auto queries = f.gen.GenerateSet(40, 23);
  for (const auto& q : queries) {
    for (size_t g : q.group_by) EXPECT_TRUE(allowed.count(g));
  }
}

TEST(QueryGenerator, SomeQueriesHaveNoGroupByOrPredicate) {
  GeneratorFixture f;
  auto queries = f.gen.GenerateSet(60, 29);
  size_t no_group = 0, no_pred = 0;
  for (const auto& q : queries) {
    if (q.group_by.empty()) ++no_group;
    if (!q.predicate) ++no_pred;
  }
  EXPECT_GT(no_group, 0u);
  EXPECT_GT(no_pred, 0u);
}

TEST(QueryGenerator, QueriesAreEvaluable) {
  GeneratorFixture f;
  storage::PartitionedTable pt(f.bundle.table, 8);
  const storage::ResidentShardedSource flat_src(pt);
  auto queries = f.gen.GenerateSet(10, 31);
  for (const auto& q : queries) {
    auto answers = query::EvaluateAllPartitions(q, flat_src);
    auto exact = query::ExactAnswer(q, answers);
    // Evaluation must not crash; empty results are legal for very
    // selective predicates.
    (void)exact;
  }
  SUCCEED();
}

TEST(ResolveAggregate, AllKinds) {
  auto bundle = MakeAria(500, 17);
  using K = AggregateSpec::Kind;
  auto count = ResolveAggregate(*bundle.table, {K::kCount, "", ""});
  EXPECT_EQ(count.func, query::AggFunc::kCount);
  auto sum = ResolveAggregate(*bundle.table, {K::kSum, "olsize", ""});
  EXPECT_EQ(sum.func, query::AggFunc::kSum);
  ASSERT_NE(sum.expr, nullptr);
  auto avg = ResolveAggregate(*bundle.table, {K::kAvg, "olsize", ""});
  EXPECT_EQ(avg.func, query::AggFunc::kAvg);
  auto prod = ResolveAggregate(*bundle.table,
                               {K::kSumProduct, "olsize", "ol_w"});
  std::set<size_t> cols;
  prod.expr->CollectColumns(&cols);
  EXPECT_EQ(cols.size(), 2u);
}

struct TpchQueryFixture {
  DatasetBundle bundle = MakeTpchStar(20000, 19);
  storage::PartitionedTable pt{bundle.table, 20};
};

TEST(TpchQueries, AllTemplatesInstantiate) {
  TpchQueryFixture f;
  RandomEngine rng(37);
  for (int tq : kTpchTemplates) {
    auto made = MakeTpchQuery(*f.bundle.table, tq, &rng);
    ASSERT_TRUE(made.ok()) << "Q" << tq;
    EXPECT_GE(made->aggregates.size(), 1u) << "Q" << tq;
  }
  EXPECT_FALSE(MakeTpchQuery(*f.bundle.table, 4, &rng).ok());
}

TEST(TpchQueries, TemplatesAreEvaluable) {
  TpchQueryFixture f;
  for (int tq : {1, 6, 12}) {
    auto queries = MakeTpchQuerySet(*f.bundle.table, tq, 3, 41);
    for (const auto& q : queries) {
      auto exact =
          query::ExactAnswer(q, query::EvaluateAllPartitions(
              q, storage::ResidentShardedSource(f.pt)));
      if (tq == 1) {
        // Q1 groups by returnflag x linestatus: a handful of groups.
        EXPECT_GE(exact.size(), 2u);
        EXPECT_LE(exact.size(), 6u);
      }
    }
  }
}

TEST(TpchQueries, Q19HasComplexPredicate) {
  TpchQueryFixture f;
  RandomEngine rng(43);
  auto q = MakeTpchQuery(*f.bundle.table, 19, &rng);
  ASSERT_TRUE(q.ok());
  EXPECT_GT(q->NumPredicateClauses(), 10u);
}

TEST(TpchQueries, Q8UsesCaseRewrite) {
  TpchQueryFixture f;
  RandomEngine rng(47);
  auto q = MakeTpchQuery(*f.bundle.table, 8, &rng);
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->aggregates.size(), 2u);
  EXPECT_NE(q->aggregates[0].filter, nullptr);
  EXPECT_EQ(q->aggregates[1].filter, nullptr);
  // The filtered volume is a subset of the total volume.
  auto exact = query::ExactAnswer(
      *q, query::EvaluateAllPartitions(
          *q, storage::ResidentShardedSource(f.pt)));
  for (const auto& [key, vals] : exact) {
    EXPECT_LE(vals[0], vals[1] + 1e-9);
  }
}

/// Every template must instantiate to an evaluable query within the
/// paper's scope (bounded group count, valid columns).
class TpchTemplateSweep : public ::testing::TestWithParam<int> {};

TEST_P(TpchTemplateSweep, InstantiatesAndEvaluatesWithinScope) {
  static const TpchQueryFixture* fixture = new TpchQueryFixture();
  RandomEngine rng(1000 + static_cast<uint64_t>(GetParam()));
  auto made = MakeTpchQuery(*fixture->bundle.table, GetParam(), &rng);
  ASSERT_TRUE(made.ok());
  const query::Query& q = *made;
  // All referenced columns are valid.
  for (size_t c : q.UsedColumns()) {
    EXPECT_LT(c, fixture->bundle.table->schema().num_columns());
  }
  auto exact =
      query::ExactAnswer(q, query::EvaluateAllPartitions(
          q, storage::ResidentShardedSource(fixture->pt)));
  // Group counts stay within the paper's moderate-cardinality scope.
  EXPECT_LE(exact.size(), 1000u) << "Q" << GetParam();
  // Grouped templates must produce at least one group on this data.
  if (!q.group_by.empty() && GetParam() != 7) {
    // (Q7's two-nation filter may legitimately match nothing for some
    // random nation pairs.)
    EXPECT_GE(exact.size(), 1u) << "Q" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(AllTemplates, TpchTemplateSweep,
                         ::testing::ValuesIn(kTpchTemplates),
                         [](const auto& info) {
                           return "Q" + std::to_string(info.param);
                         });

TEST(TpchQueries, DistinctParametersAcrossInstantiations) {
  TpchQueryFixture f;
  auto queries = MakeTpchQuerySet(*f.bundle.table, 6, 5, 53);
  std::set<std::string> rendered;
  for (const auto& q : queries) {
    rendered.insert(q.ToString(f.bundle.table->schema()));
  }
  EXPECT_GE(rendered.size(), 4u);  // random params rarely collide
}

}  // namespace
}  // namespace ps3::workload
