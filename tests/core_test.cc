#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <string>

#include "core/cluster_select.h"
#include "core/feature_selection.h"
#include "core/labels.h"
#include "core/lss_picker.h"
#include "core/ps3_picker.h"
#include "core/ps3_trainer.h"
#include "core/random_picker.h"
#include "core/training_data.h"
#include "query/metrics.h"
#include "stats/stats_builder.h"
#include "storage/partition_source.h"
#include "workload/datasets.h"
#include "workload/generator.h"

namespace ps3::core {
namespace {

using query::Aggregate;
using query::CompareOp;
using query::Expr;
using query::Predicate;
using query::Query;

/// Small end-to-end fixture over the Aria analog dataset.
struct Fixture {
  workload::DatasetBundle bundle;
  std::shared_ptr<storage::Table> table;
  std::unique_ptr<storage::PartitionedTable> parts;
  std::unique_ptr<stats::TableStats> stats;
  std::unique_ptr<featurize::Featurizer> featurizer;
  PickerContext ctx;

  explicit Fixture(size_t rows = 8000, size_t partitions = 40) {
    bundle = workload::MakeAria(rows, 11);
    auto sorted = bundle.table->SortedBy(bundle.default_sort);
    table = std::make_shared<storage::Table>(std::move(sorted).value());
    parts = std::make_unique<storage::PartitionedTable>(table, partitions);
    stats::StatsOptions opts;
    for (const auto& name : bundle.spec.groupby_columns) {
      opts.grouping_columns.push_back(
          static_cast<size_t>(table->schema().FindColumn(name)));
    }
    stats = std::make_unique<stats::TableStats>(
        stats::StatsBuilder(opts).Build(*parts));
    featurizer = std::make_unique<featurize::Featurizer>(table->schema(),
                                                         stats.get());
    ctx = {parts.get(), stats.get(), featurizer.get()};
  }

  Query CountByNetwork() const {
    Query q;
    q.aggregates = {Aggregate::Count()};
    q.group_by = {static_cast<size_t>(
        table->schema().FindColumn("DeviceInfo_NetworkType"))};
    return q;
  }
};

TEST(Contributions, BoundedAndPositiveForActivePartitions) {
  Fixture f;
  Query q = f.CountByNetwork();
  auto answers = query::EvaluateAllPartitions(
      q, storage::ResidentShardedSource(*f.parts));
  auto exact = query::ExactAnswer(q, answers);
  auto contrib = ComputeContributions(q, answers, exact);
  ASSERT_EQ(contrib.size(), f.parts->num_partitions());
  for (double c : contrib) {
    EXPECT_GT(c, 0.0);  // every partition has rows for this query
    EXPECT_LE(c, 10.0);
  }
}

TEST(Contributions, ZeroForFilteredOutPartitions) {
  Fixture f;
  Query q;
  q.aggregates = {Aggregate::Count()};
  // TenantId sort => only some partitions contain tenant 0 rows.
  size_t tenant_col = static_cast<size_t>(
      f.table->schema().FindColumn("TenantId"));
  int32_t code = f.table->column(tenant_col).dict()->Find("Tenant_0");
  ASSERT_GE(code, 0);
  q.predicate = Predicate::CategoricalIn(tenant_col, {code});
  auto answers = query::EvaluateAllPartitions(
      q, storage::ResidentShardedSource(*f.parts));
  auto exact = query::ExactAnswer(q, answers);
  auto contrib = ComputeContributions(q, answers, exact);
  size_t zero = 0;
  for (double c : contrib) {
    if (c == 0.0) ++zero;
  }
  EXPECT_GT(zero, 0u);
  EXPECT_LT(zero, contrib.size());
}

TEST(Thresholds, FirstIsZeroAndNonDecreasing) {
  std::vector<std::vector<double>> contributions = {
      {0.0, 0.0, 0.1, 0.2, 0.5, 0.9, 0.0, 0.05},
      {0.0, 0.3, 0.0, 0.0, 0.7, 0.01, 0.02, 0.0},
  };
  auto t = ChooseThresholds(contributions, 4);
  ASSERT_EQ(t.size(), 4u);
  EXPECT_DOUBLE_EQ(t[0], 0.0);
  for (size_t i = 1; i < t.size(); ++i) EXPECT_GE(t[i], t[i - 1]);
}

TEST(Thresholds, PassCountsShrinkTowardTopPercent) {
  RandomEngine rng(3);
  std::vector<std::vector<double>> contributions(20);
  for (auto& c : contributions) {
    c.resize(100);
    for (auto& v : c) v = rng.NextBool(0.4) ? rng.NextDouble() : 0.0;
  }
  auto t = ChooseThresholds(contributions, 4);
  auto passing = [&](double thresh) {
    size_t n = 0;
    for (const auto& c : contributions) {
      for (double v : c) {
        if (v > thresh) ++n;
      }
    }
    return n;
  };
  for (size_t i = 1; i < t.size(); ++i) {
    EXPECT_LE(passing(t[i]), passing(t[i - 1]));
  }
  // Last model: ~top 1% of 2000 samples (some slack for quantile ties).
  EXPECT_LE(passing(t.back()), 60u);
}

TEST(FunnelLabels, ClassTotalsBalancedPerQuery) {
  std::vector<std::vector<double>> contributions = {
      {0.0, 0.0, 0.0, 0.5, 0.8, 0.0, 0.0, 0.0, 0.0, 0.0}};
  auto y = MakeFunnelLabels(contributions, 0.0);
  ASSERT_EQ(y.size(), 10u);
  double pos_total = 0.0, neg_total = 0.0;
  for (double v : y) {
    if (v > 0) {
      pos_total += v;
    } else {
      neg_total += -v;
    }
  }
  // 2 positives at sqrt(10/2), 8 negatives at sqrt(10/8): both classes
  // carry total weight sqrt(c * class_count) = sqrt(20) and sqrt(80).
  EXPECT_NEAR(pos_total, 2.0 * std::sqrt(5.0), 1e-9);
  EXPECT_NEAR(neg_total, 8.0 * std::sqrt(1.25), 1e-9);
}

TEST(FunnelLabels, DegenerateAllNegative) {
  std::vector<std::vector<double>> contributions = {{0.0, 0.0, 0.0}};
  auto y = MakeFunnelLabels(contributions, 0.5);
  for (double v : y) EXPECT_LT(v, 0.0);
}

TEST(ImportanceGroups, FunnelPartitionsCorrectly) {
  std::vector<size_t> parts{0, 1, 2, 3, 4, 5};
  // Partition p passes model m iff p > m + 2.
  auto groups = Ps3Picker::ImportanceGroups(
      parts, [](size_t p, size_t m) { return p > m + 2 ? 1.0 : -1.0; }, 3);
  // Model m passes p > m + 2: funnel stages peel off {0,1,2}, {3}, {4},
  // leaving {5} as the most important group.
  ASSERT_EQ(groups.size(), 4u);
  EXPECT_EQ(groups[0], (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(groups[1], (std::vector<size_t>{3}));
  EXPECT_EQ(groups[2], (std::vector<size_t>{4}));
  EXPECT_EQ(groups[3], (std::vector<size_t>{5}));
}

TEST(AllocateSamples, ExactTotalAndCaps) {
  const std::vector<size_t> sizes{20, 10, 8, 2};
  for (size_t budget : {1ul, 5ul, 17ul, 40ul}) {
    auto alloc = Ps3Picker::AllocateSamples(sizes, budget, 2.0);
    size_t total = 0;
    for (size_t i = 0; i < alloc.size(); ++i) {
      EXPECT_LE(alloc[i], sizes[i]);
      total += alloc[i];
    }
    EXPECT_EQ(total, budget);
  }
}

TEST(AllocateSamples, MoreImportantGroupsGetHigherRates) {
  auto alloc = Ps3Picker::AllocateSamples({100, 100, 100}, 60, 2.0);
  double r0 = static_cast<double>(alloc[0]) / 100.0;
  double r2 = static_cast<double>(alloc[2]) / 100.0;
  EXPECT_GT(r2, r0);
  EXPECT_NEAR(r2 / std::max(0.01, r0), 4.0, 1.0);  // alpha^2
}

TEST(AllocateSamples, BudgetLargerThanTotal) {
  auto alloc = Ps3Picker::AllocateSamples({3, 4}, 100, 2.0);
  EXPECT_EQ(alloc[0], 3u);
  EXPECT_EQ(alloc[1], 4u);
}

TEST(AllocateSamples, AlphaOneIsProportional) {
  auto alloc = Ps3Picker::AllocateSamples({100, 100}, 50, 1.0);
  EXPECT_NEAR(static_cast<double>(alloc[0]), 25.0, 1.0);
  EXPECT_NEAR(static_cast<double>(alloc[1]), 25.0, 1.0);
}

TEST(RandomPicker, RespectsBudgetAndWeights) {
  Fixture f;
  RandomPicker picker(f.ctx);
  RandomEngine rng(5);
  Query q = f.CountByNetwork();
  Selection s = picker.Pick(q, 10, &rng, nullptr);
  EXPECT_EQ(s.parts.size(), 10u);
  std::set<size_t> distinct;
  double total_weight = 0.0;
  for (const auto& wp : s.parts) {
    EXPECT_DOUBLE_EQ(wp.weight, 4.0);  // 40 partitions / 10
    distinct.insert(wp.partition);
    total_weight += wp.weight;
  }
  EXPECT_EQ(distinct.size(), 10u);
  EXPECT_DOUBLE_EQ(total_weight, 40.0);
}

TEST(RandomPicker, CountEstimateIsUnbiased) {
  Fixture f;
  RandomPicker picker(f.ctx);
  Query q;
  q.aggregates = {Aggregate::Count()};
  auto answers = query::EvaluateAllPartitions(
      q, storage::ResidentShardedSource(*f.parts));
  auto exact = query::ExactAnswer(q, answers);
  double truth = exact.begin()->second[0];
  double mean_est = 0.0;
  constexpr int kRuns = 300;
  for (int r = 0; r < kRuns; ++r) {
    RandomEngine rng(1000 + r);
    Selection s = picker.Pick(q, 8, &rng, nullptr);
    auto est = query::CombineWeighted(q, answers, s.parts);
    mean_est += est.begin()->second[0];
  }
  mean_est /= kRuns;
  EXPECT_NEAR(mean_est / truth, 1.0, 0.02);
}

TEST(RandomFilterPicker, OnlySelectsPassingPartitions) {
  Fixture f;
  Query q;
  q.aggregates = {Aggregate::Count()};
  size_t tenant_col = static_cast<size_t>(
      f.table->schema().FindColumn("TenantId"));
  int32_t code = f.table->column(tenant_col).dict()->Find("Tenant_0");
  q.predicate = Predicate::CategoricalIn(tenant_col, {code});
  auto candidates = FilterBySelectivity(f.ctx, q);
  ASSERT_LT(candidates.size(), f.parts->num_partitions());
  std::set<size_t> cand_set(candidates.begin(), candidates.end());
  RandomFilterPicker picker(f.ctx);
  RandomEngine rng(9);
  Selection s = picker.Pick(q, 5, &rng, nullptr);
  for (const auto& wp : s.parts) {
    EXPECT_TRUE(cand_set.count(wp.partition));
  }
}

TEST(FilterBySelectivity, PerfectRecallOnNumericRange) {
  Fixture f;
  Query q;
  q.aggregates = {Aggregate::Count()};
  size_t col = static_cast<size_t>(
      f.table->schema().FindColumn("records_received_count"));
  q.predicate = Predicate::NumericCompare(col, CompareOp::kGt, 100.0);
  auto candidates = FilterBySelectivity(f.ctx, q);
  std::set<size_t> cand_set(candidates.begin(), candidates.end());
  auto answers = query::EvaluateAllPartitions(
      q, storage::ResidentShardedSource(*f.parts));
  for (size_t p = 0; p < answers.size(); ++p) {
    bool has_rows = !answers[p].empty() &&
                    answers[p].begin()->second[0].count > 0;
    if (has_rows) {
      EXPECT_TRUE(cand_set.count(p)) << p;
    }
  }
}

TEST(ClusterSelect, WeightsSumToMemberCount) {
  Fixture f;
  Query q = f.CountByNetwork();
  auto fm = f.featurizer->BuildFeatures(q);
  featurize::FeatureNormalizer norm;
  norm.Fit(f.featurizer->feature_schema(), {&fm});
  norm.Apply(&fm);
  std::vector<size_t> members;
  for (size_t p = 0; p < 30; ++p) members.push_back(p);
  RandomEngine rng(13);
  Selection s = ClusterSelect(fm, f.featurizer->feature_schema(), members, 6,
                              ClusterSelectOptions{}, &rng);
  EXPECT_EQ(s.parts.size(), 6u);
  double total = 0.0;
  for (const auto& wp : s.parts) total += wp.weight;
  EXPECT_DOUBLE_EQ(total, 30.0);
}

TEST(ClusterSelect, FullBudgetSelectsAll) {
  Fixture f;
  Query q = f.CountByNetwork();
  auto fm = f.featurizer->BuildFeatures(q);
  featurize::FeatureNormalizer norm;
  norm.Fit(f.featurizer->feature_schema(), {&fm});
  norm.Apply(&fm);
  std::vector<size_t> members{3, 5, 7};
  RandomEngine rng(13);
  Selection s = ClusterSelect(fm, f.featurizer->feature_schema(), members, 3,
                              ClusterSelectOptions{}, &rng);
  ASSERT_EQ(s.parts.size(), 3u);
  for (const auto& wp : s.parts) EXPECT_DOUBLE_EQ(wp.weight, 1.0);
}

TEST(ClusterSelect, AllAlgorithmsSatisfyInvariants) {
  Fixture f;
  Query q = f.CountByNetwork();
  auto fm = f.featurizer->BuildFeatures(q);
  featurize::FeatureNormalizer norm;
  norm.Fit(f.featurizer->feature_schema(), {&fm});
  norm.Apply(&fm);
  std::vector<size_t> members;
  for (size_t p = 0; p < 25; ++p) members.push_back(p);
  for (auto algo : {ClusterAlgo::kKMeans, ClusterAlgo::kHacSingle,
                    ClusterAlgo::kHacWard}) {
    ClusterSelectOptions opts;
    opts.algo = algo;
    RandomEngine rng(19);
    Selection s = ClusterSelect(fm, f.featurizer->feature_schema(), members,
                                5, opts, &rng);
    EXPECT_EQ(s.parts.size(), 5u);
    double total = 0.0;
    for (const auto& wp : s.parts) total += wp.weight;
    EXPECT_DOUBLE_EQ(total, 25.0);
  }
}

TEST(LssStratifiedSelect, BudgetAndWeightInvariants) {
  std::vector<size_t> candidates;
  std::vector<double> scores;
  RandomEngine rng(3);
  for (size_t i = 0; i < 50; ++i) {
    candidates.push_back(i);
    scores.push_back(rng.NextDouble());
  }
  RandomEngine pick_rng(4);
  Selection s =
      LssPicker::StratifiedSelect(candidates, scores, 10, 4, &pick_rng);
  EXPECT_EQ(s.parts.size(), 10u);
  double total = 0.0;
  for (const auto& wp : s.parts) total += wp.weight;
  EXPECT_NEAR(total, 50.0, 1e-9);
}

TEST(LssStratifiedSelect, ConstantScoresFallBackToUniform) {
  std::vector<size_t> candidates{0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<double> scores(8, 0.5);
  RandomEngine rng(5);
  Selection s = LssPicker::StratifiedSelect(candidates, scores, 4, 4, &rng);
  EXPECT_EQ(s.parts.size(), 4u);
  for (const auto& wp : s.parts) EXPECT_DOUBLE_EQ(wp.weight, 2.0);
}

struct TrainedFixture : Fixture {
  TrainingData data;
  Ps3Model model;
  LssModel lss;

  explicit TrainedFixture(size_t rows = 8000, size_t partitions = 40)
      : Fixture(rows, partitions) {
    workload::QueryGenerator gen(table.get(), bundle.spec, {});
    data = BuildTrainingData(ctx, gen.GenerateSet(16, 77));
    Ps3Options opts;
    opts.gbdt.num_trees = 8;
    opts.feature_selection.enabled = false;
    model = TrainPs3(ctx, data, opts);
    LssOptions lss_opts;
    lss_opts.gbdt.num_trees = 8;
    lss_opts.eval_queries = 3;
    lss = TrainLss(ctx, data, lss_opts);
  }
};

TEST(Ps3Trainer, ProducesKRegressorsAndImportance) {
  TrainedFixture f;
  EXPECT_EQ(f.model.regressors.size(), 4u);
  EXPECT_EQ(f.model.thresholds.size(), 4u);
  double total = 0.0;
  for (double g : f.model.category_importance) {
    EXPECT_GE(g, 0.0);
    total += g;
  }
  EXPECT_NEAR(total, 1.0, 1e-6);
}

TEST(Ps3Picker, RespectsBudgetAndUniqueness) {
  TrainedFixture f;
  Ps3Picker picker(f.ctx, &f.model);
  for (size_t budget : {2ul, 5ul, 10ul, 20ul}) {
    for (size_t qi = 0; qi < 4; ++qi) {
      RandomEngine rng(31 + qi);
      Selection s = picker.Pick(f.data.queries[qi], budget, &rng, nullptr);
      EXPECT_LE(s.parts.size(), budget);
      std::set<size_t> distinct;
      for (const auto& wp : s.parts) {
        EXPECT_GT(wp.weight, 0.0);
        distinct.insert(wp.partition);
      }
      EXPECT_EQ(distinct.size(), s.parts.size()) << "duplicate partitions";
    }
  }
}

TEST(Ps3Picker, FullBudgetIsExact) {
  TrainedFixture f;
  Ps3Picker picker(f.ctx, &f.model);
  Query q = f.CountByNetwork();
  auto answers = query::EvaluateAllPartitions(
      q, storage::ResidentShardedSource(*f.parts));
  auto exact = query::ExactAnswer(q, answers);
  RandomEngine rng(17);
  Selection s = picker.Pick(q, f.parts->num_partitions(), &rng, nullptr);
  auto est = query::CombineWeighted(q, answers, s.parts);
  auto m = query::ComputeErrorMetrics(q, exact, est);
  EXPECT_DOUBLE_EQ(m.avg_rel_error, 0.0);
}

TEST(Ps3Picker, BeatsRandomAtLowBudget) {
  // Needs enough partitions that a ~12% budget is meaningful after the
  // funnel splits it across importance groups.
  TrainedFixture f(24000, 80);
  Ps3Picker ps3(f.ctx, &f.model);
  RandomPicker random(f.ctx);
  double ps3_err = 0.0, rnd_err = 0.0;
  for (size_t qi = 0; qi < f.data.queries.size(); ++qi) {
    const Query& q = f.data.queries[qi];
    auto eval = [&](const PartitionPicker& p, uint64_t seed) {
      double err = 0.0;
      for (int r = 0; r < 3; ++r) {
        RandomEngine rng(seed + r);
        Selection s = p.Pick(q, 10, &rng, nullptr);
        auto est = query::CombineWeighted(q, f.data.answers[qi], s.parts);
        err += query::ComputeErrorMetrics(q, f.data.exact[qi], est)
                   .avg_rel_error;
      }
      return err / 3.0;
    };
    ps3_err += eval(ps3, 100);
    rnd_err += eval(random, 200);
  }
  // Training queries: the easiest possible comparison — PS3 must win.
  EXPECT_LT(ps3_err, rnd_err);
}

TEST(Ps3Picker, TelemetryPopulated) {
  TrainedFixture f;
  Ps3Picker picker(f.ctx, &f.model);
  RandomEngine rng(23);
  PickTelemetry t;
  picker.Pick(f.data.queries[0], 10, &rng, &t);
  EXPECT_GT(t.total_ms, 0.0);
  EXPECT_GE(t.total_ms, t.clustering_ms);
}

TEST(Ps3Picker, OracleModeRuns) {
  TrainedFixture f;
  Ps3Picker picker(f.ctx, &f.model);
  picker.set_oracle([&f](const Query& q) {
    auto answers = query::EvaluateAllPartitions(
        q, storage::ResidentShardedSource(*f.parts));
    auto exact = query::ExactAnswer(q, answers);
    return ComputeContributions(q, answers, exact);
  });
  RandomEngine rng(29);
  Selection s = picker.Pick(f.data.queries[0], 8, &rng, nullptr);
  EXPECT_LE(s.parts.size(), 8u);
  EXPECT_GT(s.parts.size(), 0u);
}

TEST(Ps3Picker, LesionSwitchesRun) {
  TrainedFixture f;
  for (int lesion = 0; lesion < 3; ++lesion) {
    Ps3Model model = f.model;
    model.options.use_clustering = lesion != 0;
    model.options.use_outliers = lesion != 1;
    model.options.use_regressors = lesion != 2;
    Ps3Picker picker(f.ctx, &model);
    RandomEngine rng(37);
    Selection s = picker.Pick(f.data.queries[1], 10, &rng, nullptr);
    EXPECT_LE(s.parts.size(), 10u);
    EXPECT_GT(s.parts.size(), 0u);
  }
}

TEST(Ps3Picker, ComplexPredicateFallsBackToRandom) {
  TrainedFixture f;
  // >10 clauses forces the random fallback inside groups; the selection
  // must still satisfy the invariants.
  Query q;
  q.aggregates = {Aggregate::Count()};
  size_t col = static_cast<size_t>(
      f.table->schema().FindColumn("records_received_count"));
  std::vector<query::PredicatePtr> clauses;
  for (int i = 0; i < 12; ++i) {
    clauses.push_back(Predicate::NumericCompare(
        col, CompareOp::kGt, static_cast<double>(i)));
  }
  q.predicate = Predicate::And(std::move(clauses));
  Ps3Picker picker(f.ctx, &f.model);
  RandomEngine rng(43);
  Selection s = picker.Pick(q, 8, &rng, nullptr);
  EXPECT_LE(s.parts.size(), 8u);
  EXPECT_GT(s.parts.size(), 0u);
}

TEST(LssPicker, RespectsBudget) {
  TrainedFixture f;
  LssPicker picker(f.ctx, &f.lss);
  RandomEngine rng(41);
  Selection s = picker.Pick(f.data.queries[0], 10, &rng, nullptr);
  EXPECT_LE(s.parts.size(), 10u);
  EXPECT_GT(s.parts.size(), 0u);
}

TEST(LssModel, StrataSweepProducedEntries) {
  TrainedFixture f;
  EXPECT_FALSE(f.lss.strata_by_budget.empty());
  for (const auto& [budget, strata] : f.lss.strata_by_budget) {
    EXPECT_GT(strata, 1u);
  }
}

TEST(FeatureSelection, NeverExcludesEverythingAndHelps) {
  TrainedFixture f;
  FeatureSelectionOptions opts;
  opts.restarts = 1;
  opts.eval_queries = 3;
  auto excluded = SelectClusterFeatures(f.ctx, f.data, f.model.normalizer,
                                        ClusterAlgo::kKMeans, opts);
  ASSERT_EQ(excluded.size(), static_cast<size_t>(featurize::kNumStatKinds));
  bool all = true;
  for (bool b : excluded) all = all && b;
  EXPECT_FALSE(all);

  // The selected subset must score <= the full feature set on the
  // evaluation it optimized.
  RandomEngine rng(opts.seed);
  auto eval_queries =
      SampleWithoutReplacement(f.data.num_queries(), 3, &rng);
  std::vector<bool> none(featurize::kNumStatKinds, false);
  const auto normalized =
      NormalizeQueries(f.data, f.model.normalizer, eval_queries);
  double with_all = EvaluateClusteringError(
      f.ctx, f.data, normalized, ClusterAlgo::kKMeans, none, eval_queries,
      opts.budget_frac, opts.seed);
  double with_sel = EvaluateClusteringError(
      f.ctx, f.data, normalized, ClusterAlgo::kKMeans, excluded,
      eval_queries, opts.budget_frac, opts.seed);
  EXPECT_LE(with_sel, with_all + 1e-9);
}

TEST(Outliers, SubsetOfCandidatesNoDuplicates) {
  TrainedFixture f;
  Query q = f.CountByNetwork();
  std::vector<size_t> all;
  for (size_t p = 0; p < f.parts->num_partitions(); ++p) all.push_back(p);
  Ps3Picker picker(f.ctx, &f.model);
  auto outliers = picker.FindOutliers(q, all);
  std::set<size_t> uniq(outliers.begin(), outliers.end());
  EXPECT_EQ(uniq.size(), outliers.size());
  EXPECT_LE(outliers.size(), all.size());
}

TEST(Outliers, NoneWithoutGroupBy) {
  TrainedFixture f;
  Query q;
  q.aggregates = {Aggregate::Count()};
  std::vector<size_t> all{0, 1, 2, 3};
  Ps3Picker picker(f.ctx, &f.model);
  EXPECT_TRUE(picker.FindOutliers(q, all).empty());
}

/// FNV-1a over every Selection a picker makes for `queries` x budgets
/// {2, 5, 10, 20}% x 3 seeds: partition ids and weight bits, in order.
uint64_t PickHash(const PartitionPicker& picker,
                  const std::vector<Query>& queries, size_t n_parts) {
  uint64_t h = 14695981039346656037ULL;
  auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    for (double frac : {0.02, 0.05, 0.1, 0.2}) {
      const size_t budget = std::max<size_t>(
          1, static_cast<size_t>(frac * static_cast<double>(n_parts) + 0.5));
      for (uint64_t seed : {1ULL, 2ULL, 3ULL}) {
        RandomEngine rng(seed * 7919 + qi);
        Selection s = picker.Pick(queries[qi], budget, &rng, nullptr);
        mix(s.parts.size());
        for (const auto& wp : s.parts) {
          uint64_t bits;
          std::memcpy(&bits, &wp.weight, sizeof(bits));
          mix(wp.partition);
          mix(bits);
        }
      }
    }
  }
  return h;
}

// Every pick must stay bit-identical across refactors of the picking path
// (feature building, normalization, clustering kernels). The hashes were
// recorded with the plain path: BuildFeatures + Apply per query and a
// per-point SquaredL2 Lloyd loop. They assume x86-64 with glibc's libm
// (log1p, cbrt); a libm that rounds differently needs them re-recorded
// from that plain path.
TEST(PickGolden, SelectionsMatchRecordedHashes) {
  TrainedFixture f(16000, 100);
  workload::QueryGenerator gen(f.table.get(), f.bundle.spec, {});
  const std::vector<Query> queries = gen.GenerateSet(10, 4242);
  const size_t n_parts = f.parts->num_partitions();

  std::vector<std::pair<std::string, Ps3Model>> variants;
  variants.emplace_back("default", f.model);
  for (int lesion = 0; lesion < 3; ++lesion) {
    Ps3Model model = f.model;
    model.options.use_clustering = lesion != 0;
    model.options.use_outliers = lesion != 1;
    model.options.use_regressors = lesion != 2;
    variants.emplace_back("lesion" + std::to_string(lesion),
                          std::move(model));
  }
  {
    // A clustering feature mask exercises the per-kind dimension filter.
    Ps3Model model = f.model;
    for (auto kind : {featurize::StatKind::kMean, featurize::StatKind::kNumDv,
                      featurize::StatKind::kHhBitmap}) {
      model.excluded_kinds[static_cast<size_t>(kind)] = true;
    }
    variants.emplace_back("excluded_kinds", std::move(model));
  }
  const std::map<std::string, uint64_t> golden = {
      {"default", 0x0662a08996d1bfe8ULL},
      {"lesion0", 0x570e050c929be7faULL},
      {"lesion1", 0x43c5fa98c42e0eefULL},
      {"lesion2", 0x07a614171df3b2a6ULL},
      {"excluded_kinds", 0xd1666a09c6af8a65ULL},
      {"lss", 0x8e836a4d87487355ULL},
  };
  for (const auto& [name, model] : variants) {
    Ps3Picker picker(f.ctx, &model);
    const uint64_t h = PickHash(picker, queries, n_parts);
    EXPECT_EQ(h, golden.at(name)) << name << " 0x" << std::hex << h;
  }
  LssPicker lss(f.ctx, &f.lss);
  const uint64_t h = PickHash(lss, queries, n_parts);
  EXPECT_EQ(h, golden.at("lss")) << "lss 0x" << std::hex << h;
}

// Algorithm 3 scores candidate masks with the same clustering, so its
// output mask is pinned too (recorded alongside the pick hashes).
TEST(PickGolden, FeatureSelectionMaskMatchesRecorded) {
  TrainedFixture f(16000, 100);
  FeatureSelectionOptions opts;
  opts.restarts = 2;
  opts.eval_queries = 5;
  const auto excluded = SelectClusterFeatures(
      f.ctx, f.data, f.model.normalizer, ClusterAlgo::kKMeans, opts);
  uint32_t mask = 0;
  for (size_t k = 0; k < excluded.size(); ++k) {
    if (excluded[k]) mask |= 1u << k;
  }
  EXPECT_EQ(mask, 0x1380u) << "0x" << std::hex << mask;
}

}  // namespace
}  // namespace ps3::core
