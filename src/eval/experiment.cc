#include "eval/experiment.h"

#include <cassert>

#include "core/labels.h"
#include "core/ps3_trainer.h"
#include "stats/stats_builder.h"
#include "storage/partition_source.h"

namespace ps3::eval {

std::vector<double> DefaultBudgets() {
  return {0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8};
}

Experiment::Experiment(ExperimentConfig config) : config_(std::move(config)) {
  auto made = workload::MakeDataset(config_.dataset, config_.rows,
                                    config_.seed);
  assert(made.ok());
  bundle_ = std::move(made).value();

  // Apply the layout: default sort, explicit sort, or random shuffle.
  std::vector<std::string> sort_cols =
      config_.layout.empty() ? bundle_.default_sort : config_.layout;
  if (sort_cols.size() == 1 && sort_cols[0] == "__random__") {
    RandomEngine rng(config_.seed ^ 0x5EED);
    laid_out_ = std::make_shared<storage::Table>(
        bundle_.table->Shuffled(&rng));
  } else {
    auto sorted = bundle_.table->SortedBy(sort_cols);
    assert(sorted.ok());
    laid_out_ = std::make_shared<storage::Table>(std::move(sorted).value());
  }
  parts_ = std::make_unique<storage::PartitionedTable>(laid_out_,
                                                       config_.partitions);

  // Statistics + featurizer.
  stats::StatsOptions stats_opts;
  for (const auto& name : bundle_.spec.groupby_columns) {
    int idx = laid_out_->schema().FindColumn(name);
    assert(idx >= 0);
    stats_opts.grouping_columns.push_back(static_cast<size_t>(idx));
  }
  stats::StatsBuilder builder(stats_opts);
  stats_ = std::make_unique<stats::TableStats>(builder.Build(*parts_));
  featurizer_ = std::make_unique<featurize::Featurizer>(laid_out_->schema(),
                                                        stats_.get());
  ctx_ = {parts_.get(), stats_.get(), featurizer_.get()};

  // Workloads: disjoint train/test sets from the same distribution.
  generator_ = std::make_unique<workload::QueryGenerator>(
      laid_out_.get(), bundle_.spec, config_.generator);
  if (!config_.build_workload) return;
  auto all = generator_->GenerateSet(
      config_.train_queries + config_.test_queries, config_.seed + 101);
  std::vector<query::Query> train(
      all.begin(),
      all.begin() + static_cast<ptrdiff_t>(
                        std::min(config_.train_queries, all.size())));
  std::vector<query::Query> test(
      all.begin() + static_cast<ptrdiff_t>(train.size()), all.end());

  training_ = core::BuildTrainingData(ctx_, std::move(train));
  SetTests(std::move(test));
}

TestQuery Experiment::BuildTest(query::Query q) const {
  TestQuery t;
  t.query = std::move(q);
  t.answers = query::EvaluateAllPartitions(
      t.query, storage::ResidentShardedSource(*parts_));
  t.exact = query::ExactAnswer(t.query, t.answers);
  // True predicate selectivity (for Figure 7): a pure bitmap-popcount scan.
  if (t.query.predicate) {
    size_t matched = query::CountMatchingRows(t.query.predicate, *parts_);
    t.true_selectivity = static_cast<double>(matched) /
                         static_cast<double>(laid_out_->num_rows());
  }
  return t;
}

void Experiment::SetTests(std::vector<query::Query> queries) {
  tests_.clear();
  tests_.reserve(queries.size());
  for (auto& q : queries) tests_.push_back(BuildTest(std::move(q)));
}

void Experiment::TrainModels() {
  if (trained_) return;
  ps3_model_ = core::TrainPs3(ctx_, training_, config_.ps3);
  lss_model_ = core::TrainLss(ctx_, training_, config_.lss);
  trained_ = true;
}

std::unique_ptr<core::PartitionPicker> Experiment::MakeRandom() const {
  return std::make_unique<core::RandomPicker>(ctx_);
}

std::unique_ptr<core::PartitionPicker> Experiment::MakeRandomFilter() const {
  return std::make_unique<core::RandomFilterPicker>(ctx_);
}

std::unique_ptr<core::PartitionPicker> Experiment::MakeLss() const {
  assert(trained_);
  return std::make_unique<core::LssPicker>(ctx_, &lss_model_);
}

std::unique_ptr<core::PartitionPicker> Experiment::MakePs3() const {
  assert(trained_);
  return std::make_unique<core::Ps3Picker>(ctx_, &ps3_model_);
}

std::unique_ptr<core::PartitionPicker> Experiment::MakePs3With(
    const core::Ps3Model* model) const {
  return std::make_unique<core::Ps3Picker>(ctx_, model);
}

std::unique_ptr<core::PartitionPicker> Experiment::MakeOracle(
    const core::Ps3Model* model) const {
  auto picker = std::make_unique<core::Ps3Picker>(ctx_, model);
  // Memoize contributions per query: the oracle re-scans the whole table,
  // and evaluation sweeps call Pick for the same query many times.
  auto cache = std::make_shared<
      std::unordered_map<std::string, std::vector<double>>>();
  picker->set_oracle([this, cache](const query::Query& q) {
    std::string key = q.ToString(laid_out_->schema());
    auto it = cache->find(key);
    if (it != cache->end()) return it->second;
    auto answers = query::EvaluateAllPartitions(
        q, storage::ResidentShardedSource(*parts_));
    auto exact = query::ExactAnswer(q, answers);
    auto contrib = core::ComputeContributions(q, answers, exact);
    cache->emplace(std::move(key), contrib);
    return contrib;
  });
  return picker;
}

size_t Experiment::BudgetFromFraction(double frac) const {
  double want = frac * static_cast<double>(parts_->num_partitions());
  size_t budget = static_cast<size_t>(want + 0.5);
  return std::max<size_t>(1, budget);
}

query::ErrorMetrics Experiment::EvaluateQuery(
    const core::PartitionPicker& picker, const TestQuery& test,
    double budget_frac, int runs, uint64_t seed) const {
  size_t budget = BudgetFromFraction(budget_frac);
  query::ErrorMetrics acc;
  for (int r = 0; r < runs; ++r) {
    RandomEngine rng(seed + static_cast<uint64_t>(r) * 92821ULL);
    core::Selection sel = picker.Pick(test.query, budget, &rng, nullptr);
    auto estimate =
        query::CombineWeighted(test.query, test.answers, sel.parts);
    acc += query::ComputeErrorMetrics(test.query, test.exact, estimate);
  }
  acc /= static_cast<double>(std::max(1, runs));
  return acc;
}

query::ErrorMetrics Experiment::Evaluate(const core::PartitionPicker& picker,
                                         double budget_frac, int runs,
                                         uint64_t seed) const {
  query::ErrorMetrics acc;
  for (const auto& t : tests_) {
    acc += EvaluateQuery(picker, t, budget_frac, runs, seed);
  }
  if (!tests_.empty()) acc /= static_cast<double>(tests_.size());
  return acc;
}

}  // namespace ps3::eval
