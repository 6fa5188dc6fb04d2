// End-to-end experiment harness shared by the bench binaries: builds a
// dataset + layout + partitioning + statistics + featurizer, trains the
// PS3 and LSS models, and evaluates pickers on a held-out query set under
// varying sampling budgets (§5.1).
#ifndef PS3_EVAL_EXPERIMENT_H_
#define PS3_EVAL_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "core/lss_picker.h"
#include "core/picker.h"
#include "core/ps3_model.h"
#include "core/ps3_picker.h"
#include "core/random_picker.h"
#include "core/training_data.h"
#include "query/metrics.h"
#include "workload/datasets.h"
#include "workload/generator.h"

namespace ps3::eval {

struct ExperimentConfig {
  std::string dataset = "aria";
  size_t rows = 80000;
  size_t partitions = 400;
  /// Sort columns for the layout; empty uses the dataset default;
  /// {"__random__"} shuffles.
  std::vector<std::string> layout;
  size_t train_queries = 96;
  size_t test_queries = 48;
  /// Skip workload generation and exact evaluation (stats-only benches).
  bool build_workload = true;
  uint64_t seed = 7;
  core::Ps3Options ps3;
  core::LssOptions lss;
  workload::GeneratorOptions generator;
};

/// One held-out test query with its cached exact evaluation.
struct TestQuery {
  query::Query query;
  std::vector<query::PartitionAnswer> answers;
  query::QueryAnswer exact;
  double true_selectivity = 1.0;  ///< fraction of rows passing predicate
};

class Experiment {
 public:
  explicit Experiment(ExperimentConfig config);

  /// Trains the PS3 and LSS models (slow part; separated so that benches
  /// that only need statistics can skip it).
  void TrainModels();

  const ExperimentConfig& config() const { return config_; }
  const core::PickerContext& ctx() const { return ctx_; }
  const storage::PartitionedTable& table() const { return *parts_; }
  const stats::TableStats& stats() const { return *stats_; }
  const core::TrainingData& training_data() const { return training_; }
  const core::Ps3Model& ps3_model() const { return ps3_model_; }
  core::Ps3Model* mutable_ps3_model() { return &ps3_model_; }
  const core::LssModel& lss_model() const { return lss_model_; }
  const std::vector<TestQuery>& tests() const { return tests_; }
  const workload::QueryGenerator& generator() const { return *generator_; }

  /// Replaces the held-out test set (e.g. with TPC-H template queries).
  void SetTests(std::vector<query::Query> queries);

  // Picker factories (models must be trained for lss/ps3/oracle).
  std::unique_ptr<core::PartitionPicker> MakeRandom() const;
  std::unique_ptr<core::PartitionPicker> MakeRandomFilter() const;
  std::unique_ptr<core::PartitionPicker> MakeLss() const;
  std::unique_ptr<core::PartitionPicker> MakePs3() const;
  /// PS3 with a custom model (lesion studies, alpha sweeps, ...).
  std::unique_ptr<core::PartitionPicker> MakePs3With(
      const core::Ps3Model* model) const;
  /// PS3 whose funnel uses true contributions instead of regressors.
  std::unique_ptr<core::PartitionPicker> MakeOracle(
      const core::Ps3Model* model) const;

  size_t BudgetFromFraction(double frac) const;

  /// Average error of `picker` over the full test set at one budget
  /// fraction, averaged over `runs` random repetitions.
  query::ErrorMetrics Evaluate(const core::PartitionPicker& picker,
                               double budget_frac, int runs,
                               uint64_t seed = 1) const;

  /// Same, restricted to one test query.
  query::ErrorMetrics EvaluateQuery(const core::PartitionPicker& picker,
                                    const TestQuery& test, double budget_frac,
                                    int runs, uint64_t seed = 1) const;

 private:
  TestQuery BuildTest(query::Query q) const;

  ExperimentConfig config_;
  workload::DatasetBundle bundle_;
  std::shared_ptr<storage::Table> laid_out_;
  std::unique_ptr<storage::PartitionedTable> parts_;
  std::unique_ptr<stats::TableStats> stats_;
  std::unique_ptr<featurize::Featurizer> featurizer_;
  std::unique_ptr<workload::QueryGenerator> generator_;
  core::PickerContext ctx_;
  core::TrainingData training_;
  std::vector<TestQuery> tests_;
  core::Ps3Model ps3_model_;
  core::LssModel lss_model_;
  bool trained_ = false;
};

/// The budget grid used by most figures (fractions of partitions read).
std::vector<double> DefaultBudgets();

}  // namespace ps3::eval

#endif  // PS3_EVAL_EXPERIMENT_H_
