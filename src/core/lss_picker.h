// Modified Learned Stratified Sampling baseline (§5.1.3, Appendix C.1):
// a single offline regressor predicts partition contribution; partitions
// are stratified into equi-width prediction bins, samples are allocated
// proportionally to stratum sizes, and the stratum count is swept on the
// training set per sampling budget (Table 8).
#ifndef PS3_CORE_LSS_PICKER_H_
#define PS3_CORE_LSS_PICKER_H_

#include <vector>

#include "core/picker.h"
#include "core/training_data.h"
#include "featurize/normalizer.h"
#include "ml/gbdt.h"

namespace ps3::core {

struct LssOptions {
  ml::GbdtParams gbdt;
  /// Stratum counts tried during the training sweep.
  std::vector<size_t> strata_candidates = {2, 4, 6, 8, 12};
  /// Budgets (fraction of partitions) the sweep tunes for.
  std::vector<double> tuning_budgets = {0.05, 0.1, 0.2, 0.4};
  /// Training queries used per (budget, strata) evaluation.
  int eval_queries = 6;
  uint64_t seed = 1234;
};

struct LssModel {
  featurize::FeatureNormalizer normalizer;
  ml::Gbdt regressor;
  /// (budget fraction, selected stratum count), ascending by budget.
  std::vector<std::pair<double, size_t>> strata_by_budget;
};

LssModel TrainLss(const PickerContext& ctx, const TrainingData& data,
                  const LssOptions& options);

class LssPicker : public PartitionPicker {
 public:
  /// Like Ps3Picker, reads `model`'s normalizer once, here.
  LssPicker(const PickerContext& ctx, const LssModel* model)
      : ctx_(ctx),
        model_(model),
        features_(*ctx.featurizer, model->normalizer) {}

  std::string name() const override { return "lss"; }
  Selection Pick(const query::Query& query, size_t budget, RandomEngine* rng,
                 PickTelemetry* telemetry) const override;

  /// Stratified selection given precomputed scores (exposed for tests and
  /// the training sweep).
  static Selection StratifiedSelect(const std::vector<size_t>& candidates,
                                    const std::vector<double>& scores,
                                    size_t budget, size_t n_strata,
                                    RandomEngine* rng);

 private:
  PickerContext ctx_;
  const LssModel* model_;
  featurize::NormalizedFeatures features_;
};

}  // namespace ps3::core

#endif  // PS3_CORE_LSS_PICKER_H_
