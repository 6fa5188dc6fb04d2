// The PS3 partition picker (Algorithm 1): outliers -> importance funnel ->
// geometric budget allocation -> sample-via-clustering.
#ifndef PS3_CORE_PS3_PICKER_H_
#define PS3_CORE_PS3_PICKER_H_

#include <functional>
#include <vector>

#include "core/picker.h"
#include "core/ps3_model.h"

namespace ps3::core {

/// Replaces the learned regressors with ground truth in the funnel
/// (perfect precision/recall "oracle" of Appendix C.2). Returns the true
/// contribution of every partition for the query.
using OracleFn = std::function<std::vector<double>(const query::Query&)>;

class Ps3Picker : public PartitionPicker {
 public:
  /// Reads `model`'s normalizer once, here: the normalized static
  /// statistics (n x m doubles, ~1.3 MB at 400 partitions x 403 features)
  /// are computed at construction, so later changes to the normalizer do
  /// not reach this picker. The rest of the model (options, regressors,
  /// exclusion mask) is read on every Pick; `model` must outlive it.
  Ps3Picker(const PickerContext& ctx, const Ps3Model* model)
      : ctx_(ctx),
        model_(model),
        features_(*ctx.featurizer, model->normalizer) {}

  std::string name() const override { return "ps3"; }

  Selection Pick(const query::Query& query, size_t budget, RandomEngine* rng,
                 PickTelemetry* telemetry) const override;

  /// Installs an oracle used instead of the trained regressors.
  void set_oracle(OracleFn oracle) { oracle_ = std::move(oracle); }

  // --- exposed for unit tests and benches ---

  /// Outlier partitions (§4.4) among `candidates` for this query, ordered
  /// by ascending bitmap-group size.
  std::vector<size_t> FindOutliers(const query::Query& query,
                                   const std::vector<size_t>& candidates)
      const;

  /// Importance funnel (Algorithm 2); result groups are ordered least to
  /// most important. `scores(p, model_idx)` > 0 advances partition p.
  static std::vector<std::vector<size_t>> ImportanceGroups(
      const std::vector<size_t>& parts,
      const std::function<double(size_t, size_t)>& score, size_t k_models);

  /// Geometric budget allocation: group i (least important first) gets
  /// sampling rate base / alpha^(rank from most important), solved so the
  /// totals sum to `budget`. Returns per-group sample counts.
  static std::vector<size_t> AllocateSamples(
      const std::vector<size_t>& group_sizes, size_t budget, double alpha);

 private:
  PickerContext ctx_;
  const Ps3Model* model_;
  featurize::NormalizedFeatures features_;
  OracleFn oracle_;
};

}  // namespace ps3::core

#endif  // PS3_CORE_PS3_PICKER_H_
