// Baselines: uniform random partition sampling, with and without the
// selectivity-upper predicate filter (§5.1.3).
#ifndef PS3_CORE_RANDOM_PICKER_H_
#define PS3_CORE_RANDOM_PICKER_H_

#include "core/picker.h"

namespace ps3::core {

/// Uniform partition sample; answers scale by 1 / sampling-rate.
class RandomPicker : public PartitionPicker {
 public:
  explicit RandomPicker(const PickerContext& ctx) : ctx_(ctx) {}

  std::string name() const override { return "random"; }
  Selection Pick(const query::Query& query, size_t budget, RandomEngine* rng,
                 PickTelemetry* telemetry) const override;

 private:
  PickerContext ctx_;
};

/// Uniform sample restricted to partitions whose selectivity upper bound is
/// non-zero (perfect-recall filter; only possible with summary statistics).
class RandomFilterPicker : public PartitionPicker {
 public:
  explicit RandomFilterPicker(const PickerContext& ctx) : ctx_(ctx) {}

  std::string name() const override { return "random+filter"; }
  Selection Pick(const query::Query& query, size_t budget, RandomEngine* rng,
                 PickTelemetry* telemetry) const override;

 private:
  PickerContext ctx_;
};

/// Shared helper: partitions passing the selectivity filter.
std::vector<size_t> FilterBySelectivity(const PickerContext& ctx,
                                        const query::Query& query);

/// The same filter over an already computed selectivity pass: partitions
/// whose selectivity upper bound is non-zero.
std::vector<size_t> FilterBySelectivity(
    const std::vector<featurize::SelectivityFeatures>& sel);

/// Uniform sample of `budget` members of `candidates` with Horvitz-Thompson
/// weights |candidates| / budget.
Selection UniformSelection(const std::vector<size_t>& candidates,
                           size_t budget, RandomEngine* rng);

}  // namespace ps3::core

#endif  // PS3_CORE_RANDOM_PICKER_H_
