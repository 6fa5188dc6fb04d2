#include "core/random_picker.h"

namespace ps3::core {

std::vector<size_t> FilterBySelectivity(const PickerContext& ctx,
                                        const query::Query& query) {
  return FilterBySelectivity(ctx.featurizer->ComputeSelectivity(query));
}

std::vector<size_t> FilterBySelectivity(
    const std::vector<featurize::SelectivityFeatures>& sel) {
  std::vector<size_t> out;
  out.reserve(sel.size());
  for (size_t p = 0; p < sel.size(); ++p) {
    if (sel[p].upper > 0.0) out.push_back(p);
  }
  return out;
}

Selection UniformSelection(const std::vector<size_t>& candidates,
                           size_t budget, RandomEngine* rng) {
  Selection s;
  if (candidates.empty() || budget == 0) return s;
  if (budget >= candidates.size()) {
    for (size_t p : candidates) s.parts.push_back({p, 1.0});
    return s;
  }
  auto idx = SampleWithoutReplacement(candidates.size(), budget, rng);
  double weight = static_cast<double>(candidates.size()) /
                  static_cast<double>(budget);
  s.parts.reserve(budget);
  for (size_t i : idx) s.parts.push_back({candidates[i], weight});
  return s;
}

Selection RandomPicker::Pick(const query::Query& query, size_t budget,
                             RandomEngine* rng,
                             PickTelemetry* telemetry) const {
  (void)query;
  (void)telemetry;
  std::vector<size_t> all(ctx_.table->num_partitions());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  return UniformSelection(all, budget, rng);
}

Selection RandomFilterPicker::Pick(const query::Query& query, size_t budget,
                                   RandomEngine* rng,
                                   PickTelemetry* telemetry) const {
  (void)telemetry;
  return UniformSelection(FilterBySelectivity(ctx_, query), budget, rng);
}

}  // namespace ps3::core
