#include "core/lss_picker.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "core/random_picker.h"
#include "ml/binned.h"
#include "query/metrics.h"

namespace ps3::core {

Selection LssPicker::StratifiedSelect(const std::vector<size_t>& candidates,
                                      const std::vector<double>& scores,
                                      size_t budget, size_t n_strata,
                                      RandomEngine* rng) {
  assert(candidates.size() == scores.size());
  Selection out;
  if (candidates.empty() || budget == 0) return out;
  if (budget >= candidates.size()) {
    for (size_t p : candidates) out.parts.push_back({p, 1.0});
    return out;
  }
  // An unsampled stratum would drop its population mass from the
  // estimate, so never use more strata than the budget allows.
  n_strata = std::min(n_strata, budget);
  double lo = *std::min_element(scores.begin(), scores.end());
  double hi = *std::max_element(scores.begin(), scores.end());
  if (hi <= lo || n_strata <= 1) {
    return UniformSelection(candidates, budget, rng);
  }

  // Equi-width strata over the prediction range.
  std::vector<std::vector<size_t>> strata(n_strata);
  double width = (hi - lo) / static_cast<double>(n_strata);
  for (size_t i = 0; i < candidates.size(); ++i) {
    size_t s = static_cast<size_t>((scores[i] - lo) / width);
    if (s >= n_strata) s = n_strata - 1;
    strata[s].push_back(candidates[i]);
  }

  // Allocation: one guaranteed sample per non-empty stratum (possible
  // because n_strata <= budget), then the remaining budget proportionally
  // to stratum sizes with largest-remainder rounding. The guarantee keeps
  // every stratum's mass in the estimate.
  const double total = static_cast<double>(candidates.size());
  std::vector<size_t> alloc(n_strata, 0);
  std::vector<double> frac(n_strata, 0.0);
  size_t assigned = 0;
  size_t nonempty = 0;
  for (size_t s = 0; s < n_strata; ++s) {
    if (!strata[s].empty()) ++nonempty;
  }
  size_t extra_budget = budget >= nonempty ? budget - nonempty : 0;
  for (size_t s = 0; s < n_strata; ++s) {
    if (strata[s].empty()) continue;
    double want = static_cast<double>(extra_budget) *
                  static_cast<double>(strata[s].size()) / total;
    alloc[s] = std::min(strata[s].size(),
                        1 + static_cast<size_t>(want));
    frac[s] = want - std::floor(want);
    assigned += alloc[s];
  }
  while (assigned < budget) {
    size_t best = n_strata;
    double best_frac = -1.0;
    for (size_t s = 0; s < n_strata; ++s) {
      if (alloc[s] >= strata[s].size()) continue;
      if (frac[s] > best_frac) {
        best_frac = frac[s];
        best = s;
      }
    }
    if (best == n_strata) break;
    ++alloc[best];
    frac[best] = -1.0;
    ++assigned;
  }

  for (size_t s = 0; s < n_strata; ++s) {
    if (alloc[s] == 0 || strata[s].empty()) continue;
    Selection picked = UniformSelection(strata[s], alloc[s], rng);
    out.parts.insert(out.parts.end(), picked.parts.begin(),
                     picked.parts.end());
  }
  return out;
}

LssModel TrainLss(const PickerContext& ctx, const TrainingData& data,
                  const LssOptions& options) {
  LssModel model;
  const featurize::FeatureSchema& schema = ctx.featurizer->feature_schema();
  std::vector<const featurize::FeatureMatrix*> raw;
  for (const auto& fm : data.features) raw.push_back(&fm);
  model.normalizer.Fit(schema, raw);

  // Stack normalized features; labels are the partition contributions.
  const size_t n_parts = ctx.featurizer->num_partitions();
  const size_t m = schema.num_features();
  std::vector<double> stacked;
  std::vector<double> y;
  stacked.reserve(data.num_queries() * n_parts * m);
  for (size_t qi = 0; qi < data.num_queries(); ++qi) {
    featurize::FeatureMatrix norm = data.features[qi];
    model.normalizer.Apply(&norm);
    stacked.insert(stacked.end(), norm.data.begin(), norm.data.end());
    y.insert(y.end(), data.contributions[qi].begin(),
             data.contributions[qi].end());
  }
  ml::ConstMatrixView X{stacked.data(), y.size(), m};
  ml::BinnedDataset binned = ml::BinnedDataset::Build(X);
  ml::GbdtParams params = options.gbdt;
  params.seed = options.seed;
  model.regressor = ml::Gbdt::Train(binned, y, params);

  // Strata sweep (Appendix C.1): per tuning budget, pick the stratum count
  // minimizing training-set average relative error.
  RandomEngine rng(options.seed);
  size_t want = std::min<size_t>(
      static_cast<size_t>(std::max(1, options.eval_queries)),
      data.num_queries());
  auto eval_queries =
      SampleWithoutReplacement(data.num_queries(), want, &rng);

  // Normalize the evaluation queries once for the whole sweep.
  const std::vector<featurize::FeatureMatrix> eval_features =
      NormalizeQueries(data, model.normalizer, eval_queries);

  for (double budget_frac : options.tuning_budgets) {
    size_t budget = std::max<size_t>(
        1, static_cast<size_t>(budget_frac * static_cast<double>(n_parts)));
    size_t best_strata = options.strata_candidates.front();
    double best_err = std::numeric_limits<double>::max();
    for (size_t n_strata : options.strata_candidates) {
      double err_sum = 0.0;
      for (size_t e = 0; e < eval_queries.size(); ++e) {
        size_t qi = eval_queries[e];
        const auto& raw_fm = data.features[qi];
        std::vector<size_t> candidates;
        std::vector<double> scores;
        for (size_t p = 0; p < n_parts; ++p) {
          if (raw_fm.At(p, schema.sel_upper_index()) > 0.0) {
            candidates.push_back(p);
            scores.push_back(model.regressor.Predict(eval_features[e].Row(p)));
          }
        }
        RandomEngine eval_rng(options.seed + qi * 7 + n_strata * 131);
        Selection sel = LssPicker::StratifiedSelect(candidates, scores, budget, n_strata,
                                         &eval_rng);
        auto estimate = query::CombineWeighted(data.queries[qi],
                                               data.answers[qi], sel.parts);
        err_sum += query::ComputeErrorMetrics(data.queries[qi],
                                              data.exact[qi], estimate)
                       .avg_rel_error;
      }
      if (err_sum < best_err) {
        best_err = err_sum;
        best_strata = n_strata;
      }
    }
    model.strata_by_budget.emplace_back(budget_frac, best_strata);
  }
  return model;
}

Selection LssPicker::Pick(const query::Query& query, size_t budget,
                          RandomEngine* rng, PickTelemetry* telemetry) const {
  (void)telemetry;
  Selection out;
  if (budget == 0) return out;
  const std::vector<featurize::SelectivityFeatures> sel =
      ctx_.featurizer->ComputeSelectivity(query);
  std::vector<size_t> candidates = FilterBySelectivity(sel);
  if (candidates.empty()) return out;
  if (budget >= candidates.size()) {
    for (size_t p : candidates) out.parts.push_back({p, 1.0});
    return out;
  }
  const featurize::FeatureMatrix features = features_.Build(query, sel);
  std::vector<double> scores;
  scores.reserve(candidates.size());
  for (size_t p : candidates) {
    scores.push_back(model_->regressor.Predict(features.Row(p)));
  }
  // Stratum count tuned for the nearest budget.
  double budget_frac = static_cast<double>(budget) /
                       static_cast<double>(ctx_.table->num_partitions());
  size_t n_strata = 4;
  double best_gap = std::numeric_limits<double>::max();
  for (const auto& [b, s] : model_->strata_by_budget) {
    double gap = std::fabs(b - budget_frac);
    if (gap < best_gap) {
      best_gap = gap;
      n_strata = s;
    }
  }
  return StratifiedSelect(candidates, scores, budget, n_strata, rng);
}

}  // namespace ps3::core
