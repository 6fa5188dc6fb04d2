#include "core/ps3_picker.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <map>
#include <unordered_set>

#include "common/math_util.h"
#include "core/cluster_select.h"
#include "core/random_picker.h"

namespace ps3::core {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

std::vector<size_t> Ps3Picker::FindOutliers(
    const query::Query& query, const std::vector<size_t>& candidates) const {
  if (query.group_by.empty()) return {};
  // Group candidates by their concatenated occurrence bitmaps over the
  // query's group-by columns (§4.4).
  std::vector<size_t> bitmap_cols;
  for (size_t c : query.group_by) {
    if (ctx_.stats->has_bitmap(c)) bitmap_cols.push_back(c);
  }
  if (bitmap_cols.empty()) return {};

  std::map<std::vector<uint8_t>, std::vector<size_t>> groups;
  for (size_t p : candidates) {
    std::vector<uint8_t> key;
    for (size_t c : bitmap_cols) {
      const auto& bm = ctx_.stats->occurrence_bitmap(p, c);
      key.insert(key.end(), bm.begin(), bm.end());
    }
    groups[std::move(key)].push_back(p);
  }
  size_t largest = 0;
  for (const auto& [key, members] : groups) {
    largest = std::max(largest, members.size());
  }
  // A bitmap group is outlying when small both in absolute and relative
  // terms (§4.4's "< 10 partitions AND < 10% of the largest group").
  std::vector<const std::vector<size_t>*> outlying;
  for (const auto& [key, members] : groups) {
    if (members.size() < model_->options.outlier_max_group_size &&
        static_cast<double>(members.size()) <
            model_->options.outlier_rel_size * static_cast<double>(largest)) {
      outlying.push_back(&members);
    }
  }
  std::sort(outlying.begin(), outlying.end(),
            [](const auto* a, const auto* b) { return a->size() < b->size(); });
  std::vector<size_t> out;
  for (const auto* g : outlying) {
    out.insert(out.end(), g->begin(), g->end());
  }
  return out;
}

std::vector<std::vector<size_t>> Ps3Picker::ImportanceGroups(
    const std::vector<size_t>& parts,
    const std::function<double(size_t, size_t)>& score, size_t k_models) {
  std::vector<std::vector<size_t>> groups;
  groups.push_back(parts);  // Algorithm 2: start from the filtered set
  for (size_t m = 0; m < k_models; ++m) {
    std::vector<size_t> stay, advance;
    for (size_t p : groups.back()) {
      if (score(p, m) > 0.0) {
        advance.push_back(p);
      } else {
        stay.push_back(p);
      }
    }
    groups.back() = std::move(stay);
    groups.push_back(std::move(advance));
  }
  return groups;
}

std::vector<size_t> Ps3Picker::AllocateSamples(
    const std::vector<size_t>& group_sizes, size_t budget, double alpha) {
  const size_t k = group_sizes.size();
  std::vector<size_t> alloc(k, 0);
  size_t total = 0;
  for (size_t s : group_sizes) total += s;
  if (total == 0 || budget == 0) return alloc;
  budget = std::min(budget, total);

  // rate(group i) = min(1, base / alpha^rank), rank 0 = most important
  // (= last group). The expected sample count is monotone in `base`, so
  // bisection finds the base rate matching the budget.
  auto expected = [&](double base) {
    double n = 0.0;
    for (size_t i = 0; i < k; ++i) {
      size_t rank = k - 1 - i;
      double rate = std::min(1.0, base / std::pow(alpha, double(rank)));
      n += rate * static_cast<double>(group_sizes[i]);
    }
    return n;
  };
  double lo = 0.0, hi = std::pow(alpha, double(k)) + 1.0;
  for (int it = 0; it < 60; ++it) {
    double mid = 0.5 * (lo + hi);
    if (expected(mid) < static_cast<double>(budget)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  double base = 0.5 * (lo + hi);

  // Integer allocation with largest-remainder rounding, capped per group.
  std::vector<double> frac(k);
  size_t assigned = 0;
  for (size_t i = 0; i < k; ++i) {
    size_t rank = k - 1 - i;
    double rate = std::min(1.0, base / std::pow(alpha, double(rank)));
    double want = rate * static_cast<double>(group_sizes[i]);
    alloc[i] = std::min(group_sizes[i], static_cast<size_t>(want));
    frac[i] = want - std::floor(want);
    assigned += alloc[i];
  }
  while (assigned < budget) {
    // Give the remaining slots to the groups with the largest remainders,
    // preferring more important groups on ties.
    size_t best = k;  // sentinel
    double best_frac = -1.0;
    for (size_t i = k; i-- > 0;) {
      if (alloc[i] >= group_sizes[i]) continue;
      if (frac[i] > best_frac) {
        best_frac = frac[i];
        best = i;
      }
    }
    if (best == k) break;  // every group saturated
    ++alloc[best];
    frac[best] = -1.0;
    ++assigned;
  }
  return alloc;
}

Selection Ps3Picker::Pick(const query::Query& query, size_t budget,
                          RandomEngine* rng, PickTelemetry* telemetry) const {
  auto start = Clock::now();
  double clustering_ms = 0.0;
  Selection out;
  if (budget == 0) return out;

  // One selectivity pass feeds both the perfect-recall predicate filter
  // and the selectivity features.
  const std::vector<featurize::SelectivityFeatures> sel =
      ctx_.featurizer->ComputeSelectivity(query);
  std::vector<size_t> candidates = FilterBySelectivity(sel);
  if (candidates.empty()) return out;
  if (budget >= candidates.size()) {
    for (size_t p : candidates) out.parts.push_back({p, 1.0});
    if (telemetry != nullptr) telemetry->total_ms = MsSince(start);
    return out;
  }

  // 1. Outliers (§4.4): small bitmap groups read exactly, weight 1.
  std::vector<size_t> selected_outliers;
  if (model_->options.use_outliers) {
    std::vector<size_t> outliers = FindOutliers(query, candidates);
    size_t n_o = std::min<size_t>(
        outliers.size(),
        static_cast<size_t>(model_->options.outlier_budget_frac *
                            static_cast<double>(budget)));
    selected_outliers.assign(outliers.begin(),
                             outliers.begin() + static_cast<ptrdiff_t>(n_o));
    for (size_t p : selected_outliers) out.parts.push_back({p, 1.0});
  }
  std::unordered_set<size_t> outlier_set(selected_outliers.begin(),
                                         selected_outliers.end());
  std::vector<size_t> inliers;
  inliers.reserve(candidates.size());
  for (size_t p : candidates) {
    if (!outlier_set.count(p)) inliers.push_back(p);
  }
  size_t remaining = budget - selected_outliers.size();
  if (remaining == 0 || inliers.empty()) {
    if (telemetry != nullptr) telemetry->total_ms = MsSince(start);
    return out;
  }

  // 2. Importance funnel (Algorithm 2).
  const featurize::FeatureMatrix features = features_.Build(query, sel);
  std::vector<std::vector<size_t>> groups;
  if (model_->options.use_regressors && !model_->regressors.empty()) {
    if (oracle_) {
      std::vector<double> contribution = oracle_(query);
      groups = ImportanceGroups(
          inliers,
          [&](size_t p, size_t m) {
            return contribution[p] > model_->thresholds[m] ? 1.0 : -1.0;
          },
          model_->regressors.size());
    } else {
      groups = ImportanceGroups(
          inliers,
          [&](size_t p, size_t m) {
            return model_->regressors[m].Predict(features.Row(p));
          },
          model_->regressors.size());
    }
  } else {
    groups.push_back(inliers);
  }

  // 3. Budget allocation across importance groups.
  std::vector<size_t> sizes(groups.size());
  for (size_t i = 0; i < groups.size(); ++i) sizes[i] = groups[i].size();
  std::vector<size_t> alloc =
      AllocateSamples(sizes, remaining, model_->options.alpha);

  // 4. Sample via clustering within each group (§4.2), falling back to
  // uniform sampling for very complex predicates (Appendix B.1) or when
  // clustering is disabled.
  const bool clustering_ok =
      model_->options.use_clustering &&
      query.NumPredicateClauses() <= model_->options.max_clauses_for_clustering;
  for (size_t i = 0; i < groups.size(); ++i) {
    if (alloc[i] == 0 || groups[i].empty()) continue;
    if (alloc[i] >= groups[i].size()) {
      for (size_t p : groups[i]) out.parts.push_back({p, 1.0});
      continue;
    }
    if (clustering_ok) {
      auto cl_start = Clock::now();
      ClusterSelectOptions cs;
      cs.algo = model_->options.cluster_algo;
      cs.unbiased_exemplar = model_->options.unbiased_exemplar;
      cs.excluded_kinds = &model_->excluded_kinds;
      Selection picked = ClusterSelect(features,
                                       ctx_.featurizer->feature_schema(),
                                       groups[i], alloc[i], cs, rng);
      clustering_ms += MsSince(cl_start);
      out.parts.insert(out.parts.end(), picked.parts.begin(),
                       picked.parts.end());
    } else {
      Selection picked = UniformSelection(groups[i], alloc[i], rng);
      out.parts.insert(out.parts.end(), picked.parts.begin(),
                       picked.parts.end());
    }
  }
  if (telemetry != nullptr) {
    telemetry->total_ms = MsSince(start);
    telemetry->clustering_ms = clustering_ms;
  }
  return out;
}

}  // namespace ps3::core
