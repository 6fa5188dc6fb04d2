#include "core/feature_selection.h"

#include <algorithm>
#include <cassert>
#include <map>

#include "core/cluster_select.h"
#include "query/metrics.h"

namespace ps3::core {

double EvaluateClusteringError(
    const PickerContext& ctx, const TrainingData& data,
    const std::vector<featurize::FeatureMatrix>& normalized,
    ClusterAlgo algo, const std::vector<bool>& excluded_kinds,
    const std::vector<size_t>& query_indices, double budget_frac,
    uint64_t seed) {
  assert(normalized.size() == query_indices.size());
  const featurize::FeatureSchema& schema = ctx.featurizer->feature_schema();
  const size_t n_parts = ctx.featurizer->num_partitions();
  double total_err = 0.0;
  size_t counted = 0;
  for (size_t e = 0; e < query_indices.size(); ++e) {
    const size_t qi = query_indices[e];
    const auto& raw = data.features[qi];
    // Candidates: perfect-recall selectivity filter (raw upper bound > 0;
    // the cube-root normalization preserves the sign so either works).
    std::vector<size_t> candidates;
    for (size_t p = 0; p < n_parts; ++p) {
      if (raw.At(p, schema.sel_upper_index()) > 0.0) candidates.push_back(p);
    }
    if (candidates.empty()) continue;
    size_t n = std::max<size_t>(
        1, static_cast<size_t>(budget_frac *
                               static_cast<double>(n_parts)));
    n = std::min(n, candidates.size());

    ClusterSelectOptions cs;
    cs.algo = algo;
    cs.excluded_kinds = &excluded_kinds;
    cs.kmeans_iters = 8;  // scoring needs relative, not converged, quality
    RandomEngine rng(seed + qi * 1315423911ULL);
    Selection sel =
        ClusterSelect(normalized[e], schema, candidates, n, cs, &rng);
    auto estimate =
        query::CombineWeighted(data.queries[qi], data.answers[qi], sel.parts);
    total_err += query::ComputeErrorMetrics(data.queries[qi], data.exact[qi],
                                            estimate)
                     .avg_rel_error;
    ++counted;
  }
  return counted > 0 ? total_err / static_cast<double>(counted) : 0.0;
}

std::vector<bool> SelectClusterFeatures(
    const PickerContext& ctx, const TrainingData& data,
    const featurize::FeatureNormalizer& normalizer, ClusterAlgo algo,
    const FeatureSelectionOptions& options) {
  RandomEngine rng(options.seed);
  // Evaluation queries: a fixed random subset of the training workload.
  std::vector<size_t> eval_queries;
  {
    size_t want = std::min<size_t>(
        static_cast<size_t>(std::max(1, options.eval_queries)),
        data.num_queries());
    eval_queries = SampleWithoutReplacement(data.num_queries(), want, &rng);
  }
  // Normalize each evaluation query once; every candidate mask reuses it.
  const std::vector<featurize::FeatureMatrix> normalized =
      NormalizeQueries(data, normalizer, eval_queries);

  // Memoize candidate scores by exclusion bitmask.
  std::map<uint32_t, double> cache;
  auto score = [&](const std::vector<bool>& excluded) {
    uint32_t key = 0;
    for (int k = 0; k < featurize::kNumStatKinds; ++k) {
      if (excluded[static_cast<size_t>(k)]) key |= 1u << k;
    }
    auto it = cache.find(key);
    if (it != cache.end()) return it->second;
    double err = EvaluateClusteringError(ctx, data, normalized, algo,
                                         excluded, eval_queries,
                                         options.budget_frac, options.seed);
    cache.emplace(key, err);
    return err;
  };

  std::vector<bool> best(featurize::kNumStatKinds, false);
  double best_err = score(best);

  std::vector<int> kinds(featurize::kNumStatKinds);
  for (int k = 0; k < featurize::kNumStatKinds; ++k) kinds[k] = k;

  for (int restart = 0; restart < options.restarts; ++restart) {
    Shuffle(&kinds, &rng);  // explore kinds in a random order
    std::vector<bool> excluded(featurize::kNumStatKinds, false);
    double cur_err = score(excluded);
    for (int k : kinds) {
      std::vector<bool> trial = excluded;
      trial[static_cast<size_t>(k)] = true;
      // Never exclude everything.
      if (std::all_of(trial.begin(), trial.end(),
                      [](bool b) { return b; })) {
        continue;
      }
      double err = score(trial);
      if (err < cur_err) {
        excluded = std::move(trial);
        cur_err = err;
      }
    }
    if (cur_err < best_err) {
      best = excluded;
      best_err = cur_err;
    }
  }
  return best;
}

}  // namespace ps3::core
