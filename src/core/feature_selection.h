// Clustering feature selection (§4.2, Algorithm 3): greedy leave-one-out
// exclusion of statistic kinds, scored by the clustering-only estimation
// error on training queries, with random-restart outer loops.
#ifndef PS3_CORE_FEATURE_SELECTION_H_
#define PS3_CORE_FEATURE_SELECTION_H_

#include <vector>

#include "core/picker.h"
#include "core/ps3_model.h"
#include "core/training_data.h"

namespace ps3::core {

/// Average relative error of pure clustering-based selection (no funnel,
/// no outliers) over the given training queries at one sampling budget.
/// `normalized[e]` is the normalized feature matrix of training query
/// `query_indices[e]` (see NormalizeQueries). Used both by Algorithm 3
/// and by the Table 6/7 benchmarks.
double EvaluateClusteringError(
    const PickerContext& ctx, const TrainingData& data,
    const std::vector<featurize::FeatureMatrix>& normalized,
    ClusterAlgo algo, const std::vector<bool>& excluded_kinds,
    const std::vector<size_t>& query_indices, double budget_frac,
    uint64_t seed);

/// Runs Algorithm 3 and returns the per-StatKind exclusion mask.
std::vector<bool> SelectClusterFeatures(
    const PickerContext& ctx, const TrainingData& data,
    const featurize::FeatureNormalizer& normalizer, ClusterAlgo algo,
    const FeatureSelectionOptions& options);

}  // namespace ps3::core

#endif  // PS3_CORE_FEATURE_SELECTION_H_
