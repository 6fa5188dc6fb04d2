// Shared training corpus: for each training query, its raw feature matrix,
// exact per-partition answers and contribution labels. Built once per
// (dataset, layout, workload) and reused by the PS3 trainer, the LSS
// baseline and the clustering feature selection.
#ifndef PS3_CORE_TRAINING_DATA_H_
#define PS3_CORE_TRAINING_DATA_H_

#include <vector>

#include "core/picker.h"
#include "featurize/featurizer.h"
#include "featurize/normalizer.h"
#include "query/evaluator.h"
#include "query/query.h"

namespace ps3::core {

struct TrainingData {
  std::vector<query::Query> queries;
  /// Raw (unnormalized) feature matrices, one per query.
  std::vector<featurize::FeatureMatrix> features;
  /// Exact per-partition answers, one vector per query.
  std::vector<std::vector<query::PartitionAnswer>> answers;
  /// Exact full answers.
  std::vector<query::QueryAnswer> exact;
  /// Partition contributions (§4.3).
  std::vector<std::vector<double>> contributions;

  size_t num_queries() const { return queries.size(); }
};

/// Evaluates every query on every partition and featurizes it.
TrainingData BuildTrainingData(const PickerContext& ctx,
                               std::vector<query::Query> queries);

/// Normalized copies of the raw feature matrices of the queries at
/// `query_indices`, in that order. Training loops that score many
/// candidates on the same queries normalize them once with this.
std::vector<featurize::FeatureMatrix> NormalizeQueries(
    const TrainingData& data, const featurize::FeatureNormalizer& normalizer,
    const std::vector<size_t>& query_indices);

}  // namespace ps3::core

#endif  // PS3_CORE_TRAINING_DATA_H_
