// Builds per-partition feature matrices for a query: precomputed column
// statistics, query-dependent column masking, and query-specific
// selectivity estimates (§3.2).
#ifndef PS3_FEATURIZE_FEATURIZER_H_
#define PS3_FEATURIZE_FEATURIZER_H_

#include <vector>

#include "featurize/feature_schema.h"
#include "featurize/selectivity.h"
#include "query/query.h"
#include "stats/table_stats.h"
#include "storage/schema.h"

namespace ps3::runtime {
class WorkerPool;
}  // namespace ps3::runtime

namespace ps3::featurize {

/// Dense row-major matrix of partition features (N partitions x M features).
struct FeatureMatrix {
  size_t n = 0;
  size_t m = 0;
  std::vector<double> data;

  FeatureMatrix() = default;
  FeatureMatrix(size_t rows, size_t cols)
      : n(rows), m(cols), data(rows * cols, 0.0) {}

  double& At(size_t i, size_t j) { return data[i * m + j]; }
  double At(size_t i, size_t j) const { return data[i * m + j]; }
  const double* Row(size_t i) const { return data.data() + i * m; }
  double* Row(size_t i) { return data.data() + i * m; }
};

class Featurizer {
 public:
  /// Precomputes the static (query-independent) feature matrix.
  /// `num_threads` controls the per-partition parallelism of
  /// ComputeSelectivity / BuildFeatures (0 = hardware); results are
  /// identical for any value (partitions are independent, reductions are
  /// index-ordered). `pool` selects the resident pool those passes run on
  /// (nullptr = the process-wide shared pool); under concurrent admission
  /// `num_threads` is also this featurizer's lane cap per pass.
  Featurizer(const storage::Schema& schema, const stats::TableStats* stats,
             int num_threads = 0, runtime::WorkerPool* pool = nullptr);

  const FeatureSchema& feature_schema() const { return schema_; }
  const stats::TableStats& stats() const { return *stats_; }
  size_t num_partitions() const { return stats_->num_partitions(); }

  /// Full (unnormalized) feature matrix for a query: static features with
  /// unused columns masked to zero, plus the selectivity features. This is
  /// the training path: the normalizer is fit on these raw matrices.
  /// Pickers build their normalized matrices with NormalizedFeatures
  /// (featurize/normalizer.h), which gives the same doubles as this plus
  /// FeatureNormalizer::Apply without normalizing the static statistics
  /// per query.
  FeatureMatrix BuildFeatures(const query::Query& query) const;

  /// Selectivity features only, one entry per partition (cheaper than
  /// BuildFeatures; used by the predicate filter of every method).
  std::vector<SelectivityFeatures> ComputeSelectivity(
      const query::Query& query) const;

  /// The query-independent feature matrix; selectivity features are 0.
  const FeatureMatrix& static_features() const { return static_features_; }

  /// Masks `statics` (laid out like static_features()) for `query`: the
  /// features of the columns the query uses are copied, every other
  /// feature, the selectivity ones included, is +0.0.
  FeatureMatrix MaskStatic(const FeatureMatrix& statics,
                           const query::Query& query) const;

 private:
  storage::Schema table_schema_;
  const stats::TableStats* stats_;
  int num_threads_;
  runtime::WorkerPool* pool_;
  FeatureSchema schema_;
  FeatureMatrix static_features_;
  // For masking: per feature, the column it belongs to (-1 = query level).
  std::vector<int> feature_column_;
};

}  // namespace ps3::featurize

#endif  // PS3_FEATURIZE_FEATURIZER_H_
