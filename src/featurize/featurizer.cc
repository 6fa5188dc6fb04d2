#include "featurize/featurizer.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "runtime/worker_pool.h"

namespace ps3::featurize {

namespace {

double StaticFeatureValue(const stats::TableStats& stats, size_t part,
                          const FeatureDef& def) {
  const stats::ColumnStats& cs =
      stats.partition(part).columns[static_cast<size_t>(def.column)];
  switch (def.kind) {
    case StatKind::kMean:
      return cs.measures.mean();
    case StatKind::kMeanSq:
      return cs.measures.mean_sq();
    case StatKind::kStd:
      return cs.measures.std_dev();
    case StatKind::kMin:
      return cs.measures.min();
    case StatKind::kMax:
      return cs.measures.max();
    case StatKind::kLogMean:
      return cs.measures.log_mean();
    case StatKind::kLogMeanSq:
      return cs.measures.log_mean_sq();
    case StatKind::kLogMin:
      return cs.measures.has_log() ? cs.measures.log_min() : 0.0;
    case StatKind::kLogMax:
      return cs.measures.has_log() ? cs.measures.log_max() : 0.0;
    case StatKind::kNumDv:
      return cs.akmv.EstimateDistinct();
    case StatKind::kAvgDv:
      return cs.akmv.avg_frequency();
    case StatKind::kMaxDv:
      return cs.akmv.max_frequency();
    case StatKind::kMinDv:
      return cs.akmv.min_frequency();
    case StatKind::kSumDv:
      return cs.akmv.sum_frequency();
    case StatKind::kNumHh:
      return static_cast<double>(cs.heavy_hitters.NumHeavyHitters());
    case StatKind::kAvgHh:
      return cs.heavy_hitters.AvgFrequency();
    case StatKind::kMaxHh:
      return cs.heavy_hitters.MaxFrequency();
    case StatKind::kHhBitmap: {
      const auto& bm = stats.occurrence_bitmap(
          part, static_cast<size_t>(def.column));
      return def.bit < static_cast<int>(bm.size())
                 ? static_cast<double>(bm[def.bit])
                 : 0.0;
    }
    default:
      return 0.0;  // selectivity features are query-specific
  }
}

}  // namespace

Featurizer::Featurizer(const storage::Schema& schema,
                       const stats::TableStats* stats, int num_threads,
                       runtime::WorkerPool* pool)
    : table_schema_(schema),
      stats_(stats),
      num_threads_(num_threads),
      pool_(pool) {
  schema_ = FeatureSchema::Build(schema, *stats);
  const size_t n = stats->num_partitions();
  const size_t m = schema_.num_features();
  static_features_ = FeatureMatrix(n, m);
  feature_column_.resize(m);
  for (size_t j = 0; j < m; ++j) {
    feature_column_[j] = schema_.def(j).column;
  }
  for (size_t p = 0; p < n; ++p) {
    for (size_t j = 0; j < m; ++j) {
      if (feature_column_[j] < 0) continue;
      static_features_.At(p, j) = StaticFeatureValue(*stats, p,
                                                     schema_.def(j));
    }
  }
}

FeatureMatrix Featurizer::MaskStatic(const FeatureMatrix& statics,
                                     const query::Query& query) const {
  assert(statics.n == stats_->num_partitions() &&
         statics.m == schema_.num_features());
  std::vector<bool> column_used(table_schema_.num_columns(), false);
  for (size_t c : query.UsedColumns()) column_used[c] = true;
  // Kept features as [begin, end) runs: a column's features are adjacent
  // in the schema, so each used column is one run.
  std::vector<std::pair<size_t, size_t>> runs;
  for (size_t j = 0; j < statics.m; ++j) {
    const int col = feature_column_[j];
    if (col < 0 || !column_used[static_cast<size_t>(col)]) continue;
    if (!runs.empty() && runs.back().second == j) {
      runs.back().second = j + 1;
    } else {
      runs.emplace_back(j, j + 1);
    }
  }
  FeatureMatrix out(statics.n, statics.m);
  for (size_t p = 0; p < out.n; ++p) {
    const double* src = statics.Row(p);
    double* dst = out.Row(p);
    for (const auto& [begin, end] : runs) {
      std::copy(src + begin, src + end, dst + begin);
    }
  }
  return out;
}

FeatureMatrix Featurizer::BuildFeatures(const query::Query& query) const {
  FeatureMatrix out = MaskStatic(static_features_, query);
  // Query-specific selectivity features.
  auto sel = ComputeSelectivity(query);
  for (size_t p = 0; p < out.n; ++p) {
    out.At(p, schema_.sel_upper_index()) = sel[p].upper;
    out.At(p, schema_.sel_indep_index()) = sel[p].indep;
    out.At(p, schema_.sel_min_index()) = sel[p].min_clause;
    out.At(p, schema_.sel_max_index()) = sel[p].max_clause;
  }
  return out;
}

std::vector<SelectivityFeatures> Featurizer::ComputeSelectivity(
    const query::Query& query) const {
  std::vector<SelectivityFeatures> out(stats_->num_partitions());
  // Per-partition estimation is cheap sketch arithmetic; below this
  // partition count even waking the resident pool costs more than it saves.
  constexpr size_t kParallelThreshold = 64;
  if (out.size() < kParallelThreshold) {
    for (size_t p = 0; p < out.size(); ++p) {
      out[p] = EstimateSelectivity(query, stats_->partition(p));
    }
    return out;
  }
  runtime::WorkerPool& pool =
      pool_ != nullptr ? *pool_ : runtime::WorkerPool::Shared();
  pool.ParallelFor(
      out.size(),
      [&](size_t p) {
        out[p] = EstimateSelectivity(query, stats_->partition(p));
      },
      num_threads_);
  return out;
}

}  // namespace ps3::featurize
