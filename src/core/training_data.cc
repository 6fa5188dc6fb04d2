#include "core/training_data.h"

#include <future>
#include <vector>

#include "core/labels.h"
#include "runtime/query_scheduler.h"
#include "storage/partition_source.h"

namespace ps3::core {

TrainingData BuildTrainingData(const PickerContext& ctx,
                               std::vector<query::Query> queries) {
  TrainingData data;
  data.queries = std::move(queries);
  const size_t nq = data.queries.size();
  data.features.resize(nq);
  data.answers.resize(nq);
  data.exact.resize(nq);
  data.contributions.resize(nq);
  // The ground-truth labeling pass is the slowest step of training: every
  // query is evaluated exactly on every partition. Queries are admitted
  // concurrently through a QueryScheduler onto the shared resident pool,
  // so each query's partition scan is its own chunk-level job and the
  // in-flight queries interleave on shared lanes (previously one query's
  // ParallelFor owned the pool while the rest blocked). Results land in
  // index-addressed slots and every per-query reduction is ordered, so the
  // labels are bit-identical to serial evaluation for any driver or lane
  // count.
  runtime::QueryScheduler scheduler;
  std::vector<std::future<void>> done;
  done.reserve(nq);
  for (size_t i = 0; i < nq; ++i) {
    done.push_back(scheduler.Defer([&data, &ctx, i] {
      const query::Query& q = data.queries[i];
      data.features[i] = ctx.featurizer->BuildFeatures(q);
      data.answers[i] = query::EvaluateAllPartitions(
          q, storage::ResidentShardedSource(*ctx.table));
      data.exact[i] = query::ExactAnswer(q, data.answers[i]);
      data.contributions[i] =
          ComputeContributions(q, data.answers[i], data.exact[i]);
    }));
  }
  for (auto& f : done) f.get();
  return data;
}

std::vector<featurize::FeatureMatrix> NormalizeQueries(
    const TrainingData& data, const featurize::FeatureNormalizer& normalizer,
    const std::vector<size_t>& query_indices) {
  std::vector<featurize::FeatureMatrix> out;
  out.reserve(query_indices.size());
  for (size_t qi : query_indices) {
    out.push_back(data.features[qi]);
    normalizer.Apply(&out.back());
  }
  return out;
}

}  // namespace ps3::core
