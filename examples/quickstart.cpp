// Quickstart: the full PS3 lifecycle in ~100 lines.
//
//   1. Ingest a partitioned table (here: the synthetic Aria service log).
//   2. Build per-partition summary statistics (one pass per partition).
//   3. Train the PS3 partition picker on a sampled workload.
//   4. Answer a query approximately by reading a handful of partitions,
//      and compare against the exact answer.
//
// Build: cmake --build build --target quickstart && ./build/examples/quickstart
#include <cstdio>

#include "core/ps3_picker.h"
#include "core/ps3_trainer.h"
#include "query/metrics.h"
#include "stats/stats_builder.h"
#include "storage/partition_source.h"
#include "workload/datasets.h"
#include "workload/generator.h"

using namespace ps3;

int main() {
  // --- 1. Data: 40k-row service request log, laid out by TenantId, cut
  // into 200 partitions (the granularity the storage layer tracks).
  workload::DatasetBundle bundle = workload::MakeAria(40000, /*seed=*/1);
  auto sorted = bundle.table->SortedBy(bundle.default_sort);
  auto table = std::make_shared<storage::Table>(std::move(sorted).value());
  storage::PartitionedTable partitions(table, 200);
  std::printf("dataset: %zu rows, %zu partitions\n", table->num_rows(),
              partitions.num_partitions());

  // --- 2. Summary statistics: measures, histograms, AKMV distinct-value
  // sketches and heavy hitters per column per partition (~KBs each).
  stats::StatsOptions stats_opts;
  for (const auto& col : bundle.spec.groupby_columns) {
    stats_opts.grouping_columns.push_back(
        static_cast<size_t>(table->schema().FindColumn(col)));
  }
  stats::TableStats stats = stats::StatsBuilder(stats_opts).Build(partitions);
  auto storage = stats.ComputeStorageReport();
  std::printf("statistics: %.1f KB per partition\n", storage.total_kb);

  // --- 3. Train the picker on a workload sampled from the spec.
  featurize::Featurizer featurizer(table->schema(), &stats);
  core::PickerContext ctx{&partitions, &stats, &featurizer};
  workload::QueryGenerator generator(table.get(), bundle.spec);
  core::TrainingData training =
      core::BuildTrainingData(ctx, generator.GenerateSet(32, /*seed=*/7));
  core::Ps3Options options;  // k=4 funnel models, alpha=2, 10% outliers
  core::Ps3Model model = core::TrainPs3(ctx, training, options);
  core::Ps3Picker picker(ctx, &model);
  std::printf("trained: %zu funnel regressors on %zu queries\n",
              model.regressors.size(), training.num_queries());

  // --- 4. Approximate a query with a 5%% partition budget.
  query::Query q;
  q.aggregates = {
      query::Aggregate::Count("requests"),
      query::Aggregate::Sum(
          query::Expr::Column(static_cast<size_t>(
              table->schema().FindColumn("records_received_count"))),
          "records"),
  };
  q.group_by = {static_cast<size_t>(
      table->schema().FindColumn("DeviceInfo_NetworkType"))};
  std::printf("\nquery: %s\n", q.ToString(table->schema()).c_str());

  auto per_partition = query::EvaluateAllPartitions(
      q, storage::ResidentShardedSource(partitions));
  auto exact = query::ExactAnswer(q, per_partition);

  RandomEngine rng(42);
  size_t budget = partitions.num_partitions() / 20;  // 5%
  core::Selection choice = picker.Pick(q, budget, &rng, nullptr);
  auto estimate = query::CombineWeighted(q, per_partition, choice.parts);

  std::printf("read %zu of %zu partitions (5%% budget)\n",
              choice.parts.size(), partitions.num_partitions());
  std::printf("%-24s %14s %14s\n", "group", "exact", "estimate");
  for (const auto& [key, truth] : exact) {
    auto it = estimate.find(key);
    const auto& net_col = *table->GetColumn("DeviceInfo_NetworkType").value();
    std::printf("%-24s %14.0f %14.0f\n",
                net_col.dict()->ValueOf(static_cast<int32_t>(key[0])).c_str(),
                truth[0], it == estimate.end() ? 0.0 : it->second[0]);
  }
  auto metrics = query::ComputeErrorMetrics(q, exact, estimate);
  std::printf("\navg relative error: %.2f%%  (missed groups: %.0f%%)\n",
              100.0 * metrics.avg_rel_error, 100.0 * metrics.missed_groups);
  return 0;
}
