// Scenario: approximate business reporting over a denormalized sales fact
// table (TPC-H* analog). Runs the pricing-summary (Q1-style) and revenue
// forecasting (Q6-style) reports at several sampling budgets, showing the
// accuracy/cost trade-off a report author would tune.
#include <cstdio>

#include "core/ps3_picker.h"
#include "core/ps3_trainer.h"
#include "query/metrics.h"
#include "stats/stats_builder.h"
#include "storage/partition_source.h"
#include "workload/datasets.h"
#include "workload/generator.h"
#include "workload/tpch_queries.h"

using namespace ps3;

int main() {
  workload::DatasetBundle bundle = workload::MakeTpchStar(60000, 5);
  auto sorted = bundle.table->SortedBy(bundle.default_sort);  // l_shipdate
  auto table = std::make_shared<storage::Table>(std::move(sorted).value());
  storage::PartitionedTable partitions(table, 300);

  stats::StatsOptions stats_opts;
  for (const auto& col : bundle.spec.groupby_columns) {
    stats_opts.grouping_columns.push_back(
        static_cast<size_t>(table->schema().FindColumn(col)));
  }
  stats::TableStats stats = stats::StatsBuilder(stats_opts).Build(partitions);
  featurize::Featurizer featurizer(table->schema(), &stats);
  core::PickerContext ctx{&partitions, &stats, &featurizer};

  // Train once on the generic reporting workload.
  workload::QueryGenerator generator(table.get(), bundle.spec);
  core::TrainingData training =
      core::BuildTrainingData(ctx, generator.GenerateSet(48, 21));
  core::Ps3Model model = core::TrainPs3(ctx, training, core::Ps3Options{});
  core::Ps3Picker picker(ctx, &model);

  RandomEngine rng(7);
  for (int template_id : {1, 6}) {
    auto made = workload::MakeTpchQuery(*table, template_id, &rng);
    if (!made.ok()) {
      std::fprintf(stderr, "template error: %s\n",
                   made.status().ToString().c_str());
      return 1;
    }
    query::Query q = std::move(made).value();
    std::printf("=== TPC-H Q%d analog ===\n%s\n", template_id,
                q.ToString(table->schema()).c_str());
    auto answers = query::EvaluateAllPartitions(
        q, storage::ResidentShardedSource(partitions));
    auto exact = query::ExactAnswer(q, answers);

    std::printf("%8s %12s %14s %14s\n", "budget", "partitions",
                "avg_rel_err", "missed_groups");
    for (double budget_frac : {0.02, 0.05, 0.10, 0.25}) {
      size_t budget = static_cast<size_t>(
          budget_frac * static_cast<double>(partitions.num_partitions()));
      core::Selection sel = picker.Pick(q, budget, &rng, nullptr);
      auto approx = query::CombineWeighted(q, answers, sel.parts);
      auto m = query::ComputeErrorMetrics(q, exact, approx);
      std::printf("%7.0f%% %12zu %13.2f%% %13.1f%%\n", 100.0 * budget_frac,
                  sel.parts.size(), 100.0 * m.avg_rel_error,
                  100.0 * m.missed_groups);
    }
    std::printf("\n");
  }
  return 0;
}
