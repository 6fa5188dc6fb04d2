// Scenario: an interactive dashboard over a production service request log
// (the paper's §1 motivation). A dashboard refresh issues a batch of
// group-by queries; with PS3 each one reads a few percent of partitions
// instead of the whole log, trading a bounded approximation error for a
// near-linear reduction in compute.
//
// The example prints, per dashboard panel, the exact vs approximate top
// groups and the error achieved at a 4% partition budget.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/ps3_picker.h"
#include "core/ps3_trainer.h"
#include "eval/cost_model.h"
#include "query/metrics.h"
#include "stats/stats_builder.h"
#include "storage/partition_source.h"
#include "workload/datasets.h"
#include "workload/generator.h"

using namespace ps3;

namespace {

struct Panel {
  const char* title;
  query::Query query;
};

size_t Col(const storage::Table& t, const char* name) {
  return static_cast<size_t>(t.schema().FindColumn(name));
}

}  // namespace

int main() {
  // The log, in TenantId order (as ingested), 250 partitions.
  workload::DatasetBundle bundle = workload::MakeAria(50000, 3);
  auto sorted = bundle.table->SortedBy(bundle.default_sort);
  auto table = std::make_shared<storage::Table>(std::move(sorted).value());
  storage::PartitionedTable partitions(table, 250);

  stats::StatsOptions stats_opts;
  for (const auto& col : bundle.spec.groupby_columns) {
    stats_opts.grouping_columns.push_back(Col(*table, col.c_str()));
  }
  stats::TableStats stats = stats::StatsBuilder(stats_opts).Build(partitions);
  featurize::Featurizer featurizer(table->schema(), &stats);
  core::PickerContext ctx{&partitions, &stats, &featurizer};

  workload::QueryGenerator generator(table.get(), bundle.spec);
  core::TrainingData training =
      core::BuildTrainingData(ctx, generator.GenerateSet(40, 11));
  core::Ps3Model model = core::TrainPs3(ctx, training, core::Ps3Options{});
  core::Ps3Picker picker(ctx, &model);

  // Dashboard panels.
  std::vector<Panel> panels;
  {
    query::Query q;
    q.aggregates = {query::Aggregate::Count("requests")};
    q.group_by = {Col(*table, "DeviceInfo_NetworkType")};
    panels.push_back({"Requests by network type", q});
  }
  {
    query::Query q;
    q.aggregates = {query::Aggregate::Sum(
        query::Expr::Column(Col(*table, "olsize")), "payload_bytes")};
    q.group_by = {Col(*table, "AppInfo_Version")};
    panels.push_back({"Payload volume by app version", q});
  }
  {
    query::Query q;
    q.aggregates = {query::Aggregate::Avg(
        query::Expr::Column(Col(*table, "records_sent_count")),
        "avg_sent")};
    q.predicate = query::Predicate::NumericCompare(
        Col(*table, "records_received_count"), query::CompareOp::kGt, 50.0);
    q.group_by = {Col(*table, "UserInfo_TimeZone")};
    panels.push_back({"Send rate by timezone (busy senders)", q});
  }

  const size_t budget = 20;  // 8% of 250 partitions
  RandomEngine rng(99);
  double total_err = 0.0;
  for (const auto& panel : panels) {
    auto answers = query::EvaluateAllPartitions(
        panel.query, storage::ResidentShardedSource(partitions));
    auto exact = query::ExactAnswer(panel.query, answers);
    core::Selection sel = picker.Pick(panel.query, budget, &rng, nullptr);
    auto approx = query::CombineWeighted(panel.query, answers, sel.parts);
    auto metrics = query::ComputeErrorMetrics(panel.query, exact, approx);
    total_err += metrics.avg_rel_error;

    std::printf("=== %s ===\n", panel.title);
    std::printf("  read %zu/%zu partitions; avg rel err %.1f%%, missed "
                "groups %.1f%%\n",
                sel.parts.size(), partitions.num_partitions(),
                100.0 * metrics.avg_rel_error,
                100.0 * metrics.missed_groups);
    // Top-3 groups by exact value vs their estimates.
    std::vector<std::pair<query::GroupKey, double>> ranked;
    for (const auto& [key, vals] : exact) ranked.emplace_back(key, vals[0]);
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    for (size_t i = 0; i < std::min<size_t>(3, ranked.size()); ++i) {
      auto it = approx.find(ranked[i].first);
      std::printf("  top-%zu group: exact %.0f, estimate %.0f\n", i + 1,
                  ranked[i].second,
                  it == approx.end() ? 0.0 : it->second[0]);
    }
  }

  // What the 4% read means on a big cluster (cost model of Table 3).
  eval::ClusterModel cluster;
  auto full = eval::SimulateRead(cluster, 1.0);
  auto sampled = eval::SimulateRead(cluster, 0.08);
  std::printf("\ndashboard refresh at 8%% budget: avg rel err %.1f%%, "
              "compute %.1fx cheaper, latency %.1fx lower (cost model)\n",
              100.0 * total_err / static_cast<double>(panels.size()),
              full.compute_s / sampled.compute_s,
              full.latency_s / sampled.latency_s);
  return 0;
}
