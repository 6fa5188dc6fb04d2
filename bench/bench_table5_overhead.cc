// Table 5: single-thread partition-picker latency (total and clustering
// portion) per dataset, averaged across sampling budgets and test queries.
// Uses google-benchmark for the timing loop of one representative pick,
// plus a Report with the Table 5 style mean +/- spread across budgets.
#include <benchmark/benchmark.h>

#include <cmath>

#include "bench_common.h"

namespace ps3::bench {
namespace {

struct Timings {
  double total_mean = 0.0, total_spread = 0.0;
  double cluster_mean = 0.0, cluster_spread = 0.0;
};

Timings MeasureDataset(const std::string& dataset) {
  auto cfg = BenchConfig(dataset, 40000, 200);
  cfg.train_queries = 32;
  cfg.test_queries = 12;
  cfg.ps3.feature_selection.enabled = false;  // latency, not accuracy
  eval::Experiment exp(cfg);
  exp.TrainModels();
  auto ps3 = exp.MakePs3();

  std::vector<double> totals, clusters;
  for (double b : {0.02, 0.05, 0.1, 0.2}) {
    double total = 0.0, cluster = 0.0;
    size_t n = 0;
    size_t budget = exp.BudgetFromFraction(b);
    for (const auto& t : exp.tests()) {
      RandomEngine rng(4242);
      core::PickTelemetry telemetry;
      ps3->Pick(t.query, budget, &rng, &telemetry);
      total += telemetry.total_ms;
      cluster += telemetry.clustering_ms;
      ++n;
    }
    totals.push_back(total / double(n));
    clusters.push_back(cluster / double(n));
  }
  auto mean_spread = [](const std::vector<double>& v) {
    double mean = 0.0;
    for (double x : v) mean += x;
    mean /= double(v.size());
    double lo = v[0], hi = v[0];
    for (double x : v) {
      lo = std::min(lo, x);
      hi = std::max(hi, x);
    }
    return std::make_pair(mean, (hi - lo) / 2.0);
  };
  Timings t;
  std::tie(t.total_mean, t.total_spread) = mean_spread(totals);
  std::tie(t.cluster_mean, t.cluster_spread) = mean_spread(clusters);
  return t;
}

}  // namespace
}  // namespace ps3::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  using namespace ps3;
  eval::Report report(
      "Table 5 — picker overhead per dataset (ms, mean +/- spread across "
      "budgets)");
  report.SetHeader({"dataset", "total", "clustering"});
  for (const char* dataset : {"aria", "kdd", "tpcds", "tpch"}) {
    auto t = bench::MeasureDataset(dataset);
    // Two decimals: picks take about a millisecond, so one decimal
    // cannot resolve a change to them.
    report.AddRow({dataset,
                   eval::Num(t.total_mean, 2) + " +/- " +
                       eval::Num(t.total_spread, 2),
                   eval::Num(t.cluster_mean, 2) + " +/- " +
                       eval::Num(t.cluster_spread, 2)});
  }
  report.Print();
  return 0;
}
