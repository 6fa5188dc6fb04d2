// Table 6: area under the error curve (AUC, budget x avg_rel_err) for the
// clustering-only selection under different clustering algorithms: HAC
// with single linkage, HAC with Ward linkage, and k-means.
#include "bench_common.h"
#include "common/math_util.h"
#include "core/feature_selection.h"

namespace ps3::bench {
namespace {

double ClusteringAuc(const eval::Experiment& exp, core::ClusterAlgo algo) {
  const auto& data = exp.training_data();
  // A fixed subset of training queries, as in the feature-selection score.
  std::vector<size_t> queries;
  for (size_t i = 0; i < std::min<size_t>(8, data.num_queries()); ++i) {
    queries.push_back(i);
  }
  std::vector<bool> none(featurize::kNumStatKinds, false);
  const auto normalized =
      core::NormalizeQueries(data, exp.ps3_model().normalizer, queries);
  std::vector<double> budgets = {0.05, 0.1, 0.2, 0.4};
  std::vector<double> errs;
  for (double b : budgets) {
    errs.push_back(core::EvaluateClusteringError(
        exp.ctx(), data, normalized, algo, none, queries, b, 99));
  }
  // Percent-scale AUC like the paper's Table 6.
  return TrapezoidAuc(budgets, errs) * 100.0;
}

}  // namespace
}  // namespace ps3::bench

int main() {
  using namespace ps3;
  eval::Report report("Table 6 — clustering algorithm AUC (lower is "
                      "better)");
  report.SetHeader({"dataset", "HAC(single)", "HAC(ward)", "KMeans"});
  for (const char* dataset : {"tpcds", "aria", "kdd"}) {
    auto cfg = bench::BenchConfig(dataset, 40000, 200);
    cfg.train_queries = 32;
    cfg.test_queries = 4;
    cfg.ps3.feature_selection.enabled = false;
    cfg.ps3.gbdt.num_trees = 4;  // only the normalizer is needed
    eval::Experiment exp(cfg);
    exp.TrainModels();
    report.AddRow(
        {dataset,
         eval::Num(bench::ClusteringAuc(exp, core::ClusterAlgo::kHacSingle),
                   2),
         eval::Num(bench::ClusteringAuc(exp, core::ClusterAlgo::kHacWard),
                   2),
         eval::Num(bench::ClusteringAuc(exp, core::ClusterAlgo::kKMeans),
                   2)});
  }
  report.Print();
  return 0;
}
