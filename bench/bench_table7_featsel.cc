// Table 7 (Appendix B.1): effect of the Algorithm 3 feature selection on
// the clustering AUC, for HAC (Ward) and k-means. Also prints the selected
// feature kinds per dataset (the appendix's per-dataset lists).
#include "bench_common.h"
#include "common/math_util.h"
#include "common/string_util.h"
#include "core/feature_selection.h"

namespace ps3::bench {
namespace {

double Auc(const eval::Experiment& exp, core::ClusterAlgo algo,
           const std::vector<bool>& excluded) {
  const auto& data = exp.training_data();
  std::vector<size_t> queries;
  for (size_t i = 0; i < std::min<size_t>(8, data.num_queries()); ++i) {
    queries.push_back(i);
  }
  const auto normalized =
      core::NormalizeQueries(data, exp.ps3_model().normalizer, queries);
  std::vector<double> budgets = {0.05, 0.1, 0.2, 0.4};
  std::vector<double> errs;
  for (double b : budgets) {
    errs.push_back(core::EvaluateClusteringError(
        exp.ctx(), data, normalized, algo, excluded, queries, b, 99));
  }
  return TrapezoidAuc(budgets, errs) * 100.0;
}

std::string KeptKinds(const std::vector<bool>& excluded) {
  std::vector<std::string> kept;
  for (int k = 0; k < featurize::kNumStatKinds; ++k) {
    if (excluded[static_cast<size_t>(k)]) continue;
    kept.push_back(featurize::StatKindName(
        static_cast<featurize::StatKind>(k)));
  }
  return Join(kept, ", ");
}

}  // namespace
}  // namespace ps3::bench

int main() {
  using namespace ps3;
  eval::Report report("Table 7 — feature selection effect on clustering "
                      "AUC (lower is better)");
  report.SetHeader({"dataset", "HAC(ward)", "+feat sel", "KMeans",
                    "+feat sel"});
  std::vector<std::pair<std::string, std::string>> selected;
  for (const char* dataset : {"tpcds", "aria", "kdd"}) {
    auto cfg = bench::BenchConfig(dataset, 40000, 200);
    cfg.train_queries = 32;
    cfg.test_queries = 4;
    cfg.ps3.feature_selection.enabled = false;
    cfg.ps3.gbdt.num_trees = 4;
    eval::Experiment exp(cfg);
    exp.TrainModels();

    core::FeatureSelectionOptions fs_opts;
    fs_opts.restarts = 1;
    fs_opts.eval_queries = 5;
    auto excluded = core::SelectClusterFeatures(
        exp.ctx(), exp.training_data(), exp.ps3_model().normalizer,
        core::ClusterAlgo::kKMeans, fs_opts);
    std::vector<bool> none(featurize::kNumStatKinds, false);
    report.AddRow(
        {dataset,
         eval::Num(bench::Auc(exp, core::ClusterAlgo::kHacWard, none), 2),
         eval::Num(bench::Auc(exp, core::ClusterAlgo::kHacWard, excluded),
                   2),
         eval::Num(bench::Auc(exp, core::ClusterAlgo::kKMeans, none), 2),
         eval::Num(bench::Auc(exp, core::ClusterAlgo::kKMeans, excluded),
                   2)});
    selected.emplace_back(dataset, bench::KeptKinds(excluded));
  }
  report.Print();

  eval::Report kinds("Appendix B.1 — feature kinds kept for clustering");
  kinds.SetHeader({"dataset", "kept kinds"});
  for (const auto& [dataset, kept] : selected) {
    kinds.AddRow({dataset, kept});
  }
  kinds.Print();
  return 0;
}
