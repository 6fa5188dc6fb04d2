#include "core/cluster_select.h"

#include <algorithm>
#include <cassert>

#include "cluster/agglomerative.h"
#include "cluster/exemplar.h"
#include "cluster/kmeans.h"

namespace ps3::core {

std::vector<std::vector<double>> BuildClusterPoints(
    const featurize::FeatureMatrix& normalized,
    const featurize::FeatureSchema& schema,
    const std::vector<size_t>& members,
    const std::vector<bool>* excluded_kinds) {
  // Keep dimensions that are included by kind and vary across members —
  // constant dimensions contribute nothing to Euclidean distances. The
  // range scan reads each member's whole row contiguously.
  const size_t m = schema.num_features();
  std::vector<double> lo(normalized.Row(members[0]),
                         normalized.Row(members[0]) + m);
  std::vector<double> hi = lo;
  for (size_t p : members) {
    const double* row = normalized.Row(p);
    for (size_t j = 0; j < m; ++j) {
      const double v = row[j];
      lo[j] = v < lo[j] ? v : lo[j];
      hi[j] = v > hi[j] ? v : hi[j];
    }
  }
  std::vector<size_t> dims;
  for (size_t j = 0; j < m; ++j) {
    const int kind = static_cast<int>(schema.def(j).kind);
    if (excluded_kinds != nullptr && (*excluded_kinds)[kind]) continue;
    if (hi[j] > lo[j]) dims.push_back(j);
  }
  std::vector<std::vector<double>> points(members.size());
  for (size_t i = 0; i < members.size(); ++i) {
    const double* row = normalized.Row(members[i]);
    points[i].reserve(dims.size());
    for (size_t j : dims) points[i].push_back(row[j]);
  }
  return points;
}

Selection ClusterSelect(const featurize::FeatureMatrix& normalized,
                        const featurize::FeatureSchema& schema,
                        const std::vector<size_t>& members, size_t n_clusters,
                        const ClusterSelectOptions& options,
                        RandomEngine* rng) {
  assert(n_clusters >= 1 && n_clusters <= members.size());
  Selection out;
  if (n_clusters == members.size()) {
    for (size_t m : members) out.parts.push_back({m, 1.0});
    return out;
  }
  auto points = BuildClusterPoints(normalized, schema, members,
                                   options.excluded_kinds);
  if (points.empty() || points[0].empty()) {
    // Degenerate: all partitions look identical; any exemplars represent
    // the rest. Pick the first n_clusters with balanced weights.
    double w = static_cast<double>(members.size()) /
               static_cast<double>(n_clusters);
    for (size_t i = 0; i < n_clusters; ++i) {
      out.parts.push_back({members[i], w});
    }
    return out;
  }

  cluster::Clustering clustering;
  switch (options.algo) {
    case ClusterAlgo::kKMeans: {
      cluster::KMeansParams params;
      params.seed = rng->Next();
      params.max_iters = options.kmeans_iters;
      // With nearly as many clusters as points, extra Lloyd iterations buy
      // nothing; cap them to keep large-budget picks fast.
      if (n_clusters * 2 > points.size()) {
        params.max_iters = std::min(params.max_iters, 6);
      }
      clustering = cluster::KMeans(points, n_clusters, params);
      break;
    }
    case ClusterAlgo::kHacSingle:
      clustering =
          cluster::Agglomerative(points, n_clusters, cluster::Linkage::kSingle);
      break;
    case ClusterAlgo::kHacWard:
      clustering =
          cluster::Agglomerative(points, n_clusters, cluster::Linkage::kWard);
      break;
  }

  for (const auto& cluster_members : clustering.Members()) {
    if (cluster_members.empty()) continue;
    size_t local = options.unbiased_exemplar
                       ? cluster::RandomExemplar(cluster_members, rng)
                       : cluster::MedianExemplar(points, cluster_members);
    out.parts.push_back(
        {members[local], static_cast<double>(cluster_members.size())});
  }
  return out;
}

}  // namespace ps3::core
