// Lloyd's k-means with k-means++ initialization, used by PS3's
// sample-via-clustering step (§4.2).
//
// Layout: KMeans copies the points once into a flat dim-major array
// (coordinate d of point i at [d * n + i]) and keeps the centers flat and
// point-major ([c * dim + d]), so the distance kernels read four points'
// coordinate d with one vector load.
//
// Summation order: every squared distance sums (x - center)^2 over the
// dimensions in order -- subtract, multiply, add, with no FMA and no
// reassociation -- and nearest-center ties go to the lowest center index.
// Center updates add each member's coordinates in ascending point order.
// So the result is bit-identical to the plain per-point loop over
// SquaredL2 (common/math_util.h), whichever kernel runs.
//
// Dispatch: both the k-means++ seeding distances and the nearest-center
// assignment run runtime/simd.h's AVX2 kernels when the CPU supports
// AVX2, and the scalar reference kernels otherwise. There is no option.
#ifndef PS3_CLUSTER_KMEANS_H_
#define PS3_CLUSTER_KMEANS_H_

#include <vector>

#include "common/random.h"

namespace ps3::cluster {

/// Cluster assignment for each input point; `k` clusters, every cluster
/// non-empty (guaranteed by the implementations when k <= #points).
struct Clustering {
  std::vector<int> assignment;
  size_t k = 0;

  std::vector<std::vector<size_t>> Members() const;
};

struct KMeansParams {
  int max_iters = 25;
  uint64_t seed = 17;
};

/// `points`: n rows of equal dimension. Requires 1 <= k <= n.
Clustering KMeans(const std::vector<std::vector<double>>& points, size_t k,
                  const KMeansParams& params = {});

}  // namespace ps3::cluster

#endif  // PS3_CLUSTER_KMEANS_H_
