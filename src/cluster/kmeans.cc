#include "cluster/kmeans.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>

#include "runtime/simd.h"

namespace ps3::cluster {

std::vector<std::vector<size_t>> Clustering::Members() const {
  std::vector<std::vector<size_t>> out(k);
  for (size_t i = 0; i < assignment.size(); ++i) {
    out[static_cast<size_t>(assignment[i])].push_back(i);
  }
  return out;
}

namespace {

// Kernel dispatch by CPU support, as for the engine's other kernels.
void SquaredDistances(const double* points, size_t n, size_t dim,
                      const double* center, double* out) {
#if defined(__x86_64__) || defined(__i386__)
  if (runtime::Avx2Available()) {
    runtime::SquaredDistancesAvx2(points, n, n, dim, center, out);
  } else
#endif
  {
    runtime::SquaredDistancesScalar(points, n, n, dim, center, out);
  }
}

void NearestCenters(const double* points, size_t n, size_t dim,
                    const double* centers, size_t k, int32_t* nearest) {
#if defined(__x86_64__) || defined(__i386__)
  if (runtime::Avx2Available()) {
    runtime::NearestCentersAvx2(points, n, n, dim, centers, k, nearest);
  } else
#endif
  {
    runtime::NearestCentersScalar(points, n, n, dim, centers, k, nearest);
  }
}

}  // namespace

Clustering KMeans(const std::vector<std::vector<double>>& points, size_t k,
                  const KMeansParams& params) {
  const size_t n = points.size();
  assert(k >= 1 && k <= n);
  const size_t dim = points[0].size();
  RandomEngine rng(params.seed);

  // Dim-major copy: coordinate d of point i at flat[d * n + i].
  std::vector<double> flat(n * dim);
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < dim; ++d) flat[d * n + i] = points[i][d];
  }
  // Centers, point-major: coordinate d of center c at centers[c * dim + d].
  std::vector<double> centers(k * dim);
  auto set_center = [&](size_t c, size_t i) {
    std::copy(points[i].begin(), points[i].end(),
              centers.begin() + static_cast<ptrdiff_t>(c * dim));
  };

  // k-means++ seeding.
  set_center(0, rng.NextUint64(n));
  std::vector<double> dist2(n, std::numeric_limits<double>::max());
  std::vector<double> d_new(n);
  for (size_t c = 1; c < k; ++c) {
    SquaredDistances(flat.data(), n, dim,
                     centers.data() + (c - 1) * dim, d_new.data());
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (d_new[i] < dist2[i]) dist2[i] = d_new[i];
      total += dist2[i];
    }
    size_t chosen;
    if (total <= 0.0) {
      // All remaining points coincide with centers; pick arbitrarily.
      chosen = rng.NextUint64(n);
    } else {
      double target = rng.NextDouble() * total;
      chosen = n - 1;
      double acc = 0.0;
      for (size_t i = 0; i < n; ++i) {
        acc += dist2[i];
        if (acc >= target) {
          chosen = i;
          break;
        }
      }
    }
    set_center(c, chosen);
  }

  Clustering result;
  result.k = k;
  result.assignment.assign(n, 0);
  std::vector<int32_t> nearest(n);
  std::vector<size_t> counts(k, 0);
  for (int iter = 0; iter < params.max_iters; ++iter) {
    bool changed = false;
    // Assign.
    NearestCenters(flat.data(), n, dim, centers.data(), k, nearest.data());
    for (size_t i = 0; i < n; ++i) {
      if (result.assignment[i] != nearest[i]) {
        result.assignment[i] = nearest[i];
        changed = true;
      }
    }
    // Update: each (center, dim) sum runs over points in ascending order.
    std::fill(centers.begin(), centers.end(), 0.0);
    counts.assign(k, 0);
    for (size_t i = 0; i < n; ++i) {
      const size_t a = static_cast<size_t>(result.assignment[i]);
      double* c = centers.data() + a * dim;
      for (size_t d = 0; d < dim; ++d) c[d] += points[i][d];
      ++counts[a];
    }
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed an empty cluster with a random point to keep all k
        // clusters non-empty (each cluster must produce one exemplar).
        set_center(c, rng.NextUint64(n));
        changed = true;
        continue;
      }
      for (size_t d = 0; d < dim; ++d) {
        centers[c * dim + d] /= static_cast<double>(counts[c]);
      }
    }
    if (!changed && iter > 0) break;
  }

  // Final fix-up: guarantee non-empty clusters by stealing from the largest.
  counts.assign(k, 0);
  for (int a : result.assignment) ++counts[static_cast<size_t>(a)];
  for (size_t c = 0; c < k; ++c) {
    if (counts[c] > 0) continue;
    size_t donor = 0;
    for (size_t d = 1; d < k; ++d) {
      if (counts[d] > counts[donor]) donor = d;
    }
    for (size_t i = 0; i < n; ++i) {
      if (static_cast<size_t>(result.assignment[i]) == donor) {
        result.assignment[i] = static_cast<int>(c);
        --counts[donor];
        ++counts[c];
        break;
      }
    }
  }
  return result;
}

}  // namespace ps3::cluster
