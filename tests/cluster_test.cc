#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <set>

#include "cluster/agglomerative.h"
#include "cluster/exemplar.h"
#include "cluster/kmeans.h"
#include "common/math_util.h"
#include "common/random.h"
#include "runtime/simd.h"

namespace ps3::cluster {
namespace {

/// Three well-separated 2D blobs of `per` points each.
std::vector<std::vector<double>> MakeBlobs(size_t per, uint64_t seed = 3) {
  RandomEngine rng(seed);
  std::vector<std::vector<double>> pts;
  const double centers[3][2] = {{0, 0}, {10, 0}, {0, 10}};
  for (int b = 0; b < 3; ++b) {
    for (size_t i = 0; i < per; ++i) {
      pts.push_back({centers[b][0] + 0.5 * rng.NextGaussian(),
                     centers[b][1] + 0.5 * rng.NextGaussian()});
    }
  }
  return pts;
}

bool RecoversBlobs(const Clustering& c, size_t per) {
  // Every blob must map to a single cluster label and labels must differ.
  std::set<int> labels;
  for (int b = 0; b < 3; ++b) {
    int label = c.assignment[b * per];
    for (size_t i = 0; i < per; ++i) {
      if (c.assignment[b * per + i] != label) return false;
    }
    labels.insert(label);
  }
  return labels.size() == 3;
}

TEST(KMeans, RecoversSeparatedBlobs) {
  auto pts = MakeBlobs(30);
  auto c = KMeans(pts, 3);
  EXPECT_TRUE(RecoversBlobs(c, 30));
}

TEST(KMeans, AllClustersNonEmpty) {
  auto pts = MakeBlobs(10);
  for (size_t k : {1ul, 2ul, 5ul, 10ul, 30ul}) {
    auto c = KMeans(pts, k);
    auto members = c.Members();
    ASSERT_EQ(members.size(), k);
    for (const auto& m : members) EXPECT_FALSE(m.empty());
  }
}

TEST(KMeans, KEqualsNIsIdentityPartition) {
  auto pts = MakeBlobs(4);
  auto c = KMeans(pts, pts.size());
  std::set<int> labels(c.assignment.begin(), c.assignment.end());
  EXPECT_EQ(labels.size(), pts.size());
}

TEST(KMeans, HandlesDuplicatePoints) {
  std::vector<std::vector<double>> pts(20, {1.0, 1.0});
  pts.push_back({5.0, 5.0});
  auto c = KMeans(pts, 3);
  auto members = c.Members();
  for (const auto& m : members) EXPECT_FALSE(m.empty());
}

/// Points with planted ties: coordinates come from a small grid half the
/// time, and every third point repeats an earlier one.
std::vector<std::vector<double>> TiedPoints(size_t n, size_t dim,
                                            RandomEngine* rng) {
  static const double kGrid[] = {-1.0, -0.5, 0.0, 0.25, 1.5};
  std::vector<std::vector<double>> pts(n, std::vector<double>(dim));
  for (size_t i = 0; i < n; ++i) {
    if (i > 0 && i % 3 == 0) {
      pts[i] = pts[rng->NextUint64(i)];
      continue;
    }
    for (auto& v : pts[i]) {
      v = rng->NextBool(0.5) ? kGrid[rng->NextUint64(5)]
                             : 3.0 * rng->NextGaussian();
    }
  }
  return pts;
}

/// Coordinate d of point i at [d * n + i], the kernels' layout.
std::vector<double> DimMajor(const std::vector<std::vector<double>>& pts) {
  const size_t n = pts.size(), dim = pts[0].size();
  std::vector<double> flat(n * dim);
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < dim; ++d) flat[d * n + i] = pts[i][d];
  }
  return flat;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

#if defined(__x86_64__) || defined(__i386__)
TEST(KMeansKernels, Avx2MatchesScalarBitForBit) {
  if (!runtime::Avx2Available()) GTEST_SKIP() << "host has no AVX2";
  RandomEngine rng(97);
  for (size_t dim : {1ul, 2ul, 7ul, 30ul, 41ul}) {
    for (size_t n = 1; n <= 40; ++n) {
      const auto pts = TiedPoints(n, dim, &rng);
      const auto flat = DimMajor(pts);
      for (size_t k : {size_t{1}, n}) {
        // Centers are points, so duplicate points plant duplicate centers
        // and exact distance ties.
        std::vector<double> centers;
        for (size_t c = 0; c < k; ++c) {
          const auto& p = pts[k == 1 ? rng.NextUint64(n) : c];
          centers.insert(centers.end(), p.begin(), p.end());
        }
        std::vector<int32_t> near_s(n, -1), near_v(n, -2);
        runtime::NearestCentersScalar(flat.data(), n, n, dim,
                                      centers.data(), k, near_s.data());
        runtime::NearestCentersAvx2(flat.data(), n, n, dim, centers.data(),
                                    k, near_v.data());
        EXPECT_EQ(near_s, near_v) << "n=" << n << " dim=" << dim
                                  << " k=" << k;
        for (size_t c = 0; c < k; ++c) {
          std::vector<double> dist_s(n, -1.0), dist_v(n, -2.0);
          runtime::SquaredDistancesScalar(flat.data(), n, n, dim,
                                          &centers[c * dim], dist_s.data());
          runtime::SquaredDistancesAvx2(flat.data(), n, n, dim,
                                        &centers[c * dim], dist_v.data());
          EXPECT_TRUE(SameBits(dist_s, dist_v))
              << "n=" << n << " dim=" << dim << " center=" << c;
        }
      }
    }
  }
}
#endif

TEST(KMeansKernels, ScalarMatchesSquaredL2AndPicksLowestTiedCenter) {
  RandomEngine rng(5);
  const auto pts = TiedPoints(17, 7, &rng);
  const auto flat = DimMajor(pts);
  std::vector<double> centers;
  for (size_t c : {3ul, 3ul, 0ul}) {  // centers 0 and 1 coincide
    centers.insert(centers.end(), pts[c].begin(), pts[c].end());
  }
  std::vector<int32_t> nearest(pts.size());
  runtime::NearestCentersScalar(flat.data(), pts.size(), pts.size(), 7,
                                centers.data(), 3, nearest.data());
  std::vector<double> dist(pts.size());
  runtime::SquaredDistancesScalar(flat.data(), pts.size(), pts.size(), 7,
                                  &centers[0], dist.data());
  for (size_t i = 0; i < pts.size(); ++i) {
    const double d01 = SquaredL2(pts[i], pts[3]);
    const double d2 = SquaredL2(pts[i], pts[0]);
    EXPECT_NE(nearest[i], 1) << i;  // a tie never goes to the later copy
    EXPECT_EQ(nearest[i], d2 < d01 ? 2 : 0) << i;
    EXPECT_EQ(dist[i], d01) << i;
  }
}

/// Reference k-means: the plain Lloyd loop, per-point SquaredL2 over
/// vector-of-vector points. KMeans must reproduce its assignments exactly,
/// whichever distance kernel it dispatches to.
Clustering ReferenceKMeans(const std::vector<std::vector<double>>& points,
                           size_t k, const KMeansParams& params) {
  const size_t n = points.size();
  const size_t dim = points[0].size();
  RandomEngine rng(params.seed);
  std::vector<std::vector<double>> centers;
  centers.push_back(points[rng.NextUint64(n)]);
  std::vector<double> dist2(n, std::numeric_limits<double>::max());
  while (centers.size() < k) {
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      double d = SquaredL2(points[i], centers.back());
      if (d < dist2[i]) dist2[i] = d;
      total += dist2[i];
    }
    size_t chosen;
    if (total <= 0.0) {
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
    centers.push_back(points[chosen]);
  }
  Clustering result;
  result.k = k;
  result.assignment.assign(n, 0);
  std::vector<size_t> counts(k, 0);
  for (int iter = 0; iter < params.max_iters; ++iter) {
    bool changed = false;
    for (size_t i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::max();
      int best_c = 0;
      for (size_t c = 0; c < k; ++c) {
        double d = SquaredL2(points[i], centers[c]);
        if (d < best) {
          best = d;
          best_c = static_cast<int>(c);
        }
      }
      if (result.assignment[i] != best_c) {
        result.assignment[i] = best_c;
        changed = true;
      }
    }
    for (auto& c : centers) c.assign(dim, 0.0);
    counts.assign(k, 0);
    for (size_t i = 0; i < n; ++i) {
      auto& c = centers[static_cast<size_t>(result.assignment[i])];
      for (size_t d = 0; d < dim; ++d) c[d] += points[i][d];
      ++counts[static_cast<size_t>(result.assignment[i])];
    }
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        centers[c] = points[rng.NextUint64(n)];
        changed = true;
        continue;
      }
      for (size_t d = 0; d < dim; ++d) {
        centers[c][d] /= static_cast<double>(counts[c]);
      }
    }
    if (!changed && iter > 0) break;
  }
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

TEST(KMeans, MatchesReferenceLloydLoopOverSeeds) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    RandomEngine rng(seed);
    const size_t n = 1 + rng.NextUint64(90);
    const size_t dim = 1 + rng.NextUint64(45);
    const size_t k = 1 + rng.NextUint64(n);
    const auto pts = TiedPoints(n, dim, &rng);
    KMeansParams params;
    params.seed = seed * 31;
    params.max_iters = seed % 4 == 0 ? 6 : 25;
    const Clustering got = KMeans(pts, k, params);
    const Clustering want = ReferenceKMeans(pts, k, params);
    EXPECT_EQ(got.k, want.k);
    EXPECT_EQ(got.assignment, want.assignment)
        << "seed=" << seed << " n=" << n << " dim=" << dim << " k=" << k;
  }
  // Separated blobs converge over several iterations: the update step's
  // summation order matters here, not just the seeding.
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const auto blobs = MakeBlobs(40, seed);
    KMeansParams params;
    params.seed = seed;
    EXPECT_EQ(KMeans(blobs, 7, params).assignment,
              ReferenceKMeans(blobs, 7, params).assignment);
  }
}

TEST(Agglomerative, SingleLinkageRecoversBlobs) {
  auto pts = MakeBlobs(20);
  auto c = Agglomerative(pts, 3, Linkage::kSingle);
  EXPECT_TRUE(RecoversBlobs(c, 20));
}

TEST(Agglomerative, WardRecoversBlobs) {
  auto pts = MakeBlobs(20);
  auto c = Agglomerative(pts, 3, Linkage::kWard);
  EXPECT_TRUE(RecoversBlobs(c, 20));
}

TEST(Agglomerative, ExactClusterCount) {
  auto pts = MakeBlobs(10);
  for (size_t k : {1ul, 2ul, 7ul, 30ul}) {
    auto c = Agglomerative(pts, k, Linkage::kWard);
    std::set<int> labels(c.assignment.begin(), c.assignment.end());
    EXPECT_EQ(labels.size(), k);
  }
}

TEST(Agglomerative, SingleLinkageChains) {
  // A chain of near points plus one far point: single linkage groups the
  // chain at k=2, whereas Ward might split it — the classic difference.
  std::vector<std::vector<double>> pts;
  for (int i = 0; i < 10; ++i) pts.push_back({static_cast<double>(i), 0.0});
  pts.push_back({100.0, 0.0});
  auto c = Agglomerative(pts, 2, Linkage::kSingle);
  int chain_label = c.assignment[0];
  for (int i = 1; i < 10; ++i) EXPECT_EQ(c.assignment[i], chain_label);
  EXPECT_NE(c.assignment[10], chain_label);
}

TEST(Exemplar, MedianPicksCentralMember) {
  std::vector<std::vector<double>> pts = {
      {0.0}, {1.0}, {2.0}, {100.0},  // outlier should not be exemplar
  };
  std::vector<size_t> members{0, 1, 2, 3};
  size_t ex = MedianExemplar(pts, members);
  EXPECT_EQ(ex, 1u);  // median ~1.5 -> closest is index 1 or 2
}

TEST(Exemplar, SingletonCluster) {
  std::vector<std::vector<double>> pts = {{3.0, 4.0}};
  std::vector<size_t> members{0};
  EXPECT_EQ(MedianExemplar(pts, members), 0u);
  RandomEngine rng(1);
  EXPECT_EQ(RandomExemplar(members, &rng), 0u);
}

TEST(Exemplar, RandomExemplarCoversMembers) {
  std::vector<size_t> members{4, 7, 9};
  RandomEngine rng(5);
  std::set<size_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(RandomExemplar(members, &rng));
  EXPECT_EQ(seen, (std::set<size_t>{4, 7, 9}));
}

/// Property: for any k, cluster sizes sum to n (weights in PS3 depend on
/// this invariant).
class ClusterSizeProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(ClusterSizeProperty, SizesSumToN) {
  auto pts = MakeBlobs(15, GetParam());
  size_t k = 1 + GetParam() % 12;
  auto members_of = [&](const Clustering& c) {
    size_t total = 0;
    for (const auto& m : c.Members()) total += m.size();
    return total;
  };
  EXPECT_EQ(members_of(KMeans(pts, k)), pts.size());
  EXPECT_EQ(members_of(Agglomerative(pts, k, Linkage::kWard)), pts.size());
  EXPECT_EQ(members_of(Agglomerative(pts, k, Linkage::kSingle)),
            pts.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterSizeProperty,
                         ::testing::Range<size_t>(1, 11));

}  // namespace
}  // namespace ps3::cluster
