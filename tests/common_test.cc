#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/hash.h"
#include "common/math_util.h"
#include "common/random.h"
#include "common/status.h"
#include "common/string_util.h"

namespace ps3 {
namespace {

TEST(RandomEngine, Deterministic) {
  RandomEngine a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomEngine, DifferentSeedsDiffer) {
  RandomEngine a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RandomEngine, NextDoubleInUnitInterval) {
  RandomEngine rng(7);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RandomEngine, UniformMean) {
  RandomEngine rng(11);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(RandomEngine, BoundedUniform) {
  RandomEngine rng(3);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) {
    uint64_t v = rng.NextUint64(10);
    ASSERT_LT(v, 10u);
    ++counts[v];
  }
  for (int c : counts) EXPECT_GT(c, 800);
}

TEST(RandomEngine, NextInt64Range) {
  RandomEngine rng(5);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInt64(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RandomEngine, GaussianMoments) {
  RandomEngine rng(13);
  double sum = 0.0, sumsq = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    double v = rng.NextGaussian();
    sum += v;
    sumsq += v * v;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sumsq / kN, 1.0, 0.03);
}

TEST(RandomEngine, ExponentialMean) {
  RandomEngine rng(17);
  double sum = 0.0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) sum += rng.NextExponential(2.0);
  EXPECT_NEAR(sum / kN, 0.5, 0.02);
}

TEST(ZipfSampler, PmfSumsToOne) {
  ZipfSampler z(100, 1.0);
  double total = 0.0;
  for (size_t i = 0; i < 100; ++i) total += z.Pmf(i);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfSampler, RankOneDominates) {
  ZipfSampler z(167, 1.9);
  // Calibration used by the Aria generator: top version ~ half the data.
  EXPECT_GT(z.Pmf(0), 0.45);
  EXPECT_LT(z.Pmf(0), 0.6);
}

TEST(ZipfSampler, EmpiricalMatchesPmf) {
  ZipfSampler z(50, 1.0);
  RandomEngine rng(23);
  std::vector<int> counts(50, 0);
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) ++counts[z.Sample(&rng)];
  for (size_t r : {0ul, 1ul, 5ul, 20ul}) {
    EXPECT_NEAR(static_cast<double>(counts[r]) / kN, z.Pmf(r), 0.01);
  }
}

TEST(ZipfSampler, MonotoneDecreasingPmf) {
  ZipfSampler z(30, 0.8);
  for (size_t i = 1; i < 30; ++i) EXPECT_LE(z.Pmf(i), z.Pmf(i - 1) + 1e-12);
}

TEST(SampleWithoutReplacement, DistinctAndInRange) {
  RandomEngine rng(31);
  auto s = SampleWithoutReplacement(100, 30, &rng);
  std::set<size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 30u);
  for (size_t v : s) EXPECT_LT(v, 100u);
}

TEST(SampleWithoutReplacement, FullDraw) {
  RandomEngine rng(37);
  auto s = SampleWithoutReplacement(10, 10, &rng);
  std::set<size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 10u);
}

TEST(SampleWithoutReplacement, ApproximatelyUniform) {
  RandomEngine rng(41);
  std::vector<int> hits(20, 0);
  for (int trial = 0; trial < 20000; ++trial) {
    for (size_t v : SampleWithoutReplacement(20, 5, &rng)) ++hits[v];
  }
  // Each element should be included ~ 5/20 of the time.
  for (int h : hits) EXPECT_NEAR(h / 20000.0, 0.25, 0.02);
}

TEST(Shuffle, Permutes) {
  RandomEngine rng(43);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  Shuffle(&v, &rng);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Hash, StringStability) {
  EXPECT_EQ(HashString("abc"), HashString("abc"));
  EXPECT_NE(HashString("abc"), HashString("abd"));
}

TEST(Hash, SaltChangesHash) {
  EXPECT_NE(HashInt(5, 1), HashInt(5, 2));
  EXPECT_EQ(HashInt(5, 1), HashInt(5, 1));
}

TEST(Hash, DoubleNegZero) {
  EXPECT_EQ(HashDouble(0.0), HashDouble(-0.0));
}

TEST(Hash, UnitRange) {
  RandomEngine rng(47);
  for (int i = 0; i < 1000; ++i) {
    double u = HashToUnit(rng.Next());
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(MathUtil, MeanAndStd) {
  std::vector<double> v{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Mean(v), 2.5);
  EXPECT_NEAR(StdDev(v), std::sqrt(1.25), 1e-12);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
}

TEST(MathUtil, QuantileSorted) {
  std::vector<double> v{0, 1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(QuantileSorted(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(QuantileSorted(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(QuantileSorted(v, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(QuantileSorted(v, 0.25), 1.0);
}

TEST(MathUtil, ComponentwiseMedian) {
  std::vector<double> a{1, 10}, b{2, 20}, c{3, 0};
  auto median = ComponentwiseMedian({&a, &b, &c});
  EXPECT_DOUBLE_EQ(median[0], 2.0);
  EXPECT_DOUBLE_EQ(median[1], 10.0);
}

TEST(MathUtil, TrapezoidAuc) {
  EXPECT_DOUBLE_EQ(TrapezoidAuc({0, 1}, {1, 1}), 1.0);
  EXPECT_DOUBLE_EQ(TrapezoidAuc({0, 1, 2}, {0, 1, 0}), 1.0);
}

TEST(MathUtil, SquaredL2) {
  EXPECT_DOUBLE_EQ(SquaredL2({0, 0}, {3, 4}), 25.0);
}

TEST(MathUtil, LatencyEwmaFirstSampleSeeds) {
  EXPECT_EQ(LatencyEwmaStep(0, 4000), 4000u);
  // A deviation cell (floor 0) may legitimately be seeded with 0.
  EXPECT_EQ(LatencyEwmaStep(0, 0, /*floor=*/0), 0u);
}

TEST(MathUtil, LatencyEwmaFastSampleAfterSlowDoesNotWrap) {
  // The naive `prev + (sample - prev) / 4` wraps unsigned here.
  const uint64_t next = LatencyEwmaStep(40000, 10);
  EXPECT_EQ(next, 40000u - 10000u + 2u);
  EXPECT_LT(next, 40000u);
  // Repeated fast samples decay toward the sample and settle just above
  // it (integer rounding).
  uint64_t cell = 40000;
  for (int i = 0; i < 200; ++i) cell = LatencyEwmaStep(cell, 10);
  EXPECT_GE(cell, 10u);
  EXPECT_LT(cell, 20u);
}

TEST(MathUtil, LatencyEwmaSubMicrosecondSampleClampsToOne) {
  // 0 is the "unseeded" sentinel, so a sub-µs sample must not produce it.
  EXPECT_EQ(LatencyEwmaStep(0, 0), 1u);
  EXPECT_EQ(LatencyEwmaStep(8, 0), 8u - 2u + 1u);
}

TEST(Status, RoundTrip) {
  Status ok = Status::OK();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ToString(), "OK");
  Status bad = Status::InvalidArgument("nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.ToString(), "InvalidArgument: nope");
}

TEST(Result, ValueAndError) {
  Result<int> r = 5;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 5);
  Result<int> e = Status::NotFound("x");
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kNotFound);
}

TEST(StringUtil, Format) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
}

TEST(StringUtil, JoinSplit) {
  EXPECT_EQ(Join({"a", "b", "c"}, ","), "a,b,c");
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
}

TEST(StringUtil, StartsWith) {
  EXPECT_TRUE(StartsWith("selectivity_upper", "selectivity"));
  EXPECT_FALSE(StartsWith("sel", "selectivity"));
}

}  // namespace
}  // namespace ps3
