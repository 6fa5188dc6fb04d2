// Small numeric helpers shared across modules.
#ifndef PS3_COMMON_MATH_UTIL_H_
#define PS3_COMMON_MATH_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ps3 {

/// Arithmetic mean; 0 for an empty input.
double Mean(const std::vector<double>& v);

/// Population standard deviation; 0 for fewer than 2 elements.
double StdDev(const std::vector<double>& v);

/// Linear-interpolated quantile (q in [0,1]) of a *sorted* vector.
double QuantileSorted(const std::vector<double>& sorted, double q);

/// Component-wise median of a set of equal-length vectors (used to pick
/// cluster exemplars). Vectors must be non-empty and same-sized.
std::vector<double> ComponentwiseMedian(
    const std::vector<const std::vector<double>*>& rows);

/// Squared Euclidean distance between two equal-length vectors.
double SquaredL2(const std::vector<double>& a, const std::vector<double>& b);

/// Trapezoidal area under a piecewise-linear curve given as (x, y) points
/// sorted by x. Mirrors the paper's error-curve AUC metric (Tables 6, 7).
double TrapezoidAuc(const std::vector<double>& x, const std::vector<double>& y);

/// Clamps v into [lo, hi].
double Clamp(double v, double lo, double hi);

/// True if |a - b| <= tol * max(1, |a|, |b|).
bool ApproxEqual(double a, double b, double tol = 1e-9);

/// One step of the alpha-1/4 latency EWMA over unsigned microsecond
/// samples: smooth enough to ignore one stalled load, fast enough to adapt
/// within a few samples of a workload shift. `prev == 0` means "no sample
/// yet", so the sample seeds the cell. The update is the underflow-safe
/// `prev - prev/4 + sample/4`, which stays in range however the sample
/// compares to the mean (the naive `prev + (sample - prev)/4` wraps
/// whenever a sample undershoots). `floor` bounds the sample and each
/// step's increment from below: the default 1 suits a cell that uses 0 as
/// its "unseeded" sentinel (a sub-microsecond sample clamps to 1 and can
/// never unseed it); pass 0 for a cell where 0 is a legitimate value,
/// such as a mean-deviation cell at steady state.
uint64_t LatencyEwmaStep(uint64_t prev, uint64_t sample_us,
                         uint64_t floor = 1);

}  // namespace ps3

#endif  // PS3_COMMON_MATH_UTIL_H_
