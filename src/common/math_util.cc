#include "common/math_util.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ps3 {

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double StdDev(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  double m = Mean(v);
  double acc = 0.0;
  for (double x : v) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(v.size()));
}

double QuantileSorted(const std::vector<double>& sorted, double q) {
  assert(!sorted.empty());
  q = Clamp(q, 0.0, 1.0);
  double pos = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

std::vector<double> ComponentwiseMedian(
    const std::vector<const std::vector<double>*>& rows) {
  assert(!rows.empty());
  const size_t dim = rows[0]->size();
  std::vector<double> median(dim);
  std::vector<double> buf(rows.size());
  for (size_t d = 0; d < dim; ++d) {
    for (size_t r = 0; r < rows.size(); ++r) buf[r] = (*rows[r])[d];
    size_t mid = buf.size() / 2;
    std::nth_element(buf.begin(), buf.begin() + mid, buf.end());
    if (buf.size() % 2 == 1) {
      median[d] = buf[mid];
    } else {
      double hi = buf[mid];
      double lo = *std::max_element(buf.begin(), buf.begin() + mid);
      median[d] = 0.5 * (lo + hi);
    }
  }
  return median;
}

double SquaredL2(const std::vector<double>& a, const std::vector<double>& b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

double TrapezoidAuc(const std::vector<double>& x,
                    const std::vector<double>& y) {
  assert(x.size() == y.size());
  double auc = 0.0;
  for (size_t i = 1; i < x.size(); ++i) {
    auc += 0.5 * (y[i] + y[i - 1]) * (x[i] - x[i - 1]);
  }
  return auc;
}

double Clamp(double v, double lo, double hi) {
  return v < lo ? lo : (v > hi ? hi : v);
}

bool ApproxEqual(double a, double b, double tol) {
  double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= tol * scale;
}

uint64_t LatencyEwmaStep(uint64_t prev, uint64_t sample_us, uint64_t floor) {
  sample_us = std::max(sample_us, floor);
  if (prev == 0) return sample_us;
  return prev - prev / 4 + std::max(sample_us / 4, floor);
}

}  // namespace ps3
