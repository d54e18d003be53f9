#include "src/common/math_util.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/logging.h"

namespace pcor {
namespace math {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int kMaxIterations = 300;
}  // namespace

double LogSumExp(const std::vector<double>& x) {
  double m = -kInf;
  for (double v : x) m = std::max(m, v);
  if (m == -kInf) return -kInf;
  double sum = 0.0;
  for (double v : x) {
    if (v == -kInf) continue;
    sum += std::exp(v - m);
  }
  return m + std::log(sum);
}

std::vector<double> Softmax(const std::vector<double>& x) {
  std::vector<double> out(x.size(), 0.0);
  double lse = LogSumExp(x);
  if (lse == -kInf) return out;
  for (size_t i = 0; i < x.size(); ++i) {
    out[i] = (x[i] == -kInf) ? 0.0 : std::exp(x[i] - lse);
  }
  return out;
}

namespace {

// Continued-fraction core of the incomplete beta (Numerical Recipes betacf).
double BetaContinuedFraction(double a, double b, double x) {
  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::abs(d) < 1e-300) d = 1e-300;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIterations; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::abs(d) < 1e-300) d = 1e-300;
    c = 1.0 + aa / c;
    if (std::abs(c) < 1e-300) c = 1e-300;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::abs(d) < 1e-300) d = 1e-300;
    c = 1.0 + aa / c;
    if (std::abs(c) < 1e-300) c = 1e-300;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::abs(del - 1.0) < 1e-14) break;
  }
  return h;
}

}  // namespace

double RegularizedIncompleteBeta(double a, double b, double x) {
  PCOR_CHECK(a > 0 && b > 0) << "IncompleteBeta requires a,b > 0";
  PCOR_CHECK(x >= 0.0 && x <= 1.0) << "IncompleteBeta requires x in [0,1]";
  if (x == 0.0) return 0.0;
  if (x == 1.0) return 1.0;
  const double ln_front = std::lgamma(a + b) - std::lgamma(a) -
                          std::lgamma(b) + a * std::log(x) +
                          b * std::log1p(-x);
  const double front = std::exp(ln_front);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * BetaContinuedFraction(a, b, x) / a;
  }
  return 1.0 - front * BetaContinuedFraction(b, a, 1.0 - x) / b;
}

double InverseRegularizedIncompleteBeta(double a, double b, double p) {
  PCOR_CHECK(p >= 0.0 && p <= 1.0) << "Inverse beta requires p in [0,1]";
  if (p <= 0.0) return 0.0;
  if (p >= 1.0) return 1.0;
  // Bisection with Newton refinement; robust over the full domain.
  double lo = 0.0, hi = 1.0, x = 0.5;
  for (int it = 0; it < 200; ++it) {
    x = 0.5 * (lo + hi);
    double v = RegularizedIncompleteBeta(a, b, x);
    if (std::abs(v - p) < 1e-14) break;
    if (v < p) {
      lo = x;
    } else {
      hi = x;
    }
  }
  return x;
}

double StudentTCdf(double t, double nu) {
  PCOR_CHECK(nu > 0) << "Student-t requires nu > 0";
  if (std::isinf(t)) return t > 0 ? 1.0 : 0.0;
  const double x = nu / (nu + t * t);
  const double ib = RegularizedIncompleteBeta(nu / 2.0, 0.5, x);
  return t > 0 ? 1.0 - 0.5 * ib : 0.5 * ib;
}

double StudentTQuantile(double p, double nu) {
  PCOR_CHECK(p > 0.0 && p < 1.0) << "Student-t quantile requires p in (0,1)";
  PCOR_CHECK(nu > 0) << "Student-t requires nu > 0";
  if (p == 0.5) return 0.0;
  const bool upper = p > 0.5;
  const double pp = upper ? 2.0 * (1.0 - p) : 2.0 * p;  // two-tail prob
  const double x = InverseRegularizedIncompleteBeta(nu / 2.0, 0.5, pp);
  double t = std::sqrt(nu * (1.0 - x) / std::max(x, 1e-300));
  return upper ? t : -t;
}

double GrubbsCriticalValue(size_t n, double alpha) {
  PCOR_CHECK(n >= 3) << "Grubbs' test requires n >= 3";
  PCOR_CHECK(alpha > 0 && alpha < 1) << "alpha must be in (0,1)";
  const double nd = static_cast<double>(n);
  const double p = alpha / (2.0 * nd);
  const double t = StudentTQuantile(1.0 - p, nd - 2.0);
  return ((nd - 1.0) / std::sqrt(nd)) *
         std::sqrt(t * t / (nd - 2.0 + t * t));
}

}  // namespace math
}  // namespace pcor
