#pragma once

#include <cstddef>
#include <vector>

namespace pcor {

/// \brief Numerical routines shared by the DP mechanisms and detectors.
///
/// Everything here is deterministic, header-declared and unit-tested against
/// closed forms or high-precision references.
namespace math {

/// \brief log(sum_i exp(x[i])) computed stably. Entries equal to -inf are
/// skipped; returns -inf when all entries are -inf or the vector is empty.
double LogSumExp(const std::vector<double>& x);

/// \brief Stable softmax of x (entries may be -inf, which map to 0).
/// Returns an all-zero vector when every entry is -inf.
std::vector<double> Softmax(const std::vector<double>& x);

/// \brief Regularized incomplete beta I_x(a, b) for a,b > 0, x in [0,1].
double RegularizedIncompleteBeta(double a, double b, double x);

/// \brief Inverse of the regularized incomplete beta in x for fixed (a, b).
double InverseRegularizedIncompleteBeta(double a, double b, double p);

/// \brief CDF of Student's t distribution with nu degrees of freedom.
double StudentTCdf(double t, double nu);

/// \brief Quantile (inverse CDF) of Student's t with nu degrees of freedom.
double StudentTQuantile(double p, double nu);

/// \brief Grubbs' test two-sided critical value for sample size n at
/// significance alpha: G_crit = ((n-1)/sqrt(n)) * sqrt(t^2 / (n-2+t^2)),
/// where t is the upper alpha/(2n) quantile of Student-t with n-2 dof.
double GrubbsCriticalValue(size_t n, double alpha);

}  // namespace math
}  // namespace pcor
