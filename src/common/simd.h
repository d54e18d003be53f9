#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace pcor {
namespace simd {

/// \brief Vectorized kernels for the detector hot loops.
///
/// Each kernel has a portable scalar reference body plus the SIMD bodies
/// that measurably win (`bench_micro_detectors` sweeps every tier):
///   - Sum, SumSqDev: scalar, AVX2.
///   - ReachSum: scalar, SSE2.
///   - MinMaxOf, ArgMaxAbsDeviation, ScanAbsZAbove, ScanOutsideRange,
///     ScanAbove: scalar, AVX2, AVX-512.
///
/// A host runs the widest body its tier reaches (see ActiveBackend): an
/// AVX-512 host runs the AVX2 Sum/SumSqDev and the SSE2 ReachSum, an SSE2
/// host runs only ReachSum vectorized. The tier is resolved once at process
/// start via cpuid and dispatched per call through one predictable branch.
///
/// The key contract is *bit-exact backend parity*: all sum-style
/// reductions accumulate into four lanes (lane j takes elements with index
/// ≡ j mod 4, in increasing index order) and combine them as
/// (l0 + l1) + (l2 + l3), whatever the body — scalar emulates the lanes,
/// SSE2 uses two 2-wide accumulators and AVX2 one 4-wide accumulator.
/// Neither more lanes nor FMA may be used: both would change the rounding
/// sequence. Element-wise predicates (threshold scans, via mask registers
/// on AVX-512) and min/max are order-insensitive for NaN-free input, so
/// those kernels run at full width. Consequently a detector built on these
/// kernels returns the *identical* outlier index set on every backend,
/// which is what makes the scalar/SIMD parity tests exact and the verifier
/// cache answer-invariant across machines.
///
/// Inputs are assumed NaN-free; the population index only ever feeds real
/// metric values.
enum class Backend {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
  kAvx512 = 3,
};

/// \brief Best backend the running CPU supports (cpuid probe).
Backend BestSupportedBackend();

/// \brief Every backend the running CPU supports, scalar first and
/// BestSupportedBackend() last.
std::vector<Backend> SupportedBackends();

/// \brief The backend all kernels dispatch to: BestSupportedBackend(),
/// resolved once on first use. Thread-safe.
Backend ActiveBackend();

/// \brief Overrides the active backend (clamped to BestSupportedBackend so
/// an AVX-512 request on an AVX2-only host degrades instead of faulting).
/// Returns the backend actually installed. Intended for parity tests and
/// the per-tier micro bench; not part of the serving API.
Backend SetBackendForTest(Backend backend);

/// \brief Stable lower-case name: "scalar", "sse2", "avx2" or "avx512".
const char* BackendName(Backend backend);

/// \brief BackendName(ActiveBackend()) — every BENCH_JSON line records it
/// (`kernel_backend`) so each bench record says which kernel path ran.
const char* ActiveBackendName();

/// \brief Lane-canonical sum of `values`.
double Sum(std::span<const double> values);

/// \brief Lane-canonical sum of squared deviations Σ (x - center)^2.
double SumSqDev(std::span<const double> values, double center);

/// \brief Two-pass fused mean / unbiased sample variance (n - 1 in the
/// denominator; variance is 0 for n < 2). mean is Sum(values)/n.
struct MeanVar {
  double mean = 0.0;
  double variance = 0.0;
};
MeanVar MeanAndVariance(std::span<const double> values);

/// \brief Minimum and maximum of a non-empty span.
struct MinMax {
  double min = 0.0;
  double max = 0.0;
};
MinMax MinMaxOf(std::span<const double> values);

/// \brief Position and value of the largest |x - center| over a non-empty
/// span; ties break toward the smallest index (exactly the semantics of a
/// first-wins linear scan, on every backend).
struct ArgAbsDev {
  size_t index = 0;
  double abs_dev = 0.0;
};
ArgAbsDev ArgMaxAbsDeviation(std::span<const double> values, double center);

/// \brief Appends (ascending) every index i with |x_i - mean| / stddev >
/// threshold. The division is performed per element, matching the z-score
/// definition exactly.
void ScanAbsZAbove(std::span<const double> values, double mean,
                   double stddev, double threshold,
                   std::vector<size_t>* out);

/// \brief Appends (ascending) every index i with x_i < lo or x_i > hi.
void ScanOutsideRange(std::span<const double> values, double lo, double hi,
                      std::vector<size_t>* out);

/// \brief Appends (ascending) every index i with x_i > threshold.
void ScanAbove(std::span<const double> values, double threshold,
               std::vector<size_t>* out);

/// \brief LOF reachability accumulation: lane-canonical sum of
/// max(kdist[j], |xi - x[j]|) over the whole window. `x` and `kdist` must
/// have equal length. Callers that need to exclude the self term subtract
/// it afterwards (the j == self addend is exactly kdist[self] since
/// |xi - xi| = 0 and kdist >= 0).
double ReachSum(std::span<const double> x, std::span<const double> kdist,
                double xi);

}  // namespace simd
}  // namespace pcor
