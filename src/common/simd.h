#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

namespace pcor {
namespace simd {

/// \brief Vectorized kernels for the detector hot loops.
///
/// Every kernel comes in four implementations — portable scalar, SSE2,
/// AVX2 and AVX-512F — selected once at process start via cpuid (see
/// ActiveBackend) and dispatched per call through one predictable branch.
/// The key contract is *bit-exact backend parity*: all sum-style
/// reductions accumulate into four lanes (lane j takes elements with index
/// ≡ j mod 4, in increasing index order) and combine them as
/// (l0 + l1) + (l2 + l3), regardless of backend — scalar emulates the
/// lanes, SSE2 uses two 2-wide accumulators, AVX2 one 4-wide accumulator,
/// and AVX-512 performs 512-bit loads whose halves feed the same 4-wide
/// accumulator in order (two dependent adds per 8 elements). The AVX-512
/// reductions deliberately use neither 8 independent lanes nor FMA: both
/// would change the rounding sequence and break parity. Element-wise
/// predicates (threshold scans, via mask registers on AVX-512) and min/max
/// are order-insensitive for NaN-free input, so those kernels do run
/// genuinely 8-wide. Consequently a detector built on these kernels
/// returns the *identical* outlier index set on every backend, which is
/// what makes the scalar/SIMD parity tests exact and the verifier cache
/// answer-invariant across machines.
///
/// Inputs are assumed NaN-free; the population index only ever feeds real
/// metric values.
enum class Backend {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
  kAvx512 = 3,
};

/// \brief Best backend the running CPU supports (cpuid probe, no env).
Backend BestSupportedBackend();

/// \brief The backend all kernels dispatch to. Resolved once on first use:
/// PCOR_FORCE_SIMD=scalar|sse2|avx2|avx512 pins a tier (clamped to
/// BestSupportedBackend), otherwise BestSupportedBackend() wins.
/// Thread-safe.
Backend ActiveBackend();

/// \brief Overrides the active backend (clamped to BestSupportedBackend so
/// an AVX-512 request on an AVX2-only host degrades instead of faulting).
/// Returns the backend actually installed. Intended for parity tests and
/// the scalar-vs-SIMD micro benches; not part of the serving API.
Backend SetBackendForTest(Backend backend);

/// \brief Parses a backend name ("scalar", "sse2", "avx2", "avx512");
/// nullopt for anything else.
std::optional<Backend> ParseBackendName(std::string_view name);

/// \brief The tier requested via PCOR_FORCE_SIMD, *before* clamping to
/// hardware support — nullopt when the var is unset (or the value is
/// unparseable). Lets the forced-tier ctest entries skip
/// cleanly when the requested tier exceeds the host's.
std::optional<Backend> ForcedBackendFromEnv();

/// \brief Stable lower-case name: "scalar", "sse2", "avx2" or "avx512".
const char* BackendName(Backend backend);

/// \brief BackendName(ActiveBackend()) — recorded in release metadata so
/// every PcorRelease / BENCH_JSON line says which kernel path produced it.
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

/// \brief Branch-free count of elements with x < lo or x > hi (lo <= hi).
size_t CountOutsideRange(std::span<const double> values, double lo,
                         double hi);

/// \brief LOF reachability accumulation: lane-canonical sum of
/// max(kdist[j], |xi - x[j]|) over the whole window. `x` and `kdist` must
/// have equal length. Callers that need to exclude the self term subtract
/// it afterwards (the j == self addend is exactly kdist[self] since
/// |xi - xi| = 0 and kdist >= 0).
double ReachSum(std::span<const double> x, std::span<const double> kdist,
                double xi);

}  // namespace simd
}  // namespace pcor
