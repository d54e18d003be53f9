#include "src/common/simd.h"

#include <algorithm>
#include <atomic>
#include <cmath>

// x86-64 only: SSE2 is the ABI baseline there, so the SSE2 kernel body
// needs no target attribute and no cpuid gate. (32-bit x86 deliberately
// falls back to scalar — SSE2 is not its baseline.)
#if defined(__x86_64__)
#define PCOR_SIMD_X86 1
#include <immintrin.h>
#else
#define PCOR_SIMD_X86 0
#endif

namespace pcor {
namespace simd {
namespace {

// -1 = not yet resolved; otherwise a Backend value. Resolving twice is
// harmless (both writers compute the same value), so a benign CAS-free
// publish is enough.
std::atomic<int> g_backend{-1};

// ---------------------------------------------------------------------------
// Scalar reference bodies. Reductions emulate the canonical 4-lane
// accumulation so scalar results are bit-identical to the vector paths (see
// simd.h).
// ---------------------------------------------------------------------------

inline double CombineLanes(const double lane[4]) {
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

double SumScalar(std::span<const double> v) {
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  for (size_t i = 0; i < v.size(); ++i) lane[i & 3] += v[i];
  return CombineLanes(lane);
}

double SumSqDevScalar(std::span<const double> v, double center) {
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  for (size_t i = 0; i < v.size(); ++i) {
    const double d = v[i] - center;
    lane[i & 3] += d * d;
  }
  return CombineLanes(lane);
}

MinMax MinMaxScalar(std::span<const double> v) {
  MinMax mm{v[0], v[0]};
  for (double x : v) {
    mm.min = std::min(mm.min, x);
    mm.max = std::max(mm.max, x);
  }
  return mm;
}

// A first-wins linear scan. The vector paths keep per-lane earliest
// maxima and resolve cross-lane ties toward the smallest index, which
// provably reduces to these exact semantics (|deviations| compare exactly;
// no reassociation is involved).
ArgAbsDev ArgMaxAbsDevScalar(std::span<const double> v, double center) {
  ArgAbsDev best{0, std::abs(v[0] - center)};
  for (size_t i = 1; i < v.size(); ++i) {
    const double dev = std::abs(v[i] - center);
    if (dev > best.abs_dev) {
      best.abs_dev = dev;
      best.index = i;
    }
  }
  return best;
}

void ScanAbsZScalar(std::span<const double> v, double mean, double sd,
                    double t, std::vector<size_t>* out) {
  for (size_t i = 0; i < v.size(); ++i) {
    if (std::abs(v[i] - mean) / sd > t) out->push_back(i);
  }
}

void ScanOutsideScalar(std::span<const double> v, double lo, double hi,
                       std::vector<size_t>* out) {
  for (size_t i = 0; i < v.size(); ++i) {
    if (v[i] < lo || v[i] > hi) out->push_back(i);
  }
}

void ScanAboveScalar(std::span<const double> v, double t,
                     std::vector<size_t>* out) {
  for (size_t i = 0; i < v.size(); ++i) {
    if (v[i] > t) out->push_back(i);
  }
}

double ReachSumScalar(std::span<const double> x,
                      std::span<const double> kdist, double xi) {
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  for (size_t j = 0; j < x.size(); ++j) {
    lane[j & 3] += std::max(kdist[j], std::abs(xi - x[j]));
  }
  return CombineLanes(lane);
}

#if PCOR_SIMD_X86

// ---------------------------------------------------------------------------
// SSE2 (baseline on x86-64): ReachSum only. Two 2-wide accumulators form the
// four canonical lanes: lanes {0,1} in acc01, lanes {2,3} in acc23.
// ---------------------------------------------------------------------------

inline __m128d Abs128(__m128d v) {
  return _mm_andnot_pd(_mm_set1_pd(-0.0), v);
}

double ReachSumSse2(std::span<const double> x, std::span<const double> kdist,
                    double xi) {
  const size_t n = x.size();
  const size_t n4 = n & ~size_t{3};
  const __m128d vxi = _mm_set1_pd(xi);
  __m128d acc01 = _mm_setzero_pd();
  __m128d acc23 = _mm_setzero_pd();
  for (size_t j = 0; j < n4; j += 4) {
    const __m128d d0 = Abs128(_mm_sub_pd(vxi, _mm_loadu_pd(x.data() + j)));
    const __m128d d1 =
        Abs128(_mm_sub_pd(vxi, _mm_loadu_pd(x.data() + j + 2)));
    acc01 = _mm_add_pd(acc01, _mm_max_pd(_mm_loadu_pd(kdist.data() + j), d0));
    acc23 = _mm_add_pd(acc23,
                       _mm_max_pd(_mm_loadu_pd(kdist.data() + j + 2), d1));
  }
  alignas(16) double lane[4];
  _mm_store_pd(lane, acc01);
  _mm_store_pd(lane + 2, acc23);
  for (size_t j = n4; j < n; ++j) {
    lane[j & 3] += std::max(kdist[j], std::abs(xi - x[j]));
  }
  return CombineLanes(lane);
}

// Emits the indices of set mask bits (ascending) for a block starting at
// `base`; the scans below share it.
inline void EmitMaskBits(int mask, size_t base, std::vector<size_t>* out) {
  while (mask != 0) {
    const int bit = __builtin_ctz(static_cast<unsigned>(mask));
    out->push_back(base + static_cast<size_t>(bit));
    mask &= mask - 1;
  }
}

// ---------------------------------------------------------------------------
// AVX2. Each function carries the target attribute so the rest of the
// binary stays buildable for plain x86-64; the dispatcher guarantees these
// bodies only run after a cpuid check. The reductions keep one 4-wide
// accumulator, i.e. exactly the four canonical lanes.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) inline __m256d Abs256(__m256d v) {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), v);
}

__attribute__((target("avx2"))) double SumAvx2(std::span<const double> v) {
  const size_t n = v.size();
  const size_t n4 = n & ~size_t{3};
  __m256d acc = _mm256_setzero_pd();
  for (size_t i = 0; i < n4; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_loadu_pd(v.data() + i));
  }
  alignas(32) double lane[4];
  _mm256_store_pd(lane, acc);
  for (size_t i = n4; i < n; ++i) lane[i & 3] += v[i];
  return CombineLanes(lane);
}

__attribute__((target("avx2"))) double SumSqDevAvx2(
    std::span<const double> v, double center) {
  const size_t n = v.size();
  const size_t n4 = n & ~size_t{3};
  const __m256d c = _mm256_set1_pd(center);
  __m256d acc = _mm256_setzero_pd();
  for (size_t i = 0; i < n4; i += 4) {
    const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(v.data() + i), c);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
  alignas(32) double lane[4];
  _mm256_store_pd(lane, acc);
  for (size_t i = n4; i < n; ++i) {
    const double d = v[i] - center;
    lane[i & 3] += d * d;
  }
  return CombineLanes(lane);
}

__attribute__((target("avx2"))) MinMax MinMaxAvx2(std::span<const double> v) {
  const size_t n = v.size();
  const size_t n4 = n & ~size_t{3};
  __m256d vmin = _mm256_set1_pd(v[0]);
  __m256d vmax = vmin;
  for (size_t i = 0; i < n4; i += 4) {
    const __m256d x = _mm256_loadu_pd(v.data() + i);
    vmin = _mm256_min_pd(vmin, x);
    vmax = _mm256_max_pd(vmax, x);
  }
  alignas(32) double mn[4], mx[4];
  _mm256_store_pd(mn, vmin);
  _mm256_store_pd(mx, vmax);
  MinMax mm{std::min(std::min(mn[0], mn[1]), std::min(mn[2], mn[3])),
            std::max(std::max(mx[0], mx[1]), std::max(mx[2], mx[3]))};
  for (size_t i = n4; i < n; ++i) {
    mm.min = std::min(mm.min, v[i]);
    mm.max = std::max(mm.max, v[i]);
  }
  return mm;
}

__attribute__((target("avx2"))) ArgAbsDev ArgMaxAbsDevAvx2(
    std::span<const double> v, double center) {
  const size_t n = v.size();
  const size_t n4 = n & ~size_t{3};
  const __m256d c = _mm256_set1_pd(center);
  __m256d best = _mm256_set1_pd(-1.0);
  __m256d best_idx = _mm256_setzero_pd();
  __m256d idx = _mm256_set_pd(3.0, 2.0, 1.0, 0.0);
  const __m256d step = _mm256_set1_pd(4.0);
  for (size_t i = 0; i < n4; i += 4) {
    const __m256d dev =
        Abs256(_mm256_sub_pd(_mm256_loadu_pd(v.data() + i), c));
    const __m256d gt = _mm256_cmp_pd(dev, best, _CMP_GT_OQ);
    best = _mm256_blendv_pd(best, dev, gt);
    best_idx = _mm256_blendv_pd(best_idx, idx, gt);
    idx = _mm256_add_pd(idx, step);
  }
  alignas(32) double dev_lane[4], idx_lane[4];
  _mm256_store_pd(dev_lane, best);
  _mm256_store_pd(idx_lane, best_idx);
  ArgAbsDev out{0, -1.0};
  for (int lane = 0; lane < 4; ++lane) {
    const size_t lane_index = static_cast<size_t>(idx_lane[lane]);
    if (dev_lane[lane] > out.abs_dev ||
        (dev_lane[lane] == out.abs_dev && lane_index < out.index)) {
      out.abs_dev = dev_lane[lane];
      out.index = lane_index;
    }
  }
  for (size_t i = n4; i < n; ++i) {
    const double dev = std::abs(v[i] - center);
    if (dev > out.abs_dev) {
      out.abs_dev = dev;
      out.index = i;
    }
  }
  return out;
}

__attribute__((target("avx2"))) void ScanAbsZAvx2(std::span<const double> v,
                                                  double mean, double sd,
                                                  double t,
                                                  std::vector<size_t>* out) {
  const size_t n = v.size();
  const size_t n4 = n & ~size_t{3};
  const __m256d m = _mm256_set1_pd(mean);
  const __m256d s = _mm256_set1_pd(sd);
  const __m256d thr = _mm256_set1_pd(t);
  for (size_t i = 0; i < n4; i += 4) {
    const __m256d z = _mm256_div_pd(
        Abs256(_mm256_sub_pd(_mm256_loadu_pd(v.data() + i), m)), s);
    EmitMaskBits(_mm256_movemask_pd(_mm256_cmp_pd(z, thr, _CMP_GT_OQ)), i,
                 out);
  }
  for (size_t i = n4; i < n; ++i) {
    if (std::abs(v[i] - mean) / sd > t) out->push_back(i);
  }
}

__attribute__((target("avx2"))) void ScanOutsideAvx2(
    std::span<const double> v, double lo, double hi,
    std::vector<size_t>* out) {
  const size_t n = v.size();
  const size_t n4 = n & ~size_t{3};
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vhi = _mm256_set1_pd(hi);
  for (size_t i = 0; i < n4; i += 4) {
    const __m256d x = _mm256_loadu_pd(v.data() + i);
    const __m256d outside = _mm256_or_pd(_mm256_cmp_pd(x, vlo, _CMP_LT_OQ),
                                         _mm256_cmp_pd(x, vhi, _CMP_GT_OQ));
    EmitMaskBits(_mm256_movemask_pd(outside), i, out);
  }
  for (size_t i = n4; i < n; ++i) {
    if (v[i] < lo || v[i] > hi) out->push_back(i);
  }
}

__attribute__((target("avx2"))) void ScanAboveAvx2(std::span<const double> v,
                                                   double t,
                                                   std::vector<size_t>* out) {
  const size_t n = v.size();
  const size_t n4 = n & ~size_t{3};
  const __m256d thr = _mm256_set1_pd(t);
  for (size_t i = 0; i < n4; i += 4) {
    const __m256d x = _mm256_loadu_pd(v.data() + i);
    EmitMaskBits(_mm256_movemask_pd(_mm256_cmp_pd(x, thr, _CMP_GT_OQ)), i,
                 out);
  }
  for (size_t i = n4; i < n; ++i) {
    if (v[i] > t) out->push_back(i);
  }
}

// ---------------------------------------------------------------------------
// AVX-512F: the element-wise kernels (min/max, argmax with exact compares,
// threshold scans via __mmask8), which are order-insensitive and so run
// genuinely 8-wide.
// ---------------------------------------------------------------------------

// GCC's unmasked AVX-512 intrinsics pass _mm512_undefined_pd() as the
// merge operand, which trips -Wmaybe-uninitialized once inlined into user
// code (GCC PR105593). The value is architecturally ignored under an
// all-ones mask; silence the false positive for this backend only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

__attribute__((target("avx512f"))) inline __m512d Abs512(__m512d v) {
  return _mm512_abs_pd(v);
}

__attribute__((target("avx512f"))) MinMax MinMaxAvx512(
    std::span<const double> v) {
  const size_t n = v.size();
  const size_t n8 = n & ~size_t{7};
  __m512d vmin = _mm512_set1_pd(v[0]);
  __m512d vmax = vmin;
  for (size_t i = 0; i < n8; i += 8) {
    const __m512d x = _mm512_loadu_pd(v.data() + i);
    vmin = _mm512_min_pd(vmin, x);
    vmax = _mm512_max_pd(vmax, x);
  }
  alignas(64) double mn[8], mx[8];
  _mm512_store_pd(mn, vmin);
  _mm512_store_pd(mx, vmax);
  MinMax mm{mn[0], mx[0]};
  for (int lane = 1; lane < 8; ++lane) {
    mm.min = std::min(mm.min, mn[lane]);
    mm.max = std::max(mm.max, mx[lane]);
  }
  for (size_t i = n8; i < n; ++i) {
    mm.min = std::min(mm.min, v[i]);
    mm.max = std::max(mm.max, v[i]);
  }
  return mm;
}

__attribute__((target("avx512f"))) ArgAbsDev ArgMaxAbsDevAvx512(
    std::span<const double> v, double center) {
  const size_t n = v.size();
  const size_t n8 = n & ~size_t{7};
  const __m512d c = _mm512_set1_pd(center);
  __m512d best = _mm512_set1_pd(-1.0);
  __m512d best_idx = _mm512_setzero_pd();
  __m512d idx = _mm512_set_pd(7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.0);
  const __m512d step = _mm512_set1_pd(8.0);
  for (size_t i = 0; i < n8; i += 8) {
    const __m512d dev =
        Abs512(_mm512_sub_pd(_mm512_loadu_pd(v.data() + i), c));
    const __mmask8 gt = _mm512_cmp_pd_mask(dev, best, _CMP_GT_OQ);
    best = _mm512_mask_blend_pd(gt, best, dev);
    best_idx = _mm512_mask_blend_pd(gt, best_idx, idx);
    idx = _mm512_add_pd(idx, step);
  }
  alignas(64) double dev_lane[8], idx_lane[8];
  _mm512_store_pd(dev_lane, best);
  _mm512_store_pd(idx_lane, best_idx);
  ArgAbsDev out{0, -1.0};
  for (int lane = 0; lane < 8; ++lane) {
    const size_t lane_index = static_cast<size_t>(idx_lane[lane]);
    if (dev_lane[lane] > out.abs_dev ||
        (dev_lane[lane] == out.abs_dev && lane_index < out.index)) {
      out.abs_dev = dev_lane[lane];
      out.index = lane_index;
    }
  }
  for (size_t i = n8; i < n; ++i) {
    const double dev = std::abs(v[i] - center);
    if (dev > out.abs_dev) {
      out.abs_dev = dev;
      out.index = i;
    }
  }
  return out;
}

__attribute__((target("avx512f"))) void ScanAbsZAvx512(
    std::span<const double> v, double mean, double sd, double t,
    std::vector<size_t>* out) {
  const size_t n = v.size();
  const size_t n8 = n & ~size_t{7};
  const __m512d m = _mm512_set1_pd(mean);
  const __m512d s = _mm512_set1_pd(sd);
  const __m512d thr = _mm512_set1_pd(t);
  for (size_t i = 0; i < n8; i += 8) {
    const __m512d z = _mm512_div_pd(
        Abs512(_mm512_sub_pd(_mm512_loadu_pd(v.data() + i), m)), s);
    EmitMaskBits(static_cast<int>(_mm512_cmp_pd_mask(z, thr, _CMP_GT_OQ)), i,
                 out);
  }
  for (size_t i = n8; i < n; ++i) {
    if (std::abs(v[i] - mean) / sd > t) out->push_back(i);
  }
}

__attribute__((target("avx512f"))) void ScanOutsideAvx512(
    std::span<const double> v, double lo, double hi,
    std::vector<size_t>* out) {
  const size_t n = v.size();
  const size_t n8 = n & ~size_t{7};
  const __m512d vlo = _mm512_set1_pd(lo);
  const __m512d vhi = _mm512_set1_pd(hi);
  for (size_t i = 0; i < n8; i += 8) {
    const __m512d x = _mm512_loadu_pd(v.data() + i);
    const __mmask8 outside =
        _mm512_cmp_pd_mask(x, vlo, _CMP_LT_OQ) |
        _mm512_cmp_pd_mask(x, vhi, _CMP_GT_OQ);
    EmitMaskBits(static_cast<int>(outside), i, out);
  }
  for (size_t i = n8; i < n; ++i) {
    if (v[i] < lo || v[i] > hi) out->push_back(i);
  }
}

__attribute__((target("avx512f"))) void ScanAboveAvx512(
    std::span<const double> v, double t, std::vector<size_t>* out) {
  const size_t n = v.size();
  const size_t n8 = n & ~size_t{7};
  const __m512d thr = _mm512_set1_pd(t);
  for (size_t i = 0; i < n8; i += 8) {
    const __m512d x = _mm512_loadu_pd(v.data() + i);
    EmitMaskBits(static_cast<int>(_mm512_cmp_pd_mask(x, thr, _CMP_GT_OQ)), i,
                 out);
  }
  for (size_t i = n8; i < n; ++i) {
    if (v[i] > t) out->push_back(i);
  }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // PCOR_SIMD_X86

}  // namespace

Backend BestSupportedBackend() {
#if PCOR_SIMD_X86
  if (__builtin_cpu_supports("avx512f")) return Backend::kAvx512;
  if (__builtin_cpu_supports("avx2")) return Backend::kAvx2;
  return Backend::kSse2;  // SSE2 is the x86-64 baseline.
#else
  return Backend::kScalar;
#endif
}

std::vector<Backend> SupportedBackends() {
  std::vector<Backend> backends;
  for (int b = 0; b <= static_cast<int>(BestSupportedBackend()); ++b) {
    backends.push_back(static_cast<Backend>(b));
  }
  return backends;
}

Backend ActiveBackend() {
  int backend = g_backend.load(std::memory_order_acquire);
  if (backend < 0) {
    backend = static_cast<int>(BestSupportedBackend());
    g_backend.store(backend, std::memory_order_release);
  }
  return static_cast<Backend>(backend);
}

Backend SetBackendForTest(Backend backend) {
  const Backend best = BestSupportedBackend();
  if (static_cast<int>(backend) > static_cast<int>(best)) backend = best;
  g_backend.store(static_cast<int>(backend), std::memory_order_release);
  return backend;
}

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kSse2:
      return "sse2";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kAvx512:
      return "avx512";
    case Backend::kScalar:
      break;
  }
  return "scalar";
}

const char* ActiveBackendName() { return BackendName(ActiveBackend()); }

double Sum(std::span<const double> values) {
#if PCOR_SIMD_X86
  if (ActiveBackend() >= Backend::kAvx2) return SumAvx2(values);
#endif
  return SumScalar(values);
}

double SumSqDev(std::span<const double> values, double center) {
#if PCOR_SIMD_X86
  if (ActiveBackend() >= Backend::kAvx2) return SumSqDevAvx2(values, center);
#endif
  return SumSqDevScalar(values, center);
}

MeanVar MeanAndVariance(std::span<const double> values) {
  MeanVar mv;
  const size_t n = values.size();
  if (n == 0) return mv;
  mv.mean = Sum(values) / static_cast<double>(n);
  if (n < 2) return mv;
  mv.variance = SumSqDev(values, mv.mean) / static_cast<double>(n - 1);
  return mv;
}

MinMax MinMaxOf(std::span<const double> values) {
  switch (ActiveBackend()) {
#if PCOR_SIMD_X86
    case Backend::kAvx512:
      return MinMaxAvx512(values);
    case Backend::kAvx2:
      return MinMaxAvx2(values);
#endif
    default:
      return MinMaxScalar(values);
  }
}

ArgAbsDev ArgMaxAbsDeviation(std::span<const double> values, double center) {
  switch (ActiveBackend()) {
#if PCOR_SIMD_X86
    case Backend::kAvx512:
      return ArgMaxAbsDevAvx512(values, center);
    case Backend::kAvx2:
      return ArgMaxAbsDevAvx2(values, center);
#endif
    default:
      return ArgMaxAbsDevScalar(values, center);
  }
}

void ScanAbsZAbove(std::span<const double> values, double mean,
                   double stddev, double threshold,
                   std::vector<size_t>* out) {
  switch (ActiveBackend()) {
#if PCOR_SIMD_X86
    case Backend::kAvx512:
      return ScanAbsZAvx512(values, mean, stddev, threshold, out);
    case Backend::kAvx2:
      return ScanAbsZAvx2(values, mean, stddev, threshold, out);
#endif
    default:
      return ScanAbsZScalar(values, mean, stddev, threshold, out);
  }
}

void ScanOutsideRange(std::span<const double> values, double lo, double hi,
                      std::vector<size_t>* out) {
  switch (ActiveBackend()) {
#if PCOR_SIMD_X86
    case Backend::kAvx512:
      return ScanOutsideAvx512(values, lo, hi, out);
    case Backend::kAvx2:
      return ScanOutsideAvx2(values, lo, hi, out);
#endif
    default:
      return ScanOutsideScalar(values, lo, hi, out);
  }
}

void ScanAbove(std::span<const double> values, double threshold,
               std::vector<size_t>* out) {
  switch (ActiveBackend()) {
#if PCOR_SIMD_X86
    case Backend::kAvx512:
      return ScanAboveAvx512(values, threshold, out);
    case Backend::kAvx2:
      return ScanAboveAvx2(values, threshold, out);
#endif
    default:
      return ScanAboveScalar(values, threshold, out);
  }
}

double ReachSum(std::span<const double> x, std::span<const double> kdist,
                double xi) {
#if PCOR_SIMD_X86
  if (ActiveBackend() != Backend::kScalar) return ReachSumSse2(x, kdist, xi);
#endif
  return ReachSumScalar(x, kdist, xi);
}

}  // namespace simd
}  // namespace pcor
