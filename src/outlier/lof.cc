#include "src/outlier/lof.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "src/common/logging.h"
#include "src/common/simd.h"

namespace pcor {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// Order-preserving map of a double onto uint64: flip every bit of a
// negative, only the sign bit of a non-negative. -0.0 is folded to +0.0 so
// the two tie, exactly as they compare equal.
inline uint64_t SortKey(double v) {
  const uint64_t bits = std::bit_cast<uint64_t>(v == 0.0 ? 0.0 : v);
  return (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
}

// Stable LSD radix sort of (key, pos) pairs by key, one byte per pass.
// Keys are offset by their minimum first, so only the bytes that span the
// key range get a pass; their histograms all come from one read, and a
// byte every key shares costs no pass. The *_tmp vectors are the ping-pong
// buffers; the sorted pairs always end up in `key` and `pos`.
void RadixSort(std::vector<uint64_t>& key, std::vector<uint32_t>& pos,
               std::vector<uint64_t>& key_tmp, std::vector<uint32_t>& pos_tmp) {
  const size_t n = key.size();
  const auto [min_it, max_it] = std::minmax_element(key.begin(), key.end());
  const uint64_t min_key = *min_it;
  const size_t digits = (std::bit_width(*max_it - min_key) + 7) / 8;
  uint32_t hist[sizeof(uint64_t)][256] = {};
  for (size_t i = 0; i < n; ++i) {
    const uint64_t k = key[i] - min_key;
    key[i] = k;
    for (size_t d = 0; d < digits; ++d) ++hist[d][(k >> (8 * d)) & 0xff];
  }
  for (size_t d = 0; d < digits; ++d) {
    const unsigned shift = static_cast<unsigned>(8 * d);
    uint32_t* offset = hist[d];
    if (offset[(key[0] >> shift) & 0xff] == n) continue;
    uint32_t sum = 0;
    for (size_t b = 0; b < 256; ++b) {
      const uint32_t count = offset[b];
      offset[b] = sum;
      sum += count;
    }
    for (size_t i = 0; i < n; ++i) {
      const uint32_t j = offset[(key[i] >> shift) & 0xff]++;
      key_tmp[j] = key[i];
      pos_tmp[j] = pos[i];
    }
    key.swap(key_tmp);
    pos.swap(pos_tmp);
  }
}
}  // namespace

LofDetector::LofDetector(LofOptions options) : options_(options) {}

std::vector<double> LofDetector::Scores(
    std::span<const double> values) const {
  const size_t n = values.size();
  const size_t k = options_.k;
  std::vector<double> scores(n, 1.0);
  if (n <= k + 1) return scores;  // not enough points for a k-neighborhood
  PCOR_CHECK(n <= std::numeric_limits<uint32_t>::max())
      << "LOF positions are 32-bit";

  // Sorted order by (value, position): a stable radix sort breaks value
  // ties by position. The working buffers are per-thread scratch (48 B per
  // element): LOF runs on every verifier miss and must not reallocate per
  // probe. win_lo doubles as the sort's second position buffer.
  thread_local std::vector<uint64_t> key, key_tmp;
  thread_local std::vector<uint32_t> pos, win_lo;
  key.resize(n);
  key_tmp.resize(n);
  pos.resize(n);
  win_lo.resize(n);
  for (size_t i = 0; i < n; ++i) {
    key[i] = SortKey(values[i]);
    pos[i] = static_cast<uint32_t>(i);
  }
  RadixSort(key, pos, key_tmp, win_lo);
  thread_local std::vector<double> x;
  x.resize(n);
  for (size_t i = 0; i < n; ++i) x[i] = values[pos[i]];

  // Exact k-NN window [win_lo[i], win_lo[i] + k] per sorted position: the
  // k nearest points with distance ties toward the left, exactly as a
  // k-step expansion toward the nearer side picks them. The window's left
  // end only moves right as i grows, so one pointer l finds every window in
  // O(n) total: it advances while the left end loses to the point past the
  // right end. The test is the exact negation of "left wins", so a NaN
  // distance (between equal infinities) loses, as it did in the expansion.
  // A -inf point loses every left comparison, so its window starts at
  // itself, or as far right as fits; l skips it, because finite points
  // after the -inf block can still reach back into it.
  thread_local std::vector<double> kdist;
  kdist.resize(n);
  const size_t last_lo = n - 1 - k;
  size_t l = 0;
  for (size_t i = 0; i < n; ++i) {
    if (x[i] != -kInf) {
      l = std::max(l, i > k ? i - k : 0);
      while (l < i && l < last_lo && !(x[i] - x[l] <= x[l + k + 1] - x[i])) {
        ++l;
      }
    }
    const size_t lo = x[i] == -kInf ? std::min(i, last_lo) : l;
    win_lo[i] = static_cast<uint32_t>(lo);
    kdist[i] = std::max(x[i] - x[lo], x[lo + k] - x[i]);
  }

  // Local reachability density in sorted space. The reachability
  // accumulation vectorizes over the whole window including the self term
  // — which is exactly kdist[i], since |x[i] - x[i]| = 0 and k-distances
  // are non-negative — and subtracts it afterwards. Summing non-negatives
  // is monotone, so the subtraction can never go negative.
  thread_local std::vector<double> lrd;
  lrd.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const double reach_sum =
        simd::ReachSum(std::span<const double>(x).subspan(win_lo[i], k + 1),
                       std::span<const double>(kdist).subspan(win_lo[i], k + 1),
                       x[i]) -
        kdist[i];
    lrd[i] = reach_sum > 0.0 ? static_cast<double>(k) / reach_sum : kInf;
  }

  // LOF = mean over neighbors of lrd(neighbor) / lrd(point), summed in
  // window order. A point of infinite lrd scores each infinite-lrd
  // neighbor 1 and any other 0 (the duplicate-cluster convention, lof.h).
  for (size_t i = 0; i < n; ++i) {
    const size_t lo = win_lo[i];
    const double denom = lrd[i];
    double acc = 0.0;
    if (std::isinf(denom)) {
      for (size_t j = lo; j <= lo + k; ++j) {
        if (j != i) acc += std::isinf(lrd[j]) ? 1.0 : 0.0;
      }
    } else {
      for (size_t j = lo; j < i; ++j) acc += lrd[j] / denom;
      for (size_t j = i + 1; j <= lo + k; ++j) acc += lrd[j] / denom;
    }
    scores[pos[i]] = acc / static_cast<double>(k);
  }
  return scores;
}

void LofDetector::Detect(std::span<const double> values,
                         std::vector<size_t>* flagged) const {
  flagged->clear();
  if (values.size() < options_.min_population) return;
  const std::vector<double> scores = Scores(values);
  simd::ScanAbove(scores, options_.score_threshold, flagged);
}

}  // namespace pcor
