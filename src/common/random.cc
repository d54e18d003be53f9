#include "src/common/random.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "src/common/logging.h"

namespace pcor {

uint64_t SplitMix64Mix(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

namespace {

inline uint64_t SplitMix64(uint64_t* state) {
  return SplitMix64Mix(*state += 0x9e3779b97f4a7c15ULL);
}

inline uint64_t Rotl(uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& lane : s_) lane = SplitMix64(&sm);
  // xoshiro must not start from the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  PCOR_CHECK(bound > 0) << "NextBounded requires bound > 0";
  // Lemire's nearly-divisionless method.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < bound) {
    uint64_t threshold = -bound % bound;
    while (l < threshold) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::NextDoublePositive() {
  return (static_cast<double>(Next() >> 11) + 1.0) * 0x1.0p-53;
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  PCOR_CHECK(lo <= hi) << "NextInt requires lo <= hi";
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextBounded(span));
}

bool Rng::NextBernoulli(double p) { return NextDouble() < p; }

double Rng::NextGumbel() { return -std::log(-std::log(NextDoublePositive())); }

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = NextDoublePositive();
  double u2 = NextDouble();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

double Rng::NextExponential(double rate) {
  PCOR_CHECK(rate > 0) << "Exponential rate must be positive";
  return -std::log(NextDoublePositive()) / rate;
}

size_t Rng::NextDiscrete(const std::vector<double>& weights) {
  PCOR_CHECK(!weights.empty()) << "NextDiscrete requires weights";
  double total = 0.0;
  for (double w : weights) {
    PCOR_CHECK(w >= 0.0) << "NextDiscrete weights must be non-negative";
    total += w;
  }
  PCOR_CHECK(total > 0.0) << "NextDiscrete weights must have positive sum";
  double target = NextDouble() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (target < acc) return i;
  }
  // Floating-point rounding can push target past the last boundary; return
  // the last index with positive weight.
  for (size_t i = weights.size(); i-- > 0;) {
    if (weights[i] > 0) return i;
  }
  return weights.size() - 1;
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  PCOR_CHECK(k <= n) << "cannot sample " << k << " of " << n;
  std::vector<size_t> out;
  out.reserve(k);
  if (k == 0) return out;
  if (k * 3 >= n) {
    // Dense regime: partial Fisher-Yates.
    std::vector<size_t> all(n);
    for (size_t i = 0; i < n; ++i) all[i] = i;
    for (size_t i = 0; i < k; ++i) {
      size_t j = i + static_cast<size_t>(NextBounded(n - i));
      std::swap(all[i], all[j]);
    }
    out.assign(all.begin(), all.begin() + static_cast<ptrdiff_t>(k));
  } else {
    // Sparse regime: rejection into a hash set.
    std::unordered_set<size_t> seen;
    seen.reserve(k * 2);
    while (seen.size() < k) seen.insert(static_cast<size_t>(NextBounded(n)));
    out.assign(seen.begin(), seen.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

Rng Rng::Fork() { return Rng(Next() ^ 0xa0761d6478bd642fULL); }

}  // namespace pcor
