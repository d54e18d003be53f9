#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace pcor {

/// \brief The SplitMix64 finalizer: a bijective avalanche mix of one 64-bit
/// word (Steele, Lea & Flood 2014). Every output bit depends on every input
/// bit, so nearby inputs (seed, seed+1, ...) map to decorrelated outputs —
/// the right tool for deriving independent per-trial stream seeds from a
/// (batch seed, index) pair.
uint64_t SplitMix64Mix(uint64_t x);

/// \brief Deterministic 64-bit PRNG (xoshiro256** seeded via SplitMix64).
///
/// Every randomized component of the library draws from an explicitly passed
/// Rng so that experiments are reproducible from a single seed. The
/// generator is not cryptographically secure; a production deployment of a
/// DP mechanism must swap in a CSPRNG behind the same interface (the call
/// sites only use the methods below).
class Rng {
 public:
  /// \brief Seeds the four lanes of xoshiro256** from SplitMix64(seed).
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// \brief Uniform 64-bit word.
  uint64_t Next();

  /// \brief Uniform integer in [0, bound), bound > 0. Uses rejection
  /// sampling (Lemire) to avoid modulo bias.
  uint64_t NextBounded(uint64_t bound);

  /// \brief Uniform double in [0, 1).
  double NextDouble();

  /// \brief Uniform double in (0, 1]; never returns 0 (safe for log()).
  double NextDoublePositive();

  /// \brief Uniform integer in [lo, hi] inclusive.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// \brief Bernoulli draw with success probability p.
  bool NextBernoulli(double p);

  /// \brief Standard Gumbel(0,1) draw: -log(-log(U)).
  double NextGumbel();

  /// \brief Standard normal via Box-Muller.
  double NextGaussian();

  /// \brief Exponential(rate) draw.
  double NextExponential(double rate);

  /// \brief Samples index i with probability weights[i] / sum(weights).
  /// Weights must be non-negative with a positive sum.
  size_t NextDiscrete(const std::vector<double>& weights);

  /// \brief Fisher-Yates shuffle of [first, last) indices of a vector.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(NextBounded(i + 1));
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// \brief Samples k distinct indices from [0, n) (k <= n), sorted.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// \brief Derives an independent child generator (for per-thread use).
  Rng Fork();

 private:
  uint64_t s_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace pcor
