#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pcor {

/// \brief Dense, fixed-size bitset over row ids.
///
/// This is the population-filtering engine: each attribute value owns one
/// BitVector over the dataset's rows, and a context's population is computed
/// with word-wise OR (within an attribute's disjunction) and AND (across
/// attributes). All binary operations require equal sizes.
class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(size_t size, bool value = false);

  size_t size() const { return size_; }
  size_t num_words() const { return words_.size(); }

  /// \brief Resizes to `size` bits, all set to `value`, reusing the word
  /// storage — no allocation once the vector has grown to its steady-state
  /// capacity. The scratch-buffer counterpart of the sizing constructor.
  void Assign(size_t size, bool value);

  void Set(size_t i);
  void Clear(size_t i);
  bool Test(size_t i) const;

  /// \brief Sets/clears every bit.
  void FillAll(bool value);

  /// \brief Number of set bits.
  size_t Count() const;
  bool AnySet() const;
  bool NoneSet() const { return !AnySet(); }

  /// \brief In-place boolean algebra; sizes must match.
  void AndWith(const BitVector& other);
  void OrWith(const BitVector& other);

  /// \brief Count of set bits in (this AND other), without materializing.
  size_t AndCount(const BitVector& other) const;

  /// \brief Indices of all set bits, ascending.
  std::vector<uint32_t> ToIndices() const;

  /// \brief Applies fn(index) for each set bit, ascending.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t word = words_[w];
      while (word) {
        unsigned bit = static_cast<unsigned>(__builtin_ctzll(word));
        fn(static_cast<uint32_t>(w * 64 + bit));
        word &= word - 1;
      }
    }
  }

  bool operator==(const BitVector& other) const {
    return size_ == other.size_ && words_ == other.words_;
  }

  const uint64_t* data() const { return words_.data(); }

  /// \brief Mutable word access for the composed probe's gather
  /// (OrShiftedInto), which deposits segment bitmaps into the global one a
  /// word at a time. Callers must not set bits at or above size().
  uint64_t* mutable_data() { return words_.data(); }

 private:
  void ZeroTailBits();

  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace pcor
