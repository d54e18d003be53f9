#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/data/dataset.h"
#include "src/data/schema.h"

namespace pcor {

/// \brief A context: a binary vector of length t = sum_i |A_i| choosing, for
/// each attribute, a subset of its domain values (Section 3 of the paper).
///
/// Bit layout follows Schema: attribute i owns bits
/// [schema.value_offset(i), schema.value_offset(i) + |A_i|). Two contexts
/// are *connected* (adjacent in the context graph) iff their Hamming
/// distance is 1. Storage is inline (up to kMaxBits bits), so contexts are
/// cheap to copy, hash and compare — they are used as hash-map keys
/// throughout the search layer.
class ContextVec {
 public:
  static constexpr size_t kMaxBits = 256;
  static constexpr size_t kWords = kMaxBits / 64;

  ContextVec() : num_bits_(0) { words_.fill(0); }
  explicit ContextVec(size_t num_bits);

  size_t num_bits() const { return num_bits_; }

  void Set(size_t i);
  void Clear(size_t i);
  void Flip(size_t i);
  bool Test(size_t i) const;

  /// \brief Hamming weight (number of chosen attribute values).
  size_t Weight() const;

  /// \brief Hamming distance to another context of the same length.
  size_t HammingDistance(const ContextVec& other) const;

  /// \brief True iff every bit set in `other` (of the same length) is set
  /// here too.
  bool Covers(const ContextVec& other) const {
    for (size_t w = 0; w < kWords; ++w) {
      if ((other.words_[w] & ~words_[w]) != 0) return false;
    }
    return true;
  }

  /// \brief True iff the two contexts are connected in the context graph.
  bool IsConnectedTo(const ContextVec& other) const {
    return HammingDistance(other) == 1;
  }

  /// \brief Applies fn(bit) for every set bit, ascending.
  void ForEachSetBit(const std::function<void(size_t)>& fn) const;

  /// \brief Bit string rendering, most significant attribute first, e.g.
  /// "101001010" for the paper's running example.
  std::string ToBitString() const;

  /// \brief Parses a bit string of '0'/'1' characters.
  static Result<ContextVec> FromBitString(const std::string& bits);

  bool operator==(const ContextVec& other) const {
    return num_bits_ == other.num_bits_ && words_ == other.words_;
  }
  bool operator!=(const ContextVec& other) const { return !(*this == other); }

  /// \brief Deterministic hash for unordered containers.
  size_t Hash() const;

  /// \brief Lexicographic order (for canonical sorting in tests/reports).
  bool operator<(const ContextVec& other) const;

 private:
  std::array<uint64_t, kWords> words_;
  size_t num_bits_;
};

/// \brief std::hash adapter.
struct ContextVecHash {
  size_t operator()(const ContextVec& c) const { return c.Hash(); }
};

/// \brief Context helpers bound to a schema.
namespace context_ops {

/// \brief Context with every domain value of every attribute chosen.
ContextVec FullContext(const Schema& schema);

/// \brief Context choosing exactly the attribute values of `row` — the
/// narrowest context containing the record.
ContextVec ExactContext(const Schema& schema, const Dataset& dataset,
                        size_t row);

/// \brief True iff the record `row` satisfies context `c` (each attribute's
/// chosen-value set contains the record's value) — the "V in D_C" test.
bool ContainsRow(const Schema& schema, const Dataset& dataset, size_t row,
                 const ContextVec& c);

/// \brief True iff every attribute has at least one chosen value (minimum
/// Hamming weight m; anything less denotes an empty population).
bool HasAllAttributes(const Schema& schema, const ContextVec& c);

/// \brief Number of chosen values of attribute `attr` in `c`.
size_t AttributeWeight(const Schema& schema, const ContextVec& c,
                       size_t attr);

/// \brief Human-readable conjunction-of-disjunctions, e.g.
/// "[Jobtitle IN {CEO, Lawyer}] AND [City IN {Toronto}]".
std::string Describe(const Schema& schema, const ContextVec& c);

}  // namespace context_ops
}  // namespace pcor
