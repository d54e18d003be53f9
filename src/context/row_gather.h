#pragma once

// Private to pcor_context: the one gather loop PopulationIndex and
// ShardedPopulationIndex share.

#include <cstddef>
#include <cstdint>

namespace pcor::internal {

/// \brief Writes the set bits of the bitmap `words` that fall in rows
/// [begin, end), ascending, to `row_ids`, and the metric of each row r to
/// `metric`, read from `column[r - begin]`. Walks 64 rows per word and
/// masks the range's first and last words at its edges, so neighboring
/// ranges may share a word. Returns the number of rows written; both
/// outputs must have room for them.
inline size_t GatherRowRange(const uint64_t* words, size_t begin, size_t end,
                             const double* column, uint32_t* row_ids,
                             double* metric) {
  if (begin >= end) return 0;
  const size_t first = begin / 64;
  const size_t last = (end - 1) / 64;
  const uint64_t head = ~uint64_t{0} << (begin % 64);
  const uint64_t tail = ~uint64_t{0} >> (63 - (end - 1) % 64);
  size_t n = 0;
  for (size_t w = first; w <= last; ++w) {
    uint64_t word = words[w];
    if (w == first) word &= head;
    if (w == last) word &= tail;
    // base - begin wraps below zero on a first word that starts before
    // `begin`; adding a bit at or past the head mask brings it back.
    const size_t base = w * 64;
    while (word != 0) {
      const auto bit = static_cast<size_t>(__builtin_ctzll(word));
      row_ids[n] = static_cast<uint32_t>(base + bit);
      metric[n] = column[base - begin + bit];
      ++n;
      word &= word - 1;
    }
  }
  return n;
}

}  // namespace pcor::internal
