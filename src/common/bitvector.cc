#include "src/common/bitvector.h"

#include "src/common/logging.h"

namespace pcor {

BitVector::BitVector(size_t size, bool value)
    : size_(size), words_((size + 63) / 64, value ? ~0ULL : 0ULL) {
  if (value) ZeroTailBits();
}

void BitVector::Assign(size_t size, bool value) {
  size_ = size;
  words_.assign((size + 63) / 64, value ? ~0ULL : 0ULL);
  if (value) ZeroTailBits();
}

void BitVector::Set(size_t i) {
  PCOR_CHECK(i < size_) << "BitVector::Set out of range";
  words_[i / 64] |= (1ULL << (i % 64));
}

void BitVector::Clear(size_t i) {
  PCOR_CHECK(i < size_) << "BitVector::Clear out of range";
  words_[i / 64] &= ~(1ULL << (i % 64));
}

bool BitVector::Test(size_t i) const {
  PCOR_CHECK(i < size_) << "BitVector::Test out of range";
  return (words_[i / 64] >> (i % 64)) & 1ULL;
}

void BitVector::FillAll(bool value) {
  for (auto& w : words_) w = value ? ~0ULL : 0ULL;
  if (value) ZeroTailBits();
}

size_t BitVector::Count() const {
  size_t total = 0;
  for (uint64_t w : words_) {
    total += static_cast<size_t>(__builtin_popcountll(w));
  }
  return total;
}

bool BitVector::AnySet() const {
  for (uint64_t w : words_) {
    if (w) return true;
  }
  return false;
}

void BitVector::AndWith(const BitVector& other) {
  PCOR_CHECK(size_ == other.size_) << "BitVector size mismatch in AND";
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
}

void BitVector::OrWith(const BitVector& other) {
  PCOR_CHECK(size_ == other.size_) << "BitVector size mismatch in OR";
  for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
}

size_t BitVector::AndCount(const BitVector& other) const {
  PCOR_CHECK(size_ == other.size_) << "BitVector size mismatch in AndCount";
  size_t total = 0;
  for (size_t i = 0; i < words_.size(); ++i) {
    total += static_cast<size_t>(
        __builtin_popcountll(words_[i] & other.words_[i]));
  }
  return total;
}

std::vector<uint32_t> BitVector::ToIndices() const {
  std::vector<uint32_t> out;
  out.reserve(Count());
  ForEachSetBit([&out](uint32_t i) { out.push_back(i); });
  return out;
}

void BitVector::ZeroTailBits() {
  const size_t tail = size_ % 64;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (1ULL << tail) - 1;
  }
}

}  // namespace pcor
