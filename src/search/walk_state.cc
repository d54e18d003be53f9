#include "src/search/walk_state.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace pcor {

namespace {

constexpr size_t kMinCapacity = 64;

}  // namespace

void WalkTable::Reset() {
  size_ = 0;
  if (++generation_ == 0) {
    // Wrapped: stale slots could look live again, so empty them all.
    for (Slot& slot : slots_) slot.generation = 0;
    generation_ = 1;
  }
}

size_t WalkTable::HomeOf(const ContextVec& c) const {
  // ContextVec::Hash is FNV-1a, whose low bits see only the words' low
  // bits; the top bits of one more multiply see all of them.
  return static_cast<size_t>(
      (static_cast<uint64_t>(c.Hash()) * 0x9e3779b97f4a7c15ULL) >> shift_);
}

bool WalkTable::Contains(const ContextVec& c) const {
  if (size_ == 0) return false;
  const size_t mask = slots_.size() - 1;
  for (size_t i = HomeOf(c);; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (!Live(slot)) return false;
    if (slot.key == c) return true;
  }
}

bool WalkTable::Insert(const ContextVec& c) {
  if ((size_ + 1) * 2 > slots_.size()) Grow();
  const size_t mask = slots_.size() - 1;
  for (size_t i = HomeOf(c);; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (!Live(slot)) {
      slot.key = c;
      slot.generation = generation_;
      ++size_;
      return true;
    }
    if (slot.key == c) return false;
  }
}

void WalkTable::Grow() {
  const size_t capacity = std::max(kMinCapacity, slots_.size() * 2);
  std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(capacity));
  shift_ = 64 - std::countr_zero(capacity);
  const uint32_t live = generation_;
  generation_ = 1;
  size_ = 0;
  for (const Slot& slot : old) {
    if (slot.generation == live) Insert(slot.key);
  }
}

WalkState& WalkState::Begin(const OutlierVerifier& verifier, uint32_t v_row) {
  thread_local WalkState state;
  state.verifier_ = &verifier;
  state.v_row_ = v_row;
  state.t_ = verifier.index().schema().total_values();
  state.v_bits_ = verifier.index().ExactContextOf(v_row);
  state.table_.Reset();
  state.candidates_.clear();
  state.scores_.clear();
  return state;
}

}  // namespace pcor
