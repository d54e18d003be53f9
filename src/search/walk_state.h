#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/context/context.h"
#include "src/context/detector_cache.h"

namespace pcor {

/// \brief Flat open-addressing set of the contexts one DP-BFS/DFS walk has
/// marked: frontier ∪ visited for BFS, visited for DFS.
///
/// Linear probing over one slot array at most half full. A slot belongs to
/// the current walk iff its generation matches, so Reset() is O(1) and a
/// table grown by a long walk is reused as is by the next one.
class WalkTable {
 public:
  /// \brief Forgets every context.
  void Reset();
  bool Contains(const ContextVec& c) const;
  /// \brief Adds `c`; false when it was already present.
  bool Insert(const ContextVec& c);

 private:
  struct Slot {
    ContextVec key;
    uint32_t generation = 0;  ///< the walk that filled it; stale if older
  };

  size_t HomeOf(const ContextVec& c) const;
  bool Live(const Slot& slot) const { return slot.generation == generation_; }
  void Grow();

  std::vector<Slot> slots_;
  size_t size_ = 0;
  int shift_ = 64;  ///< 64 - log2(capacity): the home is the hash's top bits
  uint32_t generation_ = 1;
};

/// \brief A thread's DP-BFS/DFS walk state: its WalkTable, V's exact
/// context, and the buffers one step fills. Kept per thread and reused
/// across walks, so a walk in steady state allocates nothing.
class WalkState {
 public:
  /// \brief This thread's state, reset for a walk of outlier `v_row` over
  /// `verifier`.
  static WalkState& Begin(const OutlierVerifier& verifier, uint32_t v_row);

  /// \brief Marks `c`; false when it was already marked.
  bool Mark(const ContextVec& c) { return table_.Insert(c); }

  /// \brief Probes the t neighbours of `current`, which must contain V, and
  /// adds t to `*probes`. Calls `on_match(neighbour, |D_C|)` in bit order
  /// for each unmarked neighbour where f_M holds.
  ///
  /// Flipping one of V's exact-context bits drops V from the population,
  /// so those neighbours never match and cost one bit test. Every other
  /// unmarked neighbour goes into one OutlierPopulations call, which makes
  /// the same memo lookups and f_M evaluations as one call per neighbour.
  template <typename OnMatch>
  void Expand(const ContextVec& current, size_t* probes, OnMatch on_match) {
    unmarked_.clear();
    ContextVec neighbour = current;
    for (size_t bit = 0; bit < t_; ++bit) {
      if (v_bits_.Test(bit)) continue;
      neighbour.Flip(bit);
      if (!table_.Contains(neighbour)) unmarked_.push_back(neighbour);
      neighbour.Flip(bit);
    }
    *probes += t_;
    populations_.resize(unmarked_.size());
    verifier_->OutlierPopulations(unmarked_, v_row_, populations_);
    for (size_t i = 0; i < unmarked_.size(); ++i) {
      if (populations_[i]) on_match(unmarked_[i], *populations_[i]);
    }
  }

  /// \brief Candidate buffers for the sampler (BFS: its frontier; DFS: one
  /// step's children), emptied by Begin().
  std::vector<ContextVec>& candidates() { return candidates_; }
  std::vector<double>& scores() { return scores_; }

 private:
  const OutlierVerifier* verifier_ = nullptr;
  uint32_t v_row_ = 0;
  size_t t_ = 0;
  ContextVec v_bits_;
  WalkTable table_;
  std::vector<ContextVec> unmarked_;
  std::vector<std::optional<size_t>> populations_;
  std::vector<ContextVec> candidates_;
  std::vector<double> scores_;
};

}  // namespace pcor
