#include "src/context/starting_context.h"

#include <optional>

namespace pcor {

namespace {

bool TryGreedyGrow(const OutlierVerifier& verifier, uint32_t v_row,
                   ContextVec* out) {
  const Schema& schema = verifier.index().schema();
  const size_t t = schema.total_values();
  ContextVec current = verifier.index().ExactContextOf(v_row);
  while (true) {
    if (verifier.IsOutlierInContext(current, v_row)) {
      *out = current;
      return true;
    }
    // Among unset bits, find (a) any bit whose addition makes the context
    // matching — preferred — otherwise (b) the bit that grows the
    // population most (ties to the smallest bit index, so the walk is
    // deterministic).
    size_t best_bit = t;
    size_t best_count = 0;
    for (size_t bit = 0; bit < t; ++bit) {
      if (current.Test(bit)) continue;
      ContextVec candidate = current;
      candidate.Set(bit);
      if (verifier.IsOutlierInContext(candidate, v_row)) {
        *out = candidate;
        return true;
      }
      const size_t count = verifier.index().PopulationCount(candidate);
      if (best_bit == t || count > best_count) {
        best_bit = bit;
        best_count = count;
      }
    }
    if (best_bit == t) return false;  // all bits set, never matched
    current.Set(best_bit);
  }
}

ContextVec RandomContainingContext(const OutlierVerifier& verifier,
                                   uint32_t v_row, Rng* rng) {
  const Schema& schema = verifier.index().schema();
  ContextVec c(schema.total_values());
  for (size_t bit = 0; bit < c.num_bits(); ++bit) {
    if (rng->NextBernoulli(0.5)) c.Set(bit);
  }
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    c.Set(schema.value_offset(a) + verifier.index().RowCode(v_row, a));
  }
  return c;
}

bool TryRandomValid(const OutlierVerifier& verifier, uint32_t v_row,
                    size_t attempts, Rng* rng, ContextVec* out) {
  for (size_t i = 0; i < attempts; ++i) {
    ContextVec c = RandomContainingContext(verifier, v_row, rng);
    if (verifier.IsOutlierInContext(c, v_row)) {
      *out = c;
      return true;
    }
  }
  return false;
}

bool TryBestOfRandom(const OutlierVerifier& verifier, uint32_t v_row,
                     size_t tries, Rng* rng, ContextVec* out) {
  bool found = false;
  size_t best_pop = 0;
  for (size_t i = 0; i < tries; ++i) {
    ContextVec c = RandomContainingContext(verifier, v_row, rng);
    const std::optional<size_t> pop = verifier.OutlierPopulation(c, v_row);
    if (!pop) continue;
    if (!found || *pop > best_pop) {
      best_pop = *pop;
      *out = c;
      found = true;
    }
  }
  return found;
}

}  // namespace

Result<ContextVec> FindStartingContext(
    const OutlierVerifier& verifier, uint32_t v_row,
    const StartingContextOptions& /*options*/, Rng* rng) {
  if (v_row >= verifier.index().num_rows()) {
    return Status::OutOfRange("v_row outside dataset");
  }
  constexpr size_t kBestOfTries = 8;
  constexpr size_t kRandomValidTries = 512;
  ContextVec found;
  if (rng != nullptr &&
      TryBestOfRandom(verifier, v_row, kBestOfTries, rng, &found)) {
    return found;
  }
  if (TryGreedyGrow(verifier, v_row, &found)) return found;
  if (rng != nullptr &&
      TryRandomValid(verifier, v_row, kRandomValidTries, rng, &found)) {
    return found;
  }
  return Status::NoValidContext(
      "no matching context found for row " + std::to_string(v_row) +
      " under detector '" + verifier.detector().name() + "'");
}

}  // namespace pcor
