#include "src/context/population_index.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/context/row_gather.h"

namespace pcor {

namespace {
// Shared scratch for the value-returning convenience wrappers and the
// counting queries, so the hot utility-scoring path (PopulationCount /
// OverlapCount per probe) stays allocation-free without forcing every
// caller to carry buffers. thread_local keeps it data-race-free.
thread_local PopulationScratch t_scratch;
thread_local BitVector t_overlap;
// Ping-pong pair for folding all-singleton contexts through compressed
// intersections without touching a dense bitmap.
thread_local CompressedBitmap t_fold[2];
// Materialization buffer for ValueBitmap under compressed storage.
thread_local BitVector t_value_bitmap;

/// \brief c1 AND c2, bitwise over the chosen-value positions.
ContextVec MergeContexts(const ContextVec& c1, const ContextVec& c2) {
  ContextVec merged(c1.num_bits());
  for (size_t i = 0; i < c1.num_bits(); ++i) {
    if (c1.Test(i) && c2.Test(i)) merged.Set(i);
  }
  return merged;
}

}  // namespace

IndexStorage DefaultIndexStorage() {
  return strings::EnvSizeOr("PCOR_COMPRESSED_INDEX", 0) != 0
             ? IndexStorage::kCompressed
             : IndexStorage::kDense;
}

// ---- PopulationProbe: value-returning helpers shared by every
// implementation, defined over the virtual probe core so single-box and
// composed indexes materialize identically. ----

ContextVec PopulationProbe::ExactContextOf(uint32_t row) const {
  const Schema& s = schema();
  ContextVec c(s.total_values());
  for (size_t a = 0; a < s.num_attributes(); ++a) {
    c.Set(s.value_offset(a) + RowCode(row, a));
  }
  return c;
}

bool PopulationProbe::ContextContainsRow(const ContextVec& c,
                                         uint32_t row) const {
  const Schema& s = schema();
  for (size_t a = 0; a < s.num_attributes(); ++a) {
    if (!c.Test(s.value_offset(a) + RowCode(row, a))) return false;
  }
  return true;
}

PopulationView PopulationProbe::ViewOf(const ContextVec& c,
                                       PopulationScratch* scratch) const {
  PopulationInto(c, &scratch->population, &scratch->attr_union);
  GatherMetrics(scratch->population, &scratch->row_ids, &scratch->metric);
  return PopulationView(&scratch->population, scratch->row_ids,
                        scratch->metric);
}

BitVector PopulationProbe::PopulationOf(const ContextVec& c) const {
  BitVector population;
  BitVector attr_union;
  PopulationInto(c, &population, &attr_union);
  return population;
}

std::vector<uint32_t> PopulationProbe::RowIdsOf(const ContextVec& c) const {
  PopulationInto(c, &t_scratch.population, &t_scratch.attr_union);
  return t_scratch.population.ToIndices();
}

std::vector<double> PopulationProbe::MetricOf(const ContextVec& c) const {
  const PopulationView view = ViewOf(c, &t_scratch);
  return std::vector<double>(view.metric().begin(), view.metric().end());
}

bool PopulationProbe::MetricWithTarget(const ContextVec& c, uint32_t v_row,
                                       std::vector<double>* metric,
                                       size_t* v_position) const {
  PopulationInto(c, &t_scratch.population, &t_scratch.attr_union);
  const BitVector& pop = t_scratch.population;
  if (v_row >= pop.size() || !pop.Test(v_row)) {
    metric->clear();
    return false;
  }
  GatherMetrics(pop, &t_scratch.row_ids, metric);
  // row_ids is ascending and v_row is set in the population, so the
  // target's position is exactly its lower bound.
  const auto it = std::lower_bound(t_scratch.row_ids.begin(),
                                   t_scratch.row_ids.end(), v_row);
  *v_position = static_cast<size_t>(it - t_scratch.row_ids.begin());
  return true;
}

PopulationIndex::PopulationIndex(const Dataset& dataset, IndexStorage storage,
                                 uint32_t row_begin, uint32_t row_end)
    : dataset_(&dataset), storage_(storage), row_begin_(row_begin) {
  row_end = static_cast<uint32_t>(
      std::min<size_t>(row_end, dataset.num_rows()));
  PCOR_CHECK(row_begin <= row_end) << "row range outside dataset";
  num_local_rows_ = row_end - row_begin;
  const Schema& schema = dataset.schema();
  PCOR_CHECK(schema.total_values() <= ContextVec::kMaxBits)
      << "schema has more attribute values than ContextVec supports";
  const bool compressed = storage_ == IndexStorage::kCompressed;
  bitmaps_.resize(compressed ? 0 : schema.num_attributes());
  compressed_.resize(compressed ? schema.num_attributes() : 0);
  // Build one attribute at a time: materialize its dense value bitmaps,
  // then (for compressed storage) compress and discard them, so the build
  // spike is bounded by one attribute's dense set.
  std::vector<BitVector> dense;
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    dense.assign(schema.attribute(a).domain_size(),
                 BitVector(num_local_rows_));
    const auto& column = dataset.attribute_column(a);
    for (size_t row = row_begin; row < row_end; ++row) {
      dense[column[row]].Set(row - row_begin);
    }
    if (compressed) {
      compressed_[a].reserve(dense.size());
      for (const BitVector& bits : dense) {
        compressed_[a].push_back(CompressedBitmap::FromBitVector(bits));
      }
    } else {
      bitmaps_[a] = std::move(dense);
      dense.clear();
    }
  }
}

void PopulationIndex::GatherMetrics(const BitVector& population,
                                    std::vector<uint32_t>* row_ids,
                                    std::vector<double>* metric) const {
  PCOR_CHECK(population.size() == num_local_rows_)
      << "population does not span the index";
  const size_t count = population.Count();
  row_ids->resize(count);
  metric->resize(count);
  internal::GatherRowRange(population.data(), 0, num_local_rows_,
                           metric_data(), row_ids->data(), metric->data());
}

PopulationIndexStats PopulationIndex::MemoryStats() const {
  PopulationIndexStats stats;
  for (const auto& attr : bitmaps_) {
    for (const BitVector& bits : attr) {
      stats.bitmap_bytes += bits.num_words() * sizeof(uint64_t);
    }
  }
  for (const auto& attr : compressed_) {
    for (const CompressedBitmap& bits : attr) {
      stats.bitmap_bytes += bits.MemoryBytes();
      const CompressedBitmap::Census census = bits.ChunkCensus();
      stats.empty_chunks += census.empty_chunks;
      stats.array_chunks += census.array_chunks;
      stats.dense_chunks += census.dense_chunks;
    }
  }
  return stats;
}

void PopulationIndex::PopulationInto(const ContextVec& c,
                                     BitVector* population,
                                     BitVector* attr_union) const {
  PCOR_CHECK(c.num_bits() == dataset_->schema().total_values())
      << "context length does not match schema";
  if (storage_ == IndexStorage::kCompressed) {
    PopulationIntoCompressed(c, population, attr_union);
  } else {
    PopulationIntoDense(c, population, attr_union);
  }
}

void PopulationIndex::PopulationIntoDense(const ContextVec& c,
                                          BitVector* population,
                                          BitVector* attr_union) const {
  const Schema& schema = dataset_->schema();
  population->Assign(num_local_rows_, true);
  attr_union->Assign(num_local_rows_, false);
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    attr_union->FillAll(false);
    const size_t off = schema.value_offset(a);
    bool any = false;
    for (size_t v = 0; v < schema.attribute(a).domain_size(); ++v) {
      if (!c.Test(off + v)) continue;
      attr_union->OrWith(bitmaps_[a][v]);
      any = true;
    }
    if (!any) {
      // An attribute with no chosen value selects nothing.
      population->FillAll(false);
      return;
    }
    population->AndWith(*attr_union);
    if (population->NoneSet()) return;
  }
}

void PopulationIndex::PopulationIntoCompressed(const ContextVec& c,
                                               BitVector* population,
                                               BitVector* attr_union) const {
  const Schema& schema = dataset_->schema();
  population->Assign(num_local_rows_, true);
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    const size_t off = schema.value_offset(a);
    const size_t domain = schema.attribute(a).domain_size();
    size_t single = domain;  // sentinel: no value seen yet
    size_t chosen = 0;
    for (size_t v = 0; v < domain; ++v) {
      if (!c.Test(off + v)) continue;
      if (chosen++ == 0) single = v;
    }
    if (chosen == 0) {
      // An attribute with no chosen value selects nothing.
      population->FillAll(false);
      return;
    }
    if (chosen == 1) {
      // Single-value attribute: array∩dense probe straight into the
      // population, skipping the union accumulator entirely.
      compressed_[a][single].AndIntoDense(population);
    } else {
      attr_union->Assign(num_local_rows_, false);
      for (size_t v = 0; v < domain; ++v) {
        if (c.Test(off + v)) compressed_[a][v].OrIntoDense(attr_union);
      }
      population->AndWith(*attr_union);
    }
    if (population->NoneSet()) return;
  }
}

size_t PopulationIndex::PopulationCount(const ContextVec& c) const {
  if (storage_ == IndexStorage::kCompressed) {
    const Schema& schema = dataset_->schema();
    PCOR_CHECK(c.num_bits() == schema.total_values())
        << "context length does not match schema";
    // All-singleton contexts (the search frontier's exact contexts) fold
    // through compressed intersections: galloping for array∩array chunks,
    // word popcounts for dense∩dense, never touching a dense bitmap.
    size_t singles[ContextVec::kMaxBits];
    bool all_single = true;
    for (size_t a = 0; a < schema.num_attributes() && all_single; ++a) {
      const size_t off = schema.value_offset(a);
      const size_t domain = schema.attribute(a).domain_size();
      size_t chosen = 0;
      for (size_t v = 0; v < domain; ++v) {
        if (!c.Test(off + v)) continue;
        if (chosen++ == 0) singles[a] = v;
      }
      if (chosen == 0) return 0;  // empty attribute selects nothing
      if (chosen > 1) all_single = false;
    }
    if (all_single) {
      const size_t num_attrs = schema.num_attributes();
      if (num_attrs == 0) return num_local_rows_;
      const CompressedBitmap* first = &compressed_[0][singles[0]];
      if (num_attrs == 1) return first->count();
      if (num_attrs == 2) {
        return first->AndCountWith(compressed_[1][singles[1]]);
      }
      CompressedBitmap::IntersectInto(*first, compressed_[1][singles[1]],
                                      &t_fold[0]);
      size_t cur = 0;
      for (size_t a = 2; a < num_attrs; ++a) {
        if (t_fold[cur].count() == 0) return 0;
        if (a + 1 == num_attrs) {
          return t_fold[cur].AndCountWith(compressed_[a][singles[a]]);
        }
        CompressedBitmap::IntersectInto(t_fold[cur],
                                        compressed_[a][singles[a]],
                                        &t_fold[1 - cur]);
        cur = 1 - cur;
      }
      return t_fold[cur].count();
    }
  }
  PopulationInto(c, &t_scratch.population, &t_scratch.attr_union);
  return t_scratch.population.Count();
}

size_t PopulationIndex::OverlapCount(const ContextVec& c1,
                                     const ContextVec& c2) const {
  if (storage_ == IndexStorage::kCompressed) {
    // Value bitmaps within an attribute partition the rows, so
    // D_C1 ∩ D_C2 = D_{C1 AND C2}: the overlap reduces to one population
    // count over the merged context, which usually hits the all-singleton
    // fold above.
    return PopulationCount(MergeContexts(c1, c2));
  }
  PopulationInto(c1, &t_overlap, &t_scratch.attr_union);
  PopulationInto(c2, &t_scratch.population, &t_scratch.attr_union);
  return t_overlap.AndCount(t_scratch.population);
}

const BitVector& PopulationIndex::ValueBitmap(size_t attr,
                                              size_t value) const {
  if (storage_ == IndexStorage::kCompressed) {
    PCOR_CHECK(attr < compressed_.size()) << "attribute index out of range";
    PCOR_CHECK(value < compressed_[attr].size()) << "value index out of range";
    t_value_bitmap = compressed_[attr][value].ToBitVector();
    return t_value_bitmap;
  }
  PCOR_CHECK(attr < bitmaps_.size()) << "attribute index out of range";
  PCOR_CHECK(value < bitmaps_[attr].size()) << "value index out of range";
  return bitmaps_[attr][value];
}

}  // namespace pcor
