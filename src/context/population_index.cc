#include "src/context/population_index.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/context/row_gather.h"

namespace pcor {

namespace {
// Shared scratch for the value-returning convenience wrappers and the
// counting queries, so the hot utility-scoring path (PopulationCount /
// OverlapCount per probe) stays allocation-free without forcing every
// caller to carry buffers. thread_local keeps it data-race-free.
thread_local PopulationScratch t_scratch;
thread_local BitVector t_overlap;

}  // namespace

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

PopulationIndex::PopulationIndex(const Dataset& dataset, uint32_t row_begin,
                                 uint32_t row_end)
    : dataset_(&dataset), row_begin_(row_begin) {
  row_end = static_cast<uint32_t>(
      std::min<size_t>(row_end, dataset.num_rows()));
  PCOR_CHECK(row_begin <= row_end) << "row range outside dataset";
  num_local_rows_ = row_end - row_begin;
  const Schema& schema = dataset.schema();
  PCOR_CHECK(schema.total_values() <= ContextVec::kMaxBits)
      << "schema has more attribute values than ContextVec supports";
  bitmaps_.resize(schema.num_attributes());
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    std::vector<BitVector>& values = bitmaps_[a];
    values.assign(schema.attribute(a).domain_size(),
                  BitVector(num_local_rows_));
    const auto& column = dataset.attribute_column(a);
    for (size_t row = row_begin; row < row_end; ++row) {
      values[column[row]].Set(row - row_begin);
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
  return stats;
}

void PopulationIndex::PopulationInto(const ContextVec& c,
                                     BitVector* population,
                                     BitVector* attr_union) const {
  const Schema& schema = dataset_->schema();
  PCOR_CHECK(c.num_bits() == schema.total_values())
      << "context length does not match schema";
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

size_t PopulationIndex::PopulationCount(const ContextVec& c) const {
  PopulationInto(c, &t_scratch.population, &t_scratch.attr_union);
  return t_scratch.population.Count();
}

size_t PopulationIndex::OverlapCount(const ContextVec& c1,
                                     const ContextVec& c2) const {
  PopulationInto(c1, &t_overlap, &t_scratch.attr_union);
  PopulationInto(c2, &t_scratch.population, &t_scratch.attr_union);
  return t_overlap.AndCount(t_scratch.population);
}

const BitVector& PopulationIndex::ValueBitmap(size_t attr,
                                              size_t value) const {
  PCOR_CHECK(attr < bitmaps_.size()) << "attribute index out of range";
  PCOR_CHECK(value < bitmaps_[attr].size()) << "value index out of range";
  return bitmaps_[attr][value];
}

}  // namespace pcor
