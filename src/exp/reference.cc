#include "src/exp/reference.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <mutex>

#include "src/common/string_util.h"
#include "src/common/threading.h"

namespace pcor {

Result<ReferenceTable> ReferenceTable::Build(
    const OutlierVerifier& verifier, const std::vector<uint32_t>& rows,
    const CoeOptions& options, ThreadPool* pool, size_t max_parallel) {
  ReferenceTable table;
  std::mutex mu;
  Status first_error;
  const auto build_row = [&](size_t i) {
    auto coe = EnumerateCoe(verifier, rows[i], options);
    std::lock_guard<std::mutex> lock(mu);
    if (!coe.ok()) {
      if (first_error.ok()) first_error = coe.status();
      return;
    }
    table.entries_.emplace(rows[i], std::move(coe).value());
  };
  if (pool == nullptr) {
    for (size_t i = 0; i < rows.size(); ++i) build_row(i);
  } else {
    pool->ParallelFor(rows.size(), max_parallel, build_row);
  }
  if (!first_error.ok()) return first_error;
  return table;
}

const std::vector<ContextVec>* ReferenceTable::Coe(uint32_t row) const {
  auto it = entries_.find(row);
  return it == entries_.end() ? nullptr : &it->second;
}

double ReferenceTable::MaxUtility(uint32_t row,
                                  const UtilityFunction& utility) const {
  const auto* coe = Coe(row);
  double best = -std::numeric_limits<double>::infinity();
  if (coe == nullptr) return best;
  for (const ContextVec& c : *coe) {
    best = std::max(best, utility.Score(c, row));
  }
  return best;
}

std::vector<uint32_t> ReferenceTable::RowsWithMatches() const {
  std::vector<uint32_t> rows;
  for (const auto& [row, coe] : entries_) {
    if (!coe.empty()) rows.push_back(row);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

Status ReferenceTable::SaveCsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  std::vector<uint32_t> rows;
  rows.reserve(entries_.size());
  for (const auto& [row, coe] : entries_) rows.push_back(row);
  std::sort(rows.begin(), rows.end());
  for (uint32_t row : rows) {
    for (const ContextVec& c : entries_.at(row)) {
      out << row << "," << c.ToBitString() << "\n";
    }
    // A row with an empty COE is recorded with an empty context field so
    // Load can distinguish "built, no matches" from "not built".
    if (entries_.at(row).empty()) out << row << ",\n";
  }
  if (!out) return Status::IOError("write to '" + path + "' failed");
  return Status::OK();
}

Result<ReferenceTable> ReferenceTable::LoadCsv(const std::string& path,
                                               size_t t) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  ReferenceTable table;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const size_t comma = line.find(',');
    if (comma == std::string::npos) {
      return Status::InvalidArgument(
          strings::Format("line %zu: expected 'row,bits'", line_no));
    }
    const size_t row = strings::ParseSizeOr(line.substr(0, comma), SIZE_MAX);
    if (row == SIZE_MAX) {
      return Status::InvalidArgument(
          strings::Format("line %zu: bad row id", line_no));
    }
    const std::string bits = line.substr(comma + 1);
    auto& entry = table.entries_[static_cast<uint32_t>(row)];
    if (bits.empty()) continue;  // explicit empty-COE marker
    if (bits.size() != t) {
      return Status::InvalidArgument(strings::Format(
          "line %zu: context has %zu bits, schema expects %zu", line_no,
          bits.size(), t));
    }
    PCOR_ASSIGN_OR_RETURN(ContextVec c, ContextVec::FromBitString(bits));
    entry.push_back(c);
  }
  for (auto& [row, coe] : table.entries_) {
    std::sort(coe.begin(), coe.end());
  }
  return table;
}

}  // namespace pcor
