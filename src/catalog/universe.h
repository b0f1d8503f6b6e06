// The pre-joined "universe" relation of a fact table.
//
// CORADD's MV candidates are pre-joined projections of the star join
// (fact ⋈ all dimensions). Rather than materializing that join, Universe
// exposes it virtually: one logical row per fact row whose columns are all
// fact columns plus all dimension columns reachable through the registered
// foreign keys. Dimension access goes through a precomputed PK -> row-id
// lookup, so reading any universe cell is O(1).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"

namespace coradd {

/// One column of the universe relation.
struct UniverseColumn {
  std::string name;          ///< Unique name across the universe.
  const Table* source;       ///< Owning physical table.
  int source_col;            ///< Column index inside `source`.
  int fk_index;              ///< Index into FactTableInfo::foreign_keys, or -1
                             ///< if this is a fact-table column.
  ValueType type;
  uint32_t byte_size;
};

/// Virtual pre-joined relation over one fact table and its dimensions.
class Universe {
 public:
  /// Builds the universe for `fact_info` against `catalog`. Aborts on
  /// dangling FK values (generator bugs), since designs would be meaningless.
  Universe(const Catalog& catalog, const FactTableInfo& fact_info);

  const std::string& fact_name() const { return fact_info_.name; }
  const FactTableInfo& fact_info() const { return fact_info_; }
  const Table& fact_table() const { return *fact_; }

  size_t NumRows() const { return fact_->NumRows(); }
  size_t NumColumns() const { return columns_.size(); }
  const UniverseColumn& Column(size_t i) const { return columns_[i]; }

  /// Index of universe column `name`, or -1.
  int ColumnIndex(const std::string& name) const;

  /// Value of universe column `ucol` for fact row `row`.
  int64_t Value(RowId row, int ucol) const {
    const UniverseColumn& c = columns_[static_cast<size_t>(ucol)];
    if (c.fk_index < 0) return c.source->Value(row, static_cast<size_t>(c.source_col));
    const RowId dim_row = dim_row_of_fact_[static_cast<size_t>(c.fk_index)][row];
    return c.source->Value(dim_row, static_cast<size_t>(c.source_col));
  }

  /// Exact distinct count of a universe column over the join result.
  size_t DistinctCount(int ucol) const;

  /// Exact distinct count of the joint values of `ucols` over the join.
  size_t DistinctCountComposite(const std::vector<int>& ucols) const;

  /// Column `ucol` of every fact row, in fact-row order.
  std::vector<int64_t> ColumnValues(int ucol) const;

  /// out[i] = Value(rows[i], ucol) for every i < rows.size(): one column
  /// gathered in the order `rows` lists fact rows.
  void GatherColumn(int ucol, const std::vector<RowId>& rows,
                    int64_t* out) const;

  /// Materializes the projection of the given universe columns as a Table,
  /// in fact-row order. Column names and byte sizes are preserved.
  std::unique_ptr<Table> MaterializeProjection(
      const std::vector<int>& ucols, const std::string& table_name) const;

  /// Schema of the full universe (for display / size estimation).
  Schema MakeSchema(const std::vector<int>& ucols) const;

 private:
  FactTableInfo fact_info_;
  const Table* fact_;
  std::vector<UniverseColumn> columns_;
  std::unordered_map<std::string, int> index_;
  /// dim_row_of_fact_[fk][fact_row] = row id in the dimension table.
  std::vector<std::vector<RowId>> dim_row_of_fact_;
};

}  // namespace coradd
