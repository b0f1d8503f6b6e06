#include "catalog/universe.h"

#include <unordered_set>

#include "common/hash.h"

namespace coradd {

Universe::Universe(const Catalog& catalog, const FactTableInfo& fact_info)
    : fact_info_(fact_info) {
  fact_ = catalog.GetTable(fact_info_.name);
  CORADD_CHECK(fact_ != nullptr);

  // Fact columns come first, under their own names.
  for (size_t c = 0; c < fact_->schema().NumColumns(); ++c) {
    const ColumnDef& def = fact_->schema().Column(c);
    UniverseColumn uc{def.name, fact_, static_cast<int>(c), -1, def.type,
                      def.byte_size};
    index_[uc.name] = static_cast<int>(columns_.size());
    columns_.push_back(std::move(uc));
  }

  // Then each dimension's columns, resolved through the FK.
  dim_row_of_fact_.resize(fact_info_.foreign_keys.size());
  for (size_t f = 0; f < fact_info_.foreign_keys.size(); ++f) {
    const ForeignKey& fk = fact_info_.foreign_keys[f];
    const Table* dim = catalog.GetTable(fk.dim_table);
    CORADD_CHECK(dim != nullptr);
    const int pk_col = dim->schema().ColumnIndex(fk.dim_pk_column);
    CORADD_CHECK(pk_col >= 0);
    const int fact_fk_col = fact_->schema().ColumnIndex(fk.fact_column);
    CORADD_CHECK(fact_fk_col >= 0);

    // PK value -> dimension row id.
    std::unordered_map<int64_t, RowId> pk_to_row;
    pk_to_row.reserve(dim->NumRows() * 2);
    for (RowId r = 0; r < dim->NumRows(); ++r) {
      pk_to_row[dim->Value(r, static_cast<size_t>(pk_col))] = r;
    }

    auto& mapping = dim_row_of_fact_[f];
    mapping.resize(fact_->NumRows());
    const auto& fk_data = fact_->ColumnData(static_cast<size_t>(fact_fk_col));
    for (size_t r = 0; r < fk_data.size(); ++r) {
      auto it = pk_to_row.find(fk_data[r]);
      CORADD_CHECK(it != pk_to_row.end());
      mapping[r] = it->second;
    }

    for (size_t c = 0; c < dim->schema().NumColumns(); ++c) {
      const ColumnDef& def = dim->schema().Column(c);
      if (index_.find(def.name) != index_.end()) continue;  // PK shadows FK.
      UniverseColumn uc{def.name, dim, static_cast<int>(c),
                       static_cast<int>(f), def.type, def.byte_size};
      index_[uc.name] = static_cast<int>(columns_.size());
      columns_.push_back(std::move(uc));
    }
  }
}

int Universe::ColumnIndex(const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? -1 : it->second;
}

size_t Universe::DistinctCount(int ucol) const {
  std::unordered_set<int64_t> seen;
  const size_t n = NumRows();
  seen.reserve(n / 4 + 16);
  for (RowId r = 0; r < n; ++r) seen.insert(Value(r, ucol));
  return seen.size();
}

size_t Universe::DistinctCountComposite(const std::vector<int>& ucols) const {
  std::unordered_set<uint64_t> seen;
  const size_t n = NumRows();
  seen.reserve(n / 4 + 16);
  for (RowId r = 0; r < n; ++r) {
    uint64_t h = 0xabcdef0123456789ULL;
    for (int c : ucols) h = HashCombine(h, static_cast<uint64_t>(Value(r, c)));
    seen.insert(h);
  }
  return seen.size();
}

Schema Universe::MakeSchema(const std::vector<int>& ucols) const {
  Schema schema;
  for (int c : ucols) {
    const UniverseColumn& uc = columns_[static_cast<size_t>(c)];
    ColumnDef def;
    def.name = uc.name;
    def.type = uc.type;
    def.byte_size = uc.byte_size;
    const ColumnDef& src = uc.source->schema().Column(static_cast<size_t>(uc.source_col));
    def.dictionary = src.dictionary;
    schema.AddColumn(std::move(def));
  }
  return schema;
}

std::vector<int64_t> Universe::ColumnValues(int ucol) const {
  const UniverseColumn& c = columns_[static_cast<size_t>(ucol)];
  const auto& src = c.source->ColumnData(static_cast<size_t>(c.source_col));
  if (c.fk_index < 0) return src;
  const auto& dim_row = dim_row_of_fact_[static_cast<size_t>(c.fk_index)];
  std::vector<int64_t> out(dim_row.size());
  for (size_t r = 0; r < out.size(); ++r) out[r] = src[dim_row[r]];
  return out;
}

void Universe::GatherColumn(int ucol, const std::vector<RowId>& rows,
                            int64_t* out) const {
  const UniverseColumn& c = columns_[static_cast<size_t>(ucol)];
  const int64_t* src =
      c.source->ColumnData(static_cast<size_t>(c.source_col)).data();
  if (c.fk_index < 0) {
    for (size_t i = 0; i < rows.size(); ++i) out[i] = src[rows[i]];
    return;
  }
  const RowId* dim_row =
      dim_row_of_fact_[static_cast<size_t>(c.fk_index)].data();
  for (size_t i = 0; i < rows.size(); ++i) out[i] = src[dim_row[rows[i]]];
}

std::unique_ptr<Table> Universe::MaterializeProjection(
    const std::vector<int>& ucols, const std::string& table_name) const {
  auto out = std::make_unique<Table>(MakeSchema(ucols), table_name);
  const size_t n = NumRows();
  out->Reserve(n);
  std::vector<int64_t> row(ucols.size());
  for (RowId r = 0; r < n; ++r) {
    for (size_t i = 0; i < ucols.size(); ++i) row[i] = Value(r, ucols[i]);
    out->AppendRow(row);
  }
  return out;
}

}  // namespace coradd
