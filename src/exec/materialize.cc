#include "exec/materialize.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/string_util.h"
#include "obs/trace.h"

namespace coradd {

namespace {

struct KeyedRow {
  uint64_t key;
  RowId row;
};

/// Stable LSD radix sort of `rows` on the low `bits` bits of their keys.
void RadixSortByKey(std::vector<KeyedRow>* rows, int bits) {
  constexpr int kDigitBits = 11;
  constexpr uint64_t kMask = (uint64_t{1} << kDigitBits) - 1;
  std::vector<KeyedRow> buf(rows->size());
  std::vector<size_t> start(kMask + 1);
  for (int shift = 0; shift < bits; shift += kDigitBits) {
    std::fill(start.begin(), start.end(), 0);
    for (const KeyedRow& kr : *rows) ++start[(kr.key >> shift) & kMask];
    size_t sum = 0;
    for (size_t& s : start) sum += std::exchange(s, sum);
    for (const KeyedRow& kr : *rows) {
      buf[start[(kr.key >> shift) & kMask]++] = kr;
    }
    rows->swap(buf);
  }
}

/// Fact rows sorted by `keys` (keys[k][fact_row] is key column k),
/// lexicographically, ties by fact row: the order a stable sort of the
/// fact-order projection yields. The leading key columns are packed into
/// one 64-bit word, each as its offset from the column minimum in as many
/// bits as its range needs; the (packed key, row) pairs are radix-sorted,
/// and a key wider than 64 bits sorts each run of equal packed prefix on
/// its remaining columns.
std::vector<RowId> ClusteredOrder(
    const std::vector<std::vector<int64_t>>& keys, size_t n) {
  if (n == 0) return {};
  std::vector<uint64_t> offset(keys.size());  // each column's minimum
  std::vector<int> width(keys.size());
  size_t packed = 0;
  int bits = 0;
  for (; packed < keys.size(); ++packed) {
    const auto& col = keys[packed];
    const auto [lo, hi] = std::minmax_element(col.begin(), col.end());
    offset[packed] = static_cast<uint64_t>(*lo);
    width[packed] =
        std::bit_width(static_cast<uint64_t>(*hi) - offset[packed]);
    if (bits + width[packed] > 64) break;
    bits += width[packed];
  }

  std::vector<KeyedRow> rows(n);
  for (size_t r = 0; r < n; ++r) {
    uint64_t key = 0;
    for (size_t k = 0; k < packed; ++k) {
      if (width[k] == 0) continue;
      key = (width[k] == 64 ? 0 : key << width[k]) |
            (static_cast<uint64_t>(keys[k][r]) - offset[k]);
    }
    rows[r] = KeyedRow{key, static_cast<RowId>(r)};
  }
  RadixSortByKey(&rows, bits);

  std::vector<RowId> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = rows[i].row;
  if (packed == keys.size()) return order;
  const auto rest_less = [&](RowId a, RowId b) {
    for (size_t k = packed; k < keys.size(); ++k) {
      if (keys[k][a] != keys[k][b]) return keys[k][a] < keys[k][b];
    }
    return a < b;
  };
  for (size_t begin = 0, end = 1; begin < n; begin = end++) {
    while (end < n && rows[end].key == rows[begin].key) ++end;
    if (end - begin > 1) {
      std::sort(order.begin() + begin, order.begin() + end, rest_less);
    }
  }
  return order;
}

/// Builds one CM over `obj`; key columns the object does not store are
/// gathered through provenance.
std::unique_ptr<CorrelationMap> BuildCm(const MaterializedObject& obj,
                                        const CmSpec& cm_spec) {
  const Table& t = obj.table->table();
  std::vector<const std::vector<int64_t>*> key_value_ptrs;
  std::vector<std::vector<int64_t>> owned;  // universe-derived columns
  std::vector<uint32_t> key_bytes;
  owned.reserve(cm_spec.key_columns.size());
  for (const auto& key : cm_spec.key_columns) {
    const int tcol = t.schema().ColumnIndex(key);
    const int ucol = obj.universe->ColumnIndex(key);
    CORADD_CHECK(ucol >= 0);
    key_bytes.push_back(
        obj.universe->Column(static_cast<size_t>(ucol)).byte_size);
    if (tcol >= 0) {
      key_value_ptrs.push_back(&t.ColumnData(static_cast<size_t>(tcol)));
    } else {
      owned.emplace_back(t.NumRows());
      obj.universe->GatherColumn(ucol, obj.fact_row_of, owned.back().data());
      key_value_ptrs.push_back(&owned.back());
    }
  }
  return std::make_unique<CorrelationMap>(cm_spec.key_columns,
                                          key_value_ptrs, key_bytes,
                                          *obj.table, cm_spec.bucketing);
}

}  // namespace

ResolvedColumn ResolveColumn(const MaterializedObject& obj,
                             const std::string& name) {
  ResolvedColumn c;
  c.table_col = obj.table->table().schema().ColumnIndex(name);
  c.ucol = obj.universe->ColumnIndex(name);
  CORADD_CHECK(c.ucol >= 0);
  return c;
}

void ScanBatch(const MaterializedObject& obj, RowRange range,
               const std::vector<ResolvedColumn>& cols, BatchScratch* scratch,
               ColumnBatch* out) {
  out->begin = range.begin;
  out->num_rows = static_cast<uint32_t>(range.Size());
  out->cols.resize(cols.size());
  for (size_t c = 0; c < cols.size(); ++c) {
    if (cols[c].table_col >= 0) {
      out->cols[c] = obj.table->ColumnSlice(cols[c].table_col, range.begin);
      continue;
    }
    int64_t* buf = scratch->Buffer(c, range.Size());
    for (RowId r = range.begin; r < range.end; ++r) {
      buf[r - range.begin] = obj.universe->Value(obj.fact_row_of[r],
                                                 cols[c].ucol);
    }
    out->cols[c] = buf;
  }
}

void GatherBatch(const MaterializedObject& obj, const RowId* rids, size_t n,
                 const std::vector<ResolvedColumn>& cols,
                 BatchScratch* scratch, ColumnBatch* out) {
  out->begin = 0;
  out->num_rows = static_cast<uint32_t>(n);
  out->cols.resize(cols.size());
  for (size_t c = 0; c < cols.size(); ++c) {
    int64_t* buf = scratch->Buffer(c, n);
    if (cols[c].table_col >= 0) {
      const int64_t* src = obj.table->ColumnSlice(cols[c].table_col, 0);
      for (size_t i = 0; i < n; ++i) buf[i] = src[rids[i]];
    } else {
      for (size_t i = 0; i < n; ++i) {
        buf[i] = obj.universe->Value(obj.fact_row_of[rids[i]], cols[c].ucol);
      }
    }
    out->cols[c] = buf;
  }
}

Materializer::Materializer(const Universe* universe, DiskParams disk,
                           ThreadPool* pool)
    : universe_(universe),
      disk_(disk),
      pool_(pool != nullptr ? pool : &ThreadPool::Shared()) {
  CORADD_CHECK(universe != nullptr);
}

std::unique_ptr<MaterializedObject> Materializer::Materialize(
    const MvSpec& spec, const std::vector<CmSpec>& cm_specs,
    const std::vector<std::string>& btree_columns) const {
  const size_t n = universe_->NumRows();
  TRACE_SPAN("exec.materialize",
             {{"rows", static_cast<int64_t>(n)},
              {"columns", static_cast<int64_t>(spec.columns.size())},
              {"cms", static_cast<int64_t>(cm_specs.size())}});
  auto obj = std::make_unique<MaterializedObject>();
  obj->spec = spec;
  obj->universe = universe_;

  CORADD_CHECK(!spec.columns.empty());
  std::vector<int> ucols;
  for (const auto& name : spec.columns) {
    const int idx = universe_->ColumnIndex(name);
    CORADD_CHECK(idx >= 0);
    ucols.push_back(idx);
  }
  auto table = std::make_unique<Table>(universe_->MakeSchema(ucols), spec.name);

  // Clustered key columns (indices inside the object's table).
  std::vector<int> key_cols;
  for (const auto& key : spec.clustered_key) {
    const int idx = table->schema().ColumnIndex(key);
    CORADD_CHECK(idx >= 0);
    key_cols.push_back(idx);
  }

  // Sort the fact rows once by the clustered key.
  {
    std::vector<std::vector<int64_t>> keys(key_cols.size());
    pool_->ParallelFor(keys.size(), [&](size_t k) {
      keys[k] =
          universe_->ColumnValues(ucols[static_cast<size_t>(key_cols[k])]);
    });
    obj->fact_row_of = ClusteredOrder(keys, n);
  }

  // Write every stored column straight into clustered order.
  pool_->ParallelFor(ucols.size(), [&](size_t c) {
    std::vector<int64_t>& col = *table->MutableColumnData(c);
    col.resize(n);
    universe_->GatherColumn(ucols[c], obj->fact_row_of, col.data());
  });
  obj->table = std::make_unique<ClusteredTable>(std::move(table), key_cols,
                                                disk_.page_size_bytes);
  const Table& t = obj->table->table();

  // Budget charge.
  if (spec.is_base) {
    obj->size_bytes = 0;
  } else if (spec.is_fact_recluster) {
    uint32_t pk_bytes = 0;
    for (const auto& pk : universe_->fact_info().primary_key) {
      const int idx = universe_->fact_table().schema().ColumnIndex(pk);
      CORADD_CHECK(idx >= 0);
      pk_bytes += universe_->fact_table()
                      .schema()
                      .Column(static_cast<size_t>(idx))
                      .byte_size;
    }
    const BTreeShape pk_shape = ComputeBTreeShape(
        t.NumRows(), pk_bytes + 8, pk_bytes, disk_.page_size_bytes);
    obj->size_bytes = pk_shape.TotalPages() * disk_.page_size_bytes;
  } else {
    obj->size_bytes = obj->table->SizeBytes();
  }

  // Correlation maps, then dense secondary B+Trees (stored columns only),
  // one index each.
  const size_t num_cms = cm_specs.size();
  obj->cms.resize(num_cms);
  obj->btrees.resize(btree_columns.size());
  pool_->ParallelFor(num_cms + btree_columns.size(), [&](size_t i) {
    if (i < num_cms) {
      obj->cms[i] = BuildCm(*obj, cm_specs[i]);
      return;
    }
    const int tcol = t.schema().ColumnIndex(btree_columns[i - num_cms]);
    CORADD_CHECK(tcol >= 0);
    obj->btrees[i - num_cms] =
        std::make_unique<SecondaryBTreeIndex>(obj->table.get(), tcol);
  });
  obj->cm_specs = cm_specs;
  obj->btree_columns = btree_columns;
  for (const auto& cm : obj->cms) obj->cm_bytes += cm->SizeBytes();
  for (const auto& bt : obj->btrees) obj->btree_bytes += bt->SizeBytes();
  return obj;
}

}  // namespace coradd
