#include "storage/clustered_table.h"

#include "common/string_util.h"

namespace coradd {

ClusteredTable::ClusteredTable(std::unique_ptr<Table> table,
                               std::vector<int> key_cols,
                               uint32_t page_size_bytes)
    : table_(std::move(table)), key_cols_(std::move(key_cols)) {
  CORADD_CHECK(table_ != nullptr);
  for (int c : key_cols_) {
    CORADD_CHECK(c >= 0 &&
                 static_cast<size_t>(c) < table_->schema().NumColumns());
  }
  if (!InKeyOrder()) table_->SortByColumns(key_cols_);

  layout_.num_rows = table_->NumRows();
  layout_.row_width_bytes = table_->schema().RowWidthBytes();
  layout_.page_size_bytes = page_size_bytes;

  uint32_t key_bytes = 0;
  for (int c : key_cols_) {
    key_bytes += table_->schema().Column(static_cast<size_t>(c)).byte_size;
  }
  if (key_bytes == 0) key_bytes = 4;
  // The clustered B+Tree is sparse: one separator entry per heap page.
  btree_ = ComputeBTreeShape(layout_.NumPages(), key_bytes + 8, key_bytes,
                             page_size_bytes);
  // Count the heap itself as the leaf level: height includes leaf pages plus
  // the sparse index levels above them.
  btree_.leaf_pages = 0;  // heap pages are charged via layout_.
}

bool ClusteredTable::InKeyOrder() const {
  const size_t n = table_->NumRows();
  for (RowId r = 1; r < n; ++r) {
    for (int c : key_cols_) {
      const auto& col = table_->ColumnData(static_cast<size_t>(c));
      if (col[r - 1] != col[r]) {
        if (col[r - 1] > col[r]) return false;
        break;
      }
    }
  }
  return true;
}

int ClusteredTable::CompareKeyPrefix(RowId r,
                                     const std::vector<int64_t>& vals) const {
  for (size_t i = 0; i < vals.size(); ++i) {
    const int64_t v =
        table_->Value(r, static_cast<size_t>(key_cols_[i]));
    if (v < vals[i]) return -1;
    if (v > vals[i]) return 1;
  }
  return 0;
}

RowId ClusteredTable::LowerBound(const std::vector<int64_t>& vals) const {
  RowId lo = 0;
  RowId hi = static_cast<RowId>(table_->NumRows());
  while (lo < hi) {
    const RowId mid = lo + (hi - lo) / 2;
    if (CompareKeyPrefix(mid, vals) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

RowId ClusteredTable::UpperBound(const std::vector<int64_t>& vals) const {
  RowId lo = 0;
  RowId hi = static_cast<RowId>(table_->NumRows());
  while (lo < hi) {
    const RowId mid = lo + (hi - lo) / 2;
    if (CompareKeyPrefix(mid, vals) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

RowRange ClusteredTable::EqualRange(const std::vector<int64_t>& prefix) const {
  CORADD_CHECK(prefix.size() <= key_cols_.size());
  return RowRange{LowerBound(prefix), UpperBound(prefix)};
}

RowRange ClusteredTable::PrefixThenRange(const std::vector<int64_t>& prefix,
                                         int64_t lo, int64_t hi) const {
  CORADD_CHECK(prefix.size() < key_cols_.size());
  std::vector<int64_t> lo_key = prefix;
  lo_key.push_back(lo);
  std::vector<int64_t> hi_key = prefix;
  hi_key.push_back(hi);
  return RowRange{LowerBound(lo_key), UpperBound(hi_key)};
}

std::string ClusteredTable::ToString() const {
  std::vector<std::string> keys;
  for (int c : key_cols_) {
    keys.push_back(table_->schema().Column(static_cast<size_t>(c)).name);
  }
  return StrFormat("ClusteredTable{%s, rows=%zu, pages=%llu, key=(%s), %s}",
                   table_->name().c_str(), table_->NumRows(),
                   static_cast<unsigned long long>(layout_.NumPages()),
                   Join(keys, ",").c_str(),
                   HumanBytes(SizeBytes()).c_str());
}

}  // namespace coradd
