// A physically materialized relation: a heap file sorted by a clustered key
// with a (simulated) clustered B+Tree on top. This is what an MV, a
// re-clustered fact table, or a base table becomes once materialized.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "catalog/table.h"
#include "storage/layout.h"

namespace coradd {

/// Half-open range of row ids [begin, end).
struct RowRange {
  RowId begin = 0;
  RowId end = 0;
  bool Empty() const { return begin >= end; }
  uint64_t Size() const { return end - begin; }
};

/// A heap file clustered on `key_cols` (lexicographic order) plus the shape
/// of its clustered B+Tree. Provides binary-search access for key-prefix
/// equality and range predicates — the clustered access paths of §A-2.
class ClusteredTable {
 public:
  /// Takes ownership of `table`, sorts it by `key_cols` (indices into the
  /// table's schema) unless one linear pass finds it already in key order,
  /// and computes layout/B+Tree shapes.
  ClusteredTable(std::unique_ptr<Table> table, std::vector<int> key_cols,
                 uint32_t page_size_bytes = 8192);

  const Table& table() const { return *table_; }
  const std::vector<int>& key_cols() const { return key_cols_; }
  const HeapLayout& layout() const { return layout_; }
  const BTreeShape& clustered_btree() const { return btree_; }

  size_t NumRows() const { return table_->NumRows(); }
  uint64_t NumPages() const { return layout_.NumPages(); }
  uint64_t PageOfRow(RowId r) const { return layout_.PageOfRow(r); }

  /// Heap pages (inclusive run) backing a non-empty row range — the one
  /// place planner I/O charging and pooled page accounting both derive
  /// page numbers from, so they can never disagree.
  PageRun PagesOfRange(RowRange range) const {
    CORADD_CHECK(!range.Empty());
    return PageRun{PageOfRow(range.begin), PageOfRow(range.end - 1)};
  }

  /// Heap + clustered-index size in bytes (what the space budget charges).
  uint64_t SizeBytes() const {
    return layout_.SizeBytes() + btree_.internal_pages * layout_.page_size_bytes;
  }

  /// Height of the clustered B+Tree (root to leaf).
  uint32_t BTreeHeight() const { return btree_.height; }

  /// Contiguous values of stored column `table_col` starting at row
  /// `begin` — the one place the heap's zero-copy pointer arithmetic
  /// lives (the heap is column-major in memory). The executor's batch
  /// producers (exec/materialize) slice stored columns through this.
  const int64_t* ColumnSlice(int table_col, RowId begin) const {
    return table_->ColumnData(static_cast<size_t>(table_col)).data() + begin;
  }

  /// Rows whose first `prefix.size()` key columns equal `prefix`.
  RowRange EqualRange(const std::vector<int64_t>& prefix) const;

  /// Rows where the first `prefix.size()` key columns equal `prefix` and the
  /// next key column lies in [lo, hi] (inclusive).
  RowRange PrefixThenRange(const std::vector<int64_t>& prefix, int64_t lo,
                           int64_t hi) const;

  std::string ToString() const;

 private:
  /// True iff every row's key is >= the previous row's (lexicographic).
  bool InKeyOrder() const;

  /// Lexicographic compare of row `r`'s key prefix against `vals`, returning
  /// <0, 0, >0. Only the first vals.size() key columns are compared.
  int CompareKeyPrefix(RowId r, const std::vector<int64_t>& vals) const;

  /// First row whose key prefix is >= vals (as if vals were extended with
  /// -inf), and first row > vals (extended with +inf).
  RowId LowerBound(const std::vector<int64_t>& vals) const;
  RowId UpperBound(const std::vector<int64_t>& vals) const;

  std::unique_ptr<Table> table_;
  std::vector<int> key_cols_;
  HeapLayout layout_;
  BTreeShape btree_;
};

}  // namespace coradd
