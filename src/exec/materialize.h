// Turns MvSpecs into physical objects: a sorted heap file + clustered
// B+Tree, optional correlation maps, optional dense secondary B+Trees, and
// the row-provenance mapping back to the fact table (so predicates on
// attributes the object does not store — dimension attributes of a
// re-clustered fact table — can still be evaluated through cached
// dimension lookups, matching the paper's disk-bound fact-access model).
//
// An object is built in one pass. The clustered-key columns are gathered
// once from the Universe and the fact-row ids are sorted once, so row
// order is the stable order by clustered key: ties keep fact-row order.
// Each stored column is then written straight into the object's Table in
// that order, and provenance lives only in `fact_row_of` (no hidden
// column). Key gathers, column gathers and CM/B+Tree builds each run as a
// ParallelFor on the caller's pool, nested under whatever per-object loop
// the caller runs; every index writes only its own column or index, so an
// object is bit-identical at any thread count.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cm/cm_designer.h"
#include "common/thread_pool.h"
#include "cost/mv_spec.h"
#include "storage/clustered_table.h"
#include "storage/column_batch.h"
#include "storage/secondary_index.h"

namespace coradd {

/// A physically materialized design object.
struct MaterializedObject {
  MvSpec spec;
  const Universe* universe = nullptr;
  std::unique_ptr<ClusteredTable> table;
  /// table row -> fact row (the clustered order the rows were written in).
  std::vector<RowId> fact_row_of;
  /// Correlation maps (CORADD designs).
  std::vector<std::unique_ptr<CorrelationMap>> cms;
  /// The CmSpec each CM was built from (parallel to `cms`).
  std::vector<CmSpec> cm_specs;
  /// Dense secondary B+Trees (commercial-style designs), with the universe
  /// column name each covers.
  std::vector<std::unique_ptr<SecondaryBTreeIndex>> btrees;
  std::vector<std::string> btree_columns;

  /// Budget charge (heap + clustered internals; PK index for re-clusterings;
  /// 0 for base designs), mirroring EstimateMvSizeBytes but measured.
  uint64_t size_bytes = 0;
  /// Actual bytes of all CMs (the paper's separately-budgeted 1MB/CM pool).
  uint64_t cm_bytes = 0;
  /// Actual bytes of dense secondary B+Trees.
  uint64_t btree_bytes = 0;

  /// Identity of this object in a shared buffer pool (PageKey.object_id);
  /// 0 = unassigned (pooled execution aborts). The serving engine assigns
  /// slot + 1, matching the maintenance simulator's 1-based object ids so
  /// writer-epoch dirty pages collide with scan touches of the same object.
  uint32_t pool_object_id = 0;

  /// Value of universe column `ucol` for table row `row` (stored column if
  /// present, otherwise via provenance + dimension lookup).
  int64_t ValueOf(RowId row, int table_col, int ucol) const {
    if (table_col >= 0) {
      return table->table().Value(row, static_cast<size_t>(table_col));
    }
    return universe->Value(fact_row_of[row], ucol);
  }
};

/// A universe column resolved against one object: the stored table column
/// when the object carries it, else the provenance path (ucol only).
struct ResolvedColumn {
  int table_col = -1;
  int ucol = -1;
};

/// Resolves universe column `name` against `obj`. Aborts if the universe
/// does not know the column.
ResolvedColumn ResolveColumn(const MaterializedObject& obj,
                             const std::string& name);

/// Fills `out` with rows [range) of `cols`: stored columns come zero-copy
/// from the clustered heap, provenance-only columns are gathered through
/// fact_row_of into `scratch`. Thread-safe for concurrent callers with
/// distinct scratches.
void ScanBatch(const MaterializedObject& obj, RowRange range,
               const std::vector<ResolvedColumn>& cols, BatchScratch* scratch,
               ColumnBatch* out);

/// Same for an arbitrary row-id list (secondary-index fetches): every
/// column is gathered into `scratch` since rows are non-contiguous.
void GatherBatch(const MaterializedObject& obj, const RowId* rids, size_t n,
                 const std::vector<ResolvedColumn>& cols,
                 BatchScratch* scratch, ColumnBatch* out);

/// Builds MaterializedObjects for one universe.
class Materializer {
 public:
  /// `pool` runs the build's parallel loops (nullptr = the shared pool),
  /// passed the way ExecOptions::pool is.
  Materializer(const Universe* universe, DiskParams disk,
               ThreadPool* pool = nullptr);

  /// Materializes `spec`, building the given CMs and secondary B+Trees.
  /// `spec.columns` must be non-empty and hold the clustered key. B+Tree
  /// columns must be stored in the object; CM key columns may be any
  /// universe column (built through provenance).
  std::unique_ptr<MaterializedObject> Materialize(
      const MvSpec& spec, const std::vector<CmSpec>& cm_specs = {},
      const std::vector<std::string>& btree_columns = {}) const;

 private:
  const Universe* universe_;
  DiskParams disk_;
  ThreadPool* pool_;
};

}  // namespace coradd
