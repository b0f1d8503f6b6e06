// Batched filter/aggregate kernels behind the executor's one plan pass
// (QueryExecutor::AggregatePlan in exec/executor.cc). Everything here is
// deterministic by construction: per-aggregate accumulators run in row order
// across batch boundaries, so any batch size produces bit-identical doubles
// as long as the pass keeps its (task, batch) decomposition fixed (see
// docs/EXECUTION.md).
#pragma once

#include <cstdint>
#include <vector>

#include "exec/materialize.h"
#include "workload/query.h"

namespace coradd::exec {

/// One query resolved against one object: predicates and aggregates
/// rewritten as indexes into the column list of the pass that runs it (see
/// ResolveQuery). Built once per executed plan — the batched kernels below
/// never touch a column name again.
struct ResolvedQuery {
  std::vector<const Predicate*> preds;
  std::vector<size_t> pred_col;  ///< preds[j] reads batch column pred_col[j].
  struct Agg {
    int col_a = -1;
    int col_b = -1;  ///< -1 => SUM(col_a); else SUM(col_a * col_b).
  };
  std::vector<Agg> aggs;
};

/// Resolves `q` against `obj`, interning every column it reads into `cols` —
/// the pass's shared column list, so members of one pass read one batch.
ResolvedQuery ResolveQuery(const Query& q, const MaterializedObject& obj,
                           std::vector<ResolvedColumn>* cols);

/// Per-task partial result: one running sum per aggregate, accumulated in
/// row order across batch boundaries (so batch size never regroups the
/// floating-point additions), combined left-to-right at merge time.
struct PartialAgg {
  std::vector<double> acc;
  uint64_t rows = 0;
};

/// Runs the full predicate chain of `rq` over a batch of `n` rows whose
/// columns are indexed by rq.pred_col. Returns the survivor count in `sel`;
/// when `rq` has no predicates returns `n` and leaves `sel` untouched (the
/// all-rows fast path AccumulateBatch takes for predicate-free queries).
size_t FilterBatch(const ResolvedQuery& rq, const ColumnBatch& batch,
                   size_t n, uint32_t* sel);

/// Adds the `k` rows FilterBatch selected into `pa`.
void AccumulateBatch(const ColumnBatch& batch, const ResolvedQuery& rq,
                     const uint32_t* sel, size_t k, PartialAgg* pa);

}  // namespace coradd::exec
