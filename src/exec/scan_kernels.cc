#include "exec/scan_kernels.h"

#include <algorithm>

namespace coradd::exec {

namespace {

/// Interns `name` into `cols`, returning its index (existing or appended).
size_t InternColumn(const MaterializedObject& obj, const std::string& name,
                    std::vector<ResolvedColumn>* cols) {
  const ResolvedColumn rc = ResolveColumn(obj, name);
  for (size_t i = 0; i < cols->size(); ++i) {
    if ((*cols)[i].ucol == rc.ucol) return i;
  }
  cols->push_back(rc);
  return cols->size() - 1;
}

/// Fills `sel` with the batch-local indexes of rows matching `p`; the
/// predicate type is dispatched once per batch, not once per row.
size_t FilterFirst(const int64_t* col, size_t n, const Predicate& p,
                   uint32_t* sel) {
  size_t k = 0;
  switch (p.type) {
    case PredicateType::kEquality: {
      const int64_t v = p.value;
      for (size_t i = 0; i < n; ++i) {
        if (col[i] == v) sel[k++] = static_cast<uint32_t>(i);
      }
      break;
    }
    case PredicateType::kRange: {
      const int64_t lo = p.lo, hi = p.hi;
      for (size_t i = 0; i < n; ++i) {
        if (col[i] >= lo && col[i] <= hi) sel[k++] = static_cast<uint32_t>(i);
      }
      break;
    }
    case PredicateType::kIn: {
      const auto& vals = p.in_values;  // sorted
      for (size_t i = 0; i < n; ++i) {
        if (std::binary_search(vals.begin(), vals.end(), col[i])) {
          sel[k++] = static_cast<uint32_t>(i);
        }
      }
      break;
    }
  }
  return k;
}

/// Compacts `sel` in place to the survivors of `p` — the short circuit:
/// each further predicate only touches rows still selected.
size_t FilterNext(const int64_t* col, const Predicate& p, uint32_t* sel,
                  size_t k) {
  size_t out = 0;
  switch (p.type) {
    case PredicateType::kEquality: {
      const int64_t v = p.value;
      for (size_t j = 0; j < k; ++j) {
        if (col[sel[j]] == v) sel[out++] = sel[j];
      }
      break;
    }
    case PredicateType::kRange: {
      const int64_t lo = p.lo, hi = p.hi;
      for (size_t j = 0; j < k; ++j) {
        const int64_t v = col[sel[j]];
        if (v >= lo && v <= hi) sel[out++] = sel[j];
      }
      break;
    }
    case PredicateType::kIn: {
      const auto& vals = p.in_values;
      for (size_t j = 0; j < k; ++j) {
        if (std::binary_search(vals.begin(), vals.end(), col[sel[j]])) {
          sel[out++] = sel[j];
        }
      }
      break;
    }
  }
  return out;
}

}  // namespace

ResolvedQuery ResolveQuery(const Query& q, const MaterializedObject& obj,
                           std::vector<ResolvedColumn>* cols) {
  ResolvedQuery rq;
  for (const auto& p : q.predicates) {
    rq.preds.push_back(&p);
    rq.pred_col.push_back(InternColumn(obj, p.column, cols));
  }
  for (const auto& a : q.aggregates) {
    ResolvedQuery::Agg agg;
    agg.col_a = static_cast<int>(InternColumn(obj, a.col_a, cols));
    if (!a.col_b.empty()) {
      agg.col_b = static_cast<int>(InternColumn(obj, a.col_b, cols));
    }
    rq.aggs.push_back(agg);
  }
  return rq;
}

size_t FilterBatch(const ResolvedQuery& rq, const ColumnBatch& batch,
                   size_t n, uint32_t* sel) {
  if (rq.preds.empty()) return n;
  size_t k = FilterFirst(batch.cols[rq.pred_col[0]], n, *rq.preds[0], sel);
  for (size_t j = 1; j < rq.preds.size() && k > 0; ++j) {
    k = FilterNext(batch.cols[rq.pred_col[j]], *rq.preds[j], sel, k);
  }
  return k;
}

void AccumulateBatch(const ColumnBatch& batch, const ResolvedQuery& rq,
                     const uint32_t* sel, size_t k, PartialAgg* pa) {
  const bool all_rows = rq.preds.empty();
  pa->rows += k;
  for (size_t j = 0; j < rq.aggs.size(); ++j) {
    const int64_t* a = batch.cols[static_cast<size_t>(rq.aggs[j].col_a)];
    double s = pa->acc[j];
    if (rq.aggs[j].col_b >= 0) {
      const int64_t* b = batch.cols[static_cast<size_t>(rq.aggs[j].col_b)];
      if (all_rows) {
        for (size_t i = 0; i < k; ++i) {
          s += static_cast<double>(a[i]) * static_cast<double>(b[i]);
        }
      } else {
        for (size_t i = 0; i < k; ++i) {
          s += static_cast<double>(a[sel[i]]) * static_cast<double>(b[sel[i]]);
        }
      }
    } else {
      if (all_rows) {
        for (size_t i = 0; i < k; ++i) s += static_cast<double>(a[i]);
      } else {
        for (size_t i = 0; i < k; ++i) s += static_cast<double>(a[sel[i]]);
      }
    }
    pa->acc[j] = s;
  }
}

}  // namespace coradd::exec
