#include "exec/executor.h"

#include <algorithm>

#include "common/string_util.h"
#include "exec/scan_kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace coradd {

namespace {

// The two billing models behind QueryExecutor::ChargeIo. Both charge
// `disk` and set out->fragments (plus pool_hits when pooled); ChargeIo
// reads seconds, pages and seeks back off the disk.

/// Cold billing: index descents, seeks and every page run in full.
void ChargeCold(const ScanPlan& plan, const MaterializedObject& obj,
                DiskModel* disk, QueryRunResult* out) {
  switch (plan.kind) {
    case ScanPlan::Kind::kFullScan:
      disk->Seek();
      disk->SequentialRead(obj.table->NumPages());
      out->fragments = 1;
      break;
    case ScanPlan::Kind::kClustered:
    case ScanPlan::Kind::kCm:
      for (const auto& run : plan.io_runs) {
        for (uint32_t h = 0; h < plan.seeks_per_run; ++h) disk->Seek();
        disk->SequentialRead(run.NumPages());
      }
      out->fragments = plan.io_runs.size();
      break;
    case ScanPlan::Kind::kBTree:
      for (uint32_t h = 0; h < plan.index_height; ++h) disk->Seek();
      disk->SequentialRead(plan.index_leaf_pages);
      for (const auto& run : plan.io_runs) {
        disk->Seek();
        disk->SequentialRead(run.NumPages());
      }
      out->fragments = plan.io_runs.size();
      break;
  }
}

/// Touches pages [first, last] of pool object `object_id` for reading;
/// every maximal run of non-resident pages costs one seek + sequential
/// read on `disk` and counts as one fragment.
void TouchRunPooled(SharedBufferPool* pool, uint32_t object_id, uint64_t first,
                    uint64_t last, DiskModel* disk, QueryRunResult* out) {
  uint64_t miss_run = 0;
  const auto charge = [&] {
    disk->Seek();
    disk->SequentialRead(miss_run);
    ++out->fragments;
    miss_run = 0;
  };
  for (uint64_t p = first; p <= last; ++p) {
    if (pool->Read(PageKey{object_id, p}).hit) {
      ++out->pool_hits;
      if (miss_run > 0) charge();
    } else {
      ++miss_run;
    }
  }
  if (miss_run > 0) charge();
}

/// Pooled billing: touches every plan page through `pool`; only misses
/// cost I/O.
void ChargePooled(const ScanPlan& plan, const MaterializedObject& obj,
                  SharedBufferPool* pool, DiskModel* disk,
                  QueryRunResult* out) {
  const uint32_t id = obj.pool_object_id;
  CORADD_CHECK(id != 0);
  switch (plan.kind) {
    case ScanPlan::Kind::kFullScan: {
      const uint64_t pages = obj.table->NumPages();
      if (pages > 0) TouchRunPooled(pool, id, 0, pages - 1, disk, out);
      break;
    }
    case ScanPlan::Kind::kClustered:
    case ScanPlan::Kind::kCm: {
      for (const auto& run : plan.io_runs) {
        TouchRunPooled(pool, id, run.first_page, run.last_page, disk, out);
      }
      break;
    }
    case ScanPlan::Kind::kBTree: {
      if (plan.index_leaf_pages > 0) {
        TouchRunPooled(pool, id | kIndexPageObjectFlag, plan.index_leaf_first,
                       plan.index_leaf_first + plan.index_leaf_pages - 1, disk,
                       out);
      }
      for (const auto& run : plan.io_runs) {
        TouchRunPooled(pool, id, run.first_page, run.last_page, disk, out);
      }
      break;
    }
  }
}

}  // namespace

QueryExecutor::QueryExecutor(const StatsRegistry* registry,
                             const CostModel* planner, ExecOptions options)
    : registry_(registry), planner_(planner), options_(options) {
  CORADD_CHECK(registry != nullptr);
  CORADD_CHECK(planner != nullptr);
  CORADD_CHECK(options_.batch_rows > 0);
  CORADD_CHECK(options_.partition_rows > 0);
}

void QueryExecutor::BuildClusteredPlan(const Query& q,
                                       const MaterializedObject& obj,
                                       const DiskParams& params,
                                       ScanPlan* plan) const {
  plan->kind = ScanPlan::Kind::kClustered;
  plan->path = AccessPath::kClusteredScan;
  const auto& key_names = obj.spec.clustered_key;

  // Expand predicate prefixes along the clustered key.
  std::vector<std::vector<int64_t>> prefixes = {{}};
  const Predicate* range_pred = nullptr;
  constexpr size_t kMaxPrefixes = 4096;
  for (const auto& key : key_names) {
    const Predicate* pred = nullptr;
    for (const auto& p : q.predicates) {
      if (p.column == key) {
        pred = &p;
        break;
      }
    }
    if (pred == nullptr) break;
    if (pred->type == PredicateType::kEquality) {
      for (auto& pre : prefixes) pre.push_back(pred->value);
    } else if (pred->type == PredicateType::kIn) {
      if (prefixes.size() * pred->in_values.size() > kMaxPrefixes) break;
      std::vector<std::vector<int64_t>> next;
      next.reserve(prefixes.size() * pred->in_values.size());
      for (const auto& pre : prefixes) {
        for (int64_t v : pred->in_values) {
          auto ext = pre;
          ext.push_back(v);
          next.push_back(std::move(ext));
        }
      }
      prefixes = std::move(next);
    } else {
      range_pred = pred;
      break;
    }
  }

  // Resolve row ranges.
  for (const auto& pre : prefixes) {
    RowRange r;
    if (range_pred != nullptr) {
      r = obj.table->PrefixThenRange(pre, range_pred->lo, range_pred->hi);
    } else if (!pre.empty()) {
      r = obj.table->EqualRange(pre);
    } else {
      r = RowRange{0, static_cast<RowId>(obj.table->NumRows())};
    }
    if (!r.Empty()) plan->ranges.push_back(r);
  }

  // Pages touched, coalesced into fragments.
  std::vector<uint64_t> pages;
  for (const auto& r : plan->ranges) {
    const PageRun run = obj.table->PagesOfRange(r);
    for (uint64_t p = run.first_page; p <= run.last_page; ++p) {
      pages.push_back(p);
    }
  }
  std::sort(pages.begin(), pages.end());
  pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
  plan->io_runs = CoalescePages(pages, params.prefetch_pages);
  plan->seeks_per_run = obj.table->BTreeHeight();
}

void QueryExecutor::BuildCmPlan(const Query& q, const MaterializedObject& obj,
                                const CorrelationMap& cm,
                                const DiskParams& params,
                                ScanPlan* plan) const {
  plan->kind = ScanPlan::Kind::kCm;
  plan->path = AccessPath::kSecondary;

  // Bucket matchers per CM key column from the query's predicates.
  std::vector<std::function<bool(int64_t, int64_t)>> matchers;
  for (const auto& key : cm.key_columns()) {
    const Predicate* pred = nullptr;
    for (const auto& p : q.predicates) {
      if (p.column == key) {
        pred = &p;
        break;
      }
    }
    if (pred == nullptr) {
      matchers.push_back([](int64_t, int64_t) { return true; });
    } else if (pred->type == PredicateType::kEquality) {
      const int64_t v = pred->value;
      matchers.push_back(
          [v](int64_t lo, int64_t hi) { return v >= lo && v <= hi; });
    } else if (pred->type == PredicateType::kRange) {
      const int64_t plo = pred->lo, phi = pred->hi;
      matchers.push_back(
          [plo, phi](int64_t lo, int64_t hi) { return plo <= hi && lo <= phi; });
    } else {
      const std::vector<int64_t>& vals = pred->in_values;  // sorted
      matchers.push_back([&vals](int64_t lo, int64_t hi) {
        auto it = std::lower_bound(vals.begin(), vals.end(), lo);
        return it != vals.end() && *it <= hi;
      });
    }
  }

  // The CM itself is memory-resident (1 MB class, A-1); lookup is free I/O.
  const std::vector<uint32_t> buckets = cm.LookupBuckets(matchers);
  const uint64_t num_pages = obj.table->NumPages();
  std::vector<uint64_t> pages;
  for (uint32_t b : buckets) {
    const PageRun run = cm.BucketPages(b, num_pages);
    for (uint64_t p = run.first_page; p <= run.last_page; ++p) {
      pages.push_back(p);
    }
  }
  std::sort(pages.begin(), pages.end());
  pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
  plan->io_runs = CoalescePages(pages, params.prefetch_pages);
  plan->seeks_per_run = obj.table->BTreeHeight();

  // One aggregation range per coalesced run, in run order.
  const uint64_t rpp = obj.table->layout().RowsPerPage();
  for (const auto& run : plan->io_runs) {
    const RowId row_begin = static_cast<RowId>(run.first_page * rpp);
    const RowId row_end = static_cast<RowId>(std::min<uint64_t>(
        (run.last_page + 1) * rpp, obj.table->NumRows()));
    plan->ranges.push_back(RowRange{row_begin, row_end});
  }
}

void QueryExecutor::BuildBTreePlan(const Query& q,
                                   const MaterializedObject& obj,
                                   size_t btree_idx, const DiskParams& params,
                                   ScanPlan* plan) const {
  plan->kind = ScanPlan::Kind::kBTree;
  plan->path = AccessPath::kSecondary;
  plan->structure = btree_idx;
  const SecondaryBTreeIndex& index = *obj.btrees[btree_idx];
  const std::string& col = obj.btree_columns[btree_idx];

  const Predicate* pred = nullptr;
  for (const auto& p : q.predicates) {
    if (p.column == col) {
      pred = &p;
      break;
    }
  }
  CORADD_CHECK(pred != nullptr);

  switch (pred->type) {
    case PredicateType::kEquality:
      plan->rids = index.LookupEqual(pred->value);
      break;
    case PredicateType::kRange:
      plan->rids = index.LookupRange(pred->lo, pred->hi);
      break;
    case PredicateType::kIn:
      plan->rids = index.LookupIn(pred->in_values);
      break;
  }
  std::sort(plan->rids.begin(), plan->rids.end());

  // Index I/O: descend once, then scan the touched fraction of the leaves.
  plan->index_leaf_pages = std::max<uint64_t>(
      1, index.shape().leaf_pages * plan->rids.size() /
             std::max<size_t>(1, obj.table->NumRows()));
  plan->index_height = index.Height();
  int64_t first_key = 0;
  switch (pred->type) {
    case PredicateType::kEquality:
      first_key = pred->value;
      break;
    case PredicateType::kRange:
      first_key = pred->lo;
      break;
    case PredicateType::kIn:
      first_key = pred->in_values.empty() ? 0 : pred->in_values.front();
      break;
  }
  plan->index_leaf_first = index.LeafPageOfKey(first_key);

  // Heap I/O: sorted-RID sweep (A-2.1), coalesced page runs.
  std::vector<uint64_t> pages;
  pages.reserve(plan->rids.size());
  for (RowId r : plan->rids) pages.push_back(obj.table->PageOfRow(r));
  pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
  plan->io_runs = CoalescePages(pages, params.prefetch_pages);
}

ScanPlan QueryExecutor::SelectPlan(const Query& q,
                                   const MaterializedObject& obj,
                                   const DiskParams& params) const {
  // --- Plan selection among physically available structures.
  ScanPlan::Kind kind = ScanPlan::Kind::kFullScan;
  size_t structure = 0;
  double best =
      MvFullScanSeconds(obj.spec, *registry_->ForFact(obj.spec.fact_table),
                        params) +
      params.seek_seconds;

  const ClusteredPrefixPlan prefix = AnalyzeClusteredPrefix(
      q, obj.spec.clustered_key, *registry_->ForFact(obj.spec.fact_table));
  if (prefix.usable()) {
    // Price the clustered path with the planner (both models share it).
    const CostBreakdown c = planner_->Cost(q, obj.spec);
    if (c.feasible() && c.path == AccessPath::kClusteredScan &&
        c.seconds < best) {
      kind = ScanPlan::Kind::kClustered;
      best = c.seconds;
    } else if (prefix.usable()) {
      // Even if the planner's overall pick was different, consider the
      // clustered path at its standalone estimate.
      const double sel_pages =
          std::max(prefix.selectivity *
                       static_cast<double>(obj.table->NumPages()),
                   prefix.num_ranges);
      const double est =
          sel_pages * params.PageReadSeconds() +
          prefix.num_ranges * obj.table->BTreeHeight() * params.seek_seconds;
      if (est < best) {
        kind = ScanPlan::Kind::kClustered;
        best = est;
      }
    }
  }

  // Secondary plans must beat the sequential alternatives by a clear margin
  // — the textbook optimizer bias toward scans, which also absorbs the
  // estimation noise of sample-based fragment prediction.
  constexpr double kSecondaryMargin = 1.25;
  const auto pred_cols = q.PredicateColumns();
  for (size_t i = 0; i < obj.cms.size(); ++i) {
    // A CM helps only if at least one of its key columns is predicated.
    bool useful = false;
    for (const auto& k : obj.cms[i]->key_columns()) {
      if (std::find(pred_cols.begin(), pred_cols.end(), k) !=
          pred_cols.end()) {
        useful = true;
        break;
      }
    }
    if (!useful) continue;
    const CostBreakdown c =
        planner_->SecondaryCost(q, obj.spec, obj.cms[i]->key_columns());
    if (c.feasible() && c.seconds * kSecondaryMargin < best) {
      kind = ScanPlan::Kind::kCm;
      structure = i;
      best = c.seconds;
    }
  }
  for (size_t i = 0; i < obj.btrees.size(); ++i) {
    if (std::find(pred_cols.begin(), pred_cols.end(), obj.btree_columns[i]) ==
        pred_cols.end()) {
      continue;
    }
    const CostBreakdown c =
        planner_->SecondaryCost(q, obj.spec, {obj.btree_columns[i]});
    if (c.feasible() && c.seconds * kSecondaryMargin < best) {
      kind = ScanPlan::Kind::kBTree;
      structure = i;
      best = c.seconds;
    }
  }

  // --- Resolve the winner to physical work.
  ScanPlan plan;
  switch (kind) {
    case ScanPlan::Kind::kFullScan: {
      plan.kind = ScanPlan::Kind::kFullScan;
      plan.path = AccessPath::kFullScan;
      plan.seeks_per_run = 1;
      const uint64_t pages = obj.table->NumPages();
      if (pages > 0) plan.io_runs.push_back(PageRun{0, pages - 1});
      plan.ranges.push_back(
          RowRange{0, static_cast<RowId>(obj.table->NumRows())});
      break;
    }
    case ScanPlan::Kind::kClustered:
      BuildClusteredPlan(q, obj, params, &plan);
      break;
    case ScanPlan::Kind::kCm:
      plan.structure = structure;
      BuildCmPlan(q, obj, *obj.cms[structure], params, &plan);
      break;
    case ScanPlan::Kind::kBTree:
      BuildBTreePlan(q, obj, structure, params, &plan);
      break;
  }
  return plan;
}

QueryRunResult QueryExecutor::ChargeIo(const ScanPlan& plan,
                                       const MaterializedObject& obj,
                                       DiskModel* disk) const {
  CORADD_CHECK(disk != nullptr);
  QueryRunResult out;
  out.path = plan.path;
  const double t0 = disk->elapsed_seconds();
  const uint64_t p0 = disk->pages_read();
  const uint64_t s0 = disk->seeks();
  if (options_.page_pool != nullptr) {
    ChargePooled(plan, obj, options_.page_pool, disk, &out);
  } else {
    ChargeCold(plan, obj, disk, &out);
  }
  out.seconds = disk->elapsed_seconds() - t0;
  out.pages_read = disk->pages_read() - p0;
  out.seeks = disk->seeks() - s0;
  return out;
}

void QueryExecutor::AggregatePlan(const MaterializedObject& obj,
                                  const ScanPlan& plan,
                                  const std::vector<const Query*>& queries,
                                  QueryRunResult* results) const {
  const size_t num_members = queries.size();
  CORADD_CHECK(num_members > 0);
  TRACE_SPAN("exec.pass", {{"members", static_cast<int64_t>(num_members)}});

  // Members resolve into one shared column list, so one ColumnBatch (one
  // provenance gather for unstored columns) feeds every member.
  std::vector<ResolvedColumn> cols;
  std::vector<exec::ResolvedQuery> rqs;
  rqs.reserve(num_members);
  for (const Query* q : queries) {
    rqs.push_back(exec::ResolveQuery(*q, obj, &cols));
  }

  // One flat task list, range-major: fixed partition_rows slices of each
  // range from its begin, or of the rid list for kBTree. Task bounds are
  // row ids for ranges and rid-list offsets for kBTree.
  const bool gather = !plan.range_based();
  const uint64_t pr = options_.partition_rows;
  std::vector<std::pair<uint64_t, uint64_t>> tasks;
  const auto slice = [&](uint64_t begin, uint64_t end) {
    for (uint64_t b = begin; b < end; b += pr) {
      tasks.emplace_back(b, std::min(end, b + pr));
    }
  };
  if (gather) {
    slice(0, plan.rids.size());
  } else {
    for (const RowRange& r : plan.ranges) slice(r.begin, r.end);
  }
  const size_t num_tasks = tasks.size();
  static obs::Counter& partitions =
      *obs::MetricsRegistry::Global().GetCounter("exec.partitions");
  partitions.Add(num_tasks);

  // partials[m * num_tasks + t]: member m's partial for task t. Tasks write
  // disjoint slots; the merge below walks them in (member, task) order.
  std::vector<exec::PartialAgg> partials(num_members * num_tasks);
  const size_t batch_rows = options_.batch_rows;
  const auto run_task = [&](size_t t) {
    const auto [begin, end] = tasks[t];
    TRACE_SPAN("exec.partition",
               {{"rows", static_cast<int64_t>(end - begin)}});
    for (size_t m = 0; m < num_members; ++m) {
      partials[m * num_tasks + t].acc.assign(rqs[m].aggs.size(), 0.0);
    }
    BatchScratch scratch;
    std::vector<uint32_t> sel(std::min<uint64_t>(batch_rows, end - begin));
    ColumnBatch batch;
    for (uint64_t b = begin; b < end; b += batch_rows) {
      const uint64_t e = std::min<uint64_t>(end, b + batch_rows);
      const size_t n = static_cast<size_t>(e - b);
      if (gather) {
        GatherBatch(obj, plan.rids.data() + b, n, cols, &scratch, &batch);
      } else {
        ScanBatch(obj, RowRange{static_cast<RowId>(b), static_cast<RowId>(e)},
                  cols, &scratch, &batch);
      }
      for (size_t m = 0; m < num_members; ++m) {
        const size_t k = exec::FilterBatch(rqs[m], batch, n, sel.data());
        if (k == 0) continue;
        exec::AccumulateBatch(batch, rqs[m], sel.data(), k,
                              &partials[m * num_tasks + t]);
      }
    }
  };
  ThreadPool* pool =
      options_.pool != nullptr ? options_.pool : &ThreadPool::Shared();
  pool->ParallelFor(num_tasks, run_task);

  for (size_t m = 0; m < num_members; ++m) {
    for (size_t t = 0; t < num_tasks; ++t) {
      const exec::PartialAgg& pa = partials[m * num_tasks + t];
      results[m].rows_output += pa.rows;
      for (double s : pa.acc) results[m].aggregate += s;
    }
  }
}

QueryRunResult QueryExecutor::RunPlan(const Query& q,
                                      const MaterializedObject& obj,
                                      const ScanPlan& plan,
                                      DiskModel* disk) const {
  QueryRunResult out = ChargeIo(plan, obj, disk);
  AggregatePlan(obj, plan, {&q}, &out);
  return out;
}

QueryRunResult QueryExecutor::RunWithCm(const Query& q,
                                        const MaterializedObject& obj,
                                        size_t cm_index,
                                        DiskModel* disk) const {
  CORADD_CHECK(disk != nullptr);
  CORADD_CHECK(cm_index < obj.cms.size());
  ScanPlan plan;
  plan.structure = cm_index;
  BuildCmPlan(q, obj, *obj.cms[cm_index], disk->params(), &plan);
  return RunPlan(q, obj, plan, disk);
}

QueryRunResult QueryExecutor::Run(const Query& q,
                                  const MaterializedObject& obj,
                                  DiskModel* disk) const {
  CORADD_CHECK(disk != nullptr);
  CORADD_CHECK(MvCanServe(q, obj.spec));
  TRACE_SPAN_NAMED(run_span, "exec.query");
  static obs::Counter& queries_run =
      *obs::MetricsRegistry::Global().GetCounter("exec.queries_run");
  queries_run.Add(1);

  const ScanPlan plan = SelectPlan(q, obj, disk->params());
  QueryRunResult out = RunPlan(q, obj, plan, disk);
  run_span.Arg("plan", static_cast<int64_t>(plan.kind));
  run_span.Arg("pages_read", static_cast<int64_t>(out.pages_read));
  return out;
}

}  // namespace coradd
