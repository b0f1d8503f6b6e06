// Query executor over materialized objects. It enumerates the physically
// available plans (full scan, clustered-prefix scan, one per CM, one per
// secondary B+Tree), asks the provided cost model — the "optimizer" — to
// pick one, then actually performs the chosen access pattern page by page
// against the DiskModel and computes the aggregate. The simulated elapsed
// time is the experiment's "real runtime"; the aggregate doubles as a
// cross-design correctness check (every design must return identical
// answers for the same query).
//
// Execution is one kernel, AggregatePlan: a plan's rows (its ranges, or its
// rid list for a secondary B+Tree) are cut into one flat list of fixed-width
// tasks run across a ThreadPool; each task reads its ColumnBatches once
// (zero-copy for stored columns) and feeds every member query's filter and
// accumulators; partials merge in (member, task) order — so every thread
// count and every batch size produces bit-identical results (see
// docs/EXECUTION.md).
//
// Plan selection, I/O billing and aggregation are exposed separately
// (SelectPlan / ChargeIo / AggregatePlan) so the serving layer can run a
// group of admitted queries whose plans scan the same row ranges of the same
// object as one multi-member pass (see docs/SERVING.md); RunPlan is ChargeIo
// plus a one-member AggregatePlan, and Run() prefixes SelectPlan.
#pragma once

#include <memory>

#include "common/thread_pool.h"
#include "cost/cost_model.h"
#include "exec/materialize.h"
#include "storage/buffer_pool.h"
#include "storage/disk_model.h"
#include "storage/layout.h"

namespace coradd {

/// Outcome of running one query against one object.
struct QueryRunResult {
  double seconds = 0.0;
  uint64_t pages_read = 0;
  uint64_t seeks = 0;
  uint64_t fragments = 0;
  AccessPath path = AccessPath::kFullScan;
  /// Combined value of all aggregates (identical across designs).
  double aggregate = 0.0;
  uint64_t rows_output = 0;
  /// Pages served from the shared buffer pool (pooled mode only; 0 cold).
  uint64_t pool_hits = 0;
};

/// Batched-execution knobs. The defaults are what the benches run.
struct ExecOptions {
  /// Rows per ColumnBatch handed to the filter/aggregate kernels. Any value
  /// yields bit-identical results (per-aggregate accumulators run in row
  /// order across batch boundaries).
  size_t batch_rows = 4096;
  /// Fixed task width for parallel scans: each plan range (or the rid list)
  /// is cut into ceil(size / partition_rows) tasks regardless of thread
  /// count, and partials merge in task order — the determinism contract.
  /// Changing this value regroups floating-point sums (still within 1e-9
  /// relative).
  size_t partition_rows = 16384;
  /// Pool for plan-pass tasks; nullptr = ThreadPool::Shared().
  ThreadPool* pool = nullptr;
  /// Optional shared page pool. When set, ChargeIo bills page touches
  /// through it — resident pages cost nothing and each maximal run of
  /// missing pages costs one seek + sequential read on the query's
  /// DiskModel. Dirty pages a touch writes back are counted in the pool's
  /// stats and billed to no query. The object must carry a nonzero
  /// `pool_object_id`. Default off: billing is the cold per-query model,
  /// bit-identical to every existing golden.
  SharedBufferPool* page_pool = nullptr;
};

/// A selected access plan, fully resolved to physical work: the row ranges
/// to aggregate (in execution order — the determinism surface) and the
/// coalesced page runs to charge against the DiskModel. Two queries whose
/// plans agree on (object, ranges) aggregate over identical batches, which
/// is exactly the condition the serving layer's grouping keys on.
struct ScanPlan {
  enum class Kind { kFullScan, kClustered, kCm, kBTree };
  Kind kind = Kind::kFullScan;
  AccessPath path = AccessPath::kFullScan;
  /// CM or secondary-B+Tree ordinal within the object (kCm / kBTree only).
  size_t structure = 0;
  /// Row ranges aggregated, in order. Empty ranges are never stored.
  std::vector<RowRange> ranges;
  /// Coalesced heap page runs charged to the disk, in order.
  std::vector<PageRun> io_runs;
  /// B+Tree descent seeks charged per run (clustered/CM paths).
  uint32_t seeks_per_run = 0;
  /// kBTree only: sorted row ids to fetch plus the index descent charge.
  std::vector<RowId> rids;
  uint64_t index_leaf_pages = 0;
  uint32_t index_height = 0;
  /// kBTree only: first leaf page of the touched span, so pooled accounting
  /// touches concrete index pages (keyed under kIndexPageObjectFlag).
  uint64_t index_leaf_first = 0;
  /// Range-based plans aggregate `ranges` and are groupable; kBTree plans
  /// gather an explicit rid list, which the serving layer never groups.
  bool range_based() const { return kind != Kind::kBTree; }
};

/// Executes queries with plan selection delegated to a cost model.
class QueryExecutor {
 public:
  /// `planner` plays the optimizer: designs produced by the oblivious
  /// designer are also *executed* with oblivious plan choices, mirroring
  /// the commercial system's behaviour in §7.
  QueryExecutor(const StatsRegistry* registry, const CostModel* planner,
                ExecOptions options = {});

  const ExecOptions& options() const { return options_; }

  /// Attaches (or detaches, nullptr) the shared page pool after
  /// construction — the serving engine sizes its pool from the materialized
  /// working set, which only exists once the engine body runs. Not
  /// thread-safe against concurrent Run/RunPlan.
  void SetPagePool(SharedBufferPool* pool) { options_.page_pool = pool; }

  /// Runs `q` cold (the paper discards caches between queries) against
  /// `obj`, charging I/O to `disk`. Equivalent to SelectPlan + RunPlan.
  QueryRunResult Run(const Query& q, const MaterializedObject& obj,
                     DiskModel* disk) const;

  /// Runs `q` through the object's CM number `cm_index` regardless of what
  /// the planner would pick — the §7/Fig 10 methodology, where query
  /// rewriting forces the secondary plan onto the DBMS.
  QueryRunResult RunWithCm(const Query& q, const MaterializedObject& obj,
                           size_t cm_index, DiskModel* disk) const;

  /// Picks the cheapest physically available plan for `q` on `obj` under
  /// `params` and resolves it to ranges + page runs. Deterministic: depends
  /// only on (q, obj, params).
  ScanPlan SelectPlan(const Query& q, const MaterializedObject& obj,
                      const DiskParams& params) const;

  /// Executes a previously selected plan: ChargeIo, then a one-member
  /// AggregatePlan. Run(q, obj, disk) ==
  /// RunPlan(q, obj, SelectPlan(q, obj, disk->params()), disk) bit-for-bit.
  QueryRunResult RunPlan(const Query& q, const MaterializedObject& obj,
                         const ScanPlan& plan, DiskModel* disk) const;

  /// Bills `plan`'s I/O to `disk` and returns a result holding the plan's
  /// path and the bill (seconds, pages, seeks, fragments, pool hits).
  /// Cold: index descents, seeks and page runs are charged in full. Pooled
  /// (page_pool set): every plan page — heap runs, and index leaves for
  /// kBTree — is touched through the pool, and only missing pages are
  /// charged, one seek + sequential read per maximal missed run; descent
  /// seeks fold into the per-run seek, so a fully warm plan costs zero
  /// seconds. Pooled billing requires obj.pool_object_id != 0.
  QueryRunResult ChargeIo(const ScanPlan& plan, const MaterializedObject& obj,
                          DiskModel* disk) const;

  /// The plan-execution kernel: one pass over `plan`'s rows on `obj` for
  /// the member queries `queries` (1..N; every member must be answerable
  /// from those rows). The rows are cut into one flat, range-major task list
  /// of partition_rows slices — of plan.ranges, or of plan.rids for kBTree —
  /// run by one ParallelFor; each batch is read once with the union of the
  /// members' columns and fed to every member's filter and accumulators.
  /// Adds member m's aggregate and row count into results[m] (I/O fields
  /// untouched), merging partials in (member, task) order, so each member's
  /// answer is bit-identical to its one-member pass at any thread count and
  /// batch size.
  void AggregatePlan(const MaterializedObject& obj, const ScanPlan& plan,
                     const std::vector<const Query*>& queries,
                     QueryRunResult* results) const;

 private:
  void BuildClusteredPlan(const Query& q, const MaterializedObject& obj,
                          const DiskParams& params, ScanPlan* plan) const;
  void BuildCmPlan(const Query& q, const MaterializedObject& obj,
                   const CorrelationMap& cm, const DiskParams& params,
                   ScanPlan* plan) const;
  void BuildBTreePlan(const Query& q, const MaterializedObject& obj,
                      size_t btree_idx, const DiskParams& params,
                      ScanPlan* plan) const;

  const StatsRegistry* registry_;
  const CostModel* planner_;
  ExecOptions options_;
};

}  // namespace coradd
