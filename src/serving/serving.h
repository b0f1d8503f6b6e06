// Long-running concurrent query-serving engine over an installed design
// (docs/SERVING.md). Client sessions Submit() workload queries concurrently;
// a single dispatcher thread drains the admission queue in epochs, groups
// admitted queries whose selected plans scan the same row ranges of the same
// materialized object into one unit, runs every unit — one member or many —
// through the executor's single plan-pass kernel
// (QueryExecutor::AggregatePlan), and interleaves MV-maintenance insert
// batches (exec/maintenance.h) as exclusive writer epochs between read
// epochs. Within a unit, tickets for the SAME workload query collapse to one
// member (lookalike dedup): the first occurrence is executed and every
// duplicate receives the bit-identical result — on skewed
// ("lookalike-heavy") streams this, plus the shared gather of provenance
// columns, is where the batching throughput win comes from.
//
// Admission protocol: Submit blocks while admission_capacity tickets are
// queued (backpressure), then enqueues a ticket and returns a future.
// SubmitBatch admits a whole stream slice atomically, so the dispatcher
// sees it as one unit — with a fixed admission order this makes epoch
// composition (and therefore the shared/solo counters) reproducible.
// Results are delivered exactly once through the ticket's promise.
//
// Determinism contract: per-query aggregates and row counts are
// bit-identical to solo QueryExecutor runs at ANY thread count and under
// any epoch slicing, because a multi-member pass merges each member's
// partials exactly as its one-member pass would. Simulated per-query
// seconds are billed to a fresh per-query DiskModel: with pooling off every
// member pays its own plan cold, exactly as the evaluator does (§7); with
// pooling on a unit touches its pages once through the pool and every
// member reports that shared bill. The `deterministic` option additionally
// executes epoch units sequentially in formation order so traces and
// counters are reproducible too.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/context.h"
#include "core/design.h"
#include "exec/executor.h"
#include "exec/maintenance.h"

namespace coradd::serving {

/// Engine knobs.
struct ServingOptions {
  /// Tickets the admission queue holds before Submit blocks (backpressure).
  size_t admission_capacity = 256;
  /// Max query tickets drained into one read epoch; 0 = auto (4x the pool's
  /// participant capacity — enough to form groups without starving tail
  /// latency).
  size_t max_epoch_tickets = 0;
  /// Group same-scan queries into cooperative passes; false = every ticket
  /// executes solo (the A/B surface bench_serving measures).
  bool shared_scan = true;
  /// Execute epoch units sequentially in formation order (reproducible
  /// counters/traces; results are bit-identical either way).
  bool deterministic = false;
  /// Shared buffer pool capacity in pages; 0 = pooled serving off (cold
  /// per-query billing). When on, the engine owns a SharedBufferPool
  /// (kTwoQ, automatic shard count): reads bill only pool misses, shared
  /// passes touch each page once per group, and maintenance writer epochs
  /// mirror their dirtied pages into it. Dirty pages the pool writes back
  /// are counted in ServingStats::pool and billed to no query.
  /// Aggregates/row counts are unaffected either way — pooling changes
  /// costs, never results.
  uint64_t pool_pages = 0;
  /// Alternative sizing when pool_pages == 0: capacity as a fraction of the
  /// workload's working set (distinct plan pages, WorkingSetPages()).
  /// 0 = off.
  double pool_fraction = 0.0;
  ExecOptions exec;
};

/// One served query's outcome, delivered through the Submit future.
struct TicketResult {
  std::string query_id;
  double aggregate = 0.0;
  uint64_t rows_output = 0;
  /// Simulated runtime. Pooling off: the cold-cache cost, identical to a
  /// solo run. Pooling on: the pool misses of the ticket's unit, shared by
  /// every member of a group.
  double simulated_seconds = 0.0;
  uint64_t pages_read = 0;
  AccessPath path = AccessPath::kFullScan;
  /// True when served by a group of >= 2 members.
  bool shared = false;
  /// Pages served from the engine's shared pool (0 when pooling is off).
  uint64_t pool_hits = 0;
  uint64_t epoch = 0;
  /// Wall-clock submit -> completion (queueing + execution).
  double latency_seconds = 0.0;
};

/// Engine counter snapshot (monotone; readable at any time).
struct ServingStats {
  uint64_t admitted = 0;
  uint64_t completed = 0;
  uint64_t shared_executed = 0;  ///< tickets served in a group
  uint64_t solo_executed = 0;    ///< tickets served alone
  uint64_t groups = 0;           ///< groups run (>= 2 members each)
  /// Tickets answered from a group-mate's identical computation: a group
  /// member whose query index duplicates an earlier member's is not
  /// re-executed — it receives the representative's (bit-identical) result.
  uint64_t lookalike_hits = 0;
  uint64_t epochs = 0;           ///< read epochs drained
  uint64_t maintenance_batches = 0;
  uint64_t maintenance_inserts = 0;
  size_t queue_depth_high_water = 0;
  /// Shared-pool counters (all zero when pooling is off).
  BufferPoolStats pool;
};

/// Concurrent query-serving engine over one installed design.
class ServingEngine {
 public:
  /// Materializes every object the design routes workload queries to (one
  /// slot per structurally distinct object, like the evaluator). All
  /// pointer arguments must outlive the engine.
  ServingEngine(const DesignContext* context, const DatabaseDesign* design,
                const Workload* workload, const CostModel* planner,
                ServingOptions options = {});
  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Spawns the dispatcher. Idempotent.
  void Start();
  /// Drains every admitted ticket, then joins the dispatcher. Idempotent.
  void Stop();

  /// Admits workload query `query_index`; blocks while the queue is full.
  std::future<TicketResult> Submit(size_t query_index);

  /// Admits a slice of queries atomically (one lock hold), so the
  /// dispatcher can never split it across epochs it formed before the call.
  /// Blocks until the queue has room for the whole batch.
  std::vector<std::future<TicketResult>> SubmitBatch(
      const std::vector<size_t>& query_indices);

  /// Installs the maintenance simulation the engine interleaves with reads.
  /// `options.num_inserts` is ignored; SubmitMaintenance drives the count.
  void ConfigureMaintenance(std::vector<MaintainedObject> objects,
                            const MaintenanceOptions& options);

  /// Admits an insert batch. It executes as an exclusive writer epoch:
  /// every read admitted before it completes first, reads admitted after it
  /// wait. The future resolves to the cumulative maintenance totals after
  /// the batch.
  std::future<MaintenanceResult> SubmitMaintenance(uint64_t inserts);

  /// Admits a final flush (write back resident dirty pages) and returns the
  /// cumulative totals — the Figure 14 end-of-experiment cost.
  MaintenanceResult FinishMaintenance();

  ServingStats stats() const;

  /// Reference solo execution of workload query `query_index` on its routed
  /// object with this engine's ExecOptions, a cold DiskModel, and NO pool —
  /// what the bit-identity tests compare served results against. Never
  /// touches (or warms) the engine's shared pool.
  QueryRunResult RunSolo(size_t query_index) const;

  /// Distinct (object, page) pairs the workload's selected plans touch —
  /// the working set pooled sizing is quoted against (pool_fraction, the
  /// bench's hit-rate-vs-pool-size sweep).
  uint64_t WorkingSetPages() const;

  /// The engine's shared page pool; nullptr when pooling is off.
  SharedBufferPool* page_pool() { return page_pool_.get(); }
  const SharedBufferPool* page_pool() const { return page_pool_.get(); }

  const MaterializedObject& ObjectForQuery(size_t query_index) const;
  const ServingOptions& options() const { return options_; }

  /// MaintainedObject list derived from this engine's materialized slots:
  /// heap pages from the clustered table, index pages from the secondary
  /// structures, append-only for the base design (arrival-order heap).
  std::vector<MaintainedObject> DerivedMaintainedObjects() const;

 private:
  struct Ticket {
    enum class Kind { kQuery, kMaintenance, kMaintenanceFlush };
    Kind kind = Kind::kQuery;
    size_t query_index = 0;
    uint64_t inserts = 0;
    std::chrono::steady_clock::time_point submit_time;
    std::promise<TicketResult> promise;
    std::promise<MaintenanceResult> maint_promise;
  };

  void DispatcherLoop();
  /// Runs one read epoch: plan, group, execute, deliver.
  void ExecuteEpoch(std::vector<std::unique_ptr<Ticket>> tickets);
  /// Runs one writer epoch (exclusive): applies or flushes an insert batch.
  void ExecuteMaintenance(Ticket* ticket);
  size_t EpochCap() const;

  const DesignContext* context_;
  const DatabaseDesign* design_;
  const Workload* workload_;
  const CostModel* planner_;
  ServingOptions options_;
  QueryExecutor executor_;
  DiskParams disk_params_;
  ThreadPool* pool_;

  /// Distinct materialized objects, and the slot each workload query routes
  /// to. Read-only after construction.
  std::vector<std::unique_ptr<MaterializedObject>> slots_;
  std::vector<size_t> slot_of_query_;

  /// Shared page pool (pool_pages/pool_fraction > 0 only). Created in the
  /// constructor body after the slots exist (sizing needs the materialized
  /// working set), then attached to executor_ via SetPagePool.
  std::unique_ptr<SharedBufferPool> page_pool_;

  std::mutex mu_;
  std::condition_variable cv_work_;   ///< dispatcher: queue non-empty / stop
  std::condition_variable cv_space_;  ///< submitters: queue has room
  std::deque<std::unique_ptr<Ticket>> queue_;
  bool stop_ = false;
  bool running_ = false;
  std::thread dispatcher_;

  /// Maintenance state, touched only by the dispatcher thread after
  /// ConfigureMaintenance (which requires a quiesced engine).
  std::unique_ptr<InsertionSimulator> maintenance_;

  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> shared_executed_{0};
  std::atomic<uint64_t> solo_executed_{0};
  std::atomic<uint64_t> groups_{0};
  std::atomic<uint64_t> lookalike_hits_{0};
  std::atomic<uint64_t> epochs_{0};
  std::atomic<uint64_t> maintenance_batches_{0};
  std::atomic<uint64_t> maintenance_inserts_{0};
  std::atomic<size_t> queue_hwm_{0};
};

}  // namespace coradd::serving
