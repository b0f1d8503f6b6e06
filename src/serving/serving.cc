#include "serving/serving.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/evaluator.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace coradd::serving {

namespace {

/// Scan-sharing key: queries whose plans aggregate identical row ranges of
/// the same slot read identical batches, so one multi-member pass gives each
/// the bit-identical result of its solo run (the grouping precondition).
std::string GroupKey(size_t slot, const ScanPlan& plan) {
  std::string key;
  key.reserve(16 + plan.ranges.size() * 16);
  key.append(reinterpret_cast<const char*>(&slot), sizeof(slot));
  for (const RowRange& r : plan.ranges) {
    key.append(reinterpret_cast<const char*>(&r.begin), sizeof(r.begin));
    key.append(reinterpret_cast<const char*>(&r.end), sizeof(r.end));
  }
  return key;
}

struct ServingMetrics {
  obs::Counter* admitted;
  obs::Counter* completed;
  obs::Counter* shared;
  obs::Counter* solo;
  obs::Counter* groups;
  obs::Counter* lookalike_hits;
  obs::Counter* epochs;
  obs::Counter* maintenance_batches;
  obs::Counter* maintenance_inserts;
  obs::Gauge* queue_depth;
  obs::Histogram* latency_micros;

  static ServingMetrics& Get() {
    static ServingMetrics m = [] {
      auto& r = obs::MetricsRegistry::Global();
      ServingMetrics out;
      out.admitted = r.GetCounter("serving.admitted");
      out.completed = r.GetCounter("serving.completed");
      out.shared = r.GetCounter("serving.shared");
      out.solo = r.GetCounter("serving.solo");
      out.groups = r.GetCounter("serving.groups");
      out.lookalike_hits = r.GetCounter("serving.lookalike_hits");
      out.epochs = r.GetCounter("serving.epochs");
      out.maintenance_batches = r.GetCounter("serving.maintenance_batches");
      out.maintenance_inserts = r.GetCounter("serving.maintenance_inserts");
      out.queue_depth = r.GetGauge("serving.queue_depth");
      out.latency_micros = r.GetHistogram("serving.latency_micros");
      return out;
    }();
    return m;
  }
};

}  // namespace

ServingEngine::ServingEngine(const DesignContext* context,
                             const DatabaseDesign* design,
                             const Workload* workload,
                             const CostModel* planner, ServingOptions options)
    : context_(context),
      design_(design),
      workload_(workload),
      planner_(planner),
      options_(options),
      executor_(&context->registry(), planner, options.exec),
      disk_params_(context->stats_options().disk),
      pool_(options.exec.pool != nullptr ? options.exec.pool
                                         : &ThreadPool::Shared()) {
  CORADD_CHECK(design_ != nullptr && workload_ != nullptr);
  TRACE_SPAN("serving.materialize_design");

  // One slot per structurally distinct routed object, in first-appearance
  // order (deterministic), materialized concurrently — the evaluator's
  // route-and-build path.
  std::vector<std::vector<size_t>> slot_of;
  const std::vector<const DesignedObject*> objects =
      RouteObjects({EvalJob{design_, workload_, planner_}}, &slot_of);
  slot_of_query_ = std::move(slot_of[0]);
  slots_ = MaterializeObjects(*context_, objects, pool_);

  // Pool identities: slot + 1, matching the maintenance simulator's 1-based
  // object ids, so writer-epoch dirty pages land on exactly the PageKeys
  // the scans read through.
  for (size_t i = 0; i < slots_.size(); ++i) {
    slots_[i]->pool_object_id = static_cast<uint32_t>(i) + 1;
  }

  uint64_t pool_pages = options_.pool_pages;
  if (pool_pages == 0 && options_.pool_fraction > 0.0) {
    pool_pages = std::max<uint64_t>(
        1, static_cast<uint64_t>(options_.pool_fraction *
                                 static_cast<double>(WorkingSetPages())));
  }
  if (pool_pages > 0) {
    BufferPoolOptions bp;
    bp.capacity_pages = pool_pages;
    bp.name = "serving";
    page_pool_ = std::make_unique<SharedBufferPool>(bp);
    executor_.SetPagePool(page_pool_.get());
  }
}

ServingEngine::~ServingEngine() { Stop(); }

void ServingEngine::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return;
  stop_ = false;
  running_ = true;
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
}

void ServingEngine::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stop_ = true;
  }
  cv_work_.notify_all();
  cv_space_.notify_all();
  dispatcher_.join();
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
}

size_t ServingEngine::EpochCap() const {
  if (options_.max_epoch_tickets > 0) return options_.max_epoch_tickets;
  return 4 * pool_->participant_capacity();
}

std::future<TicketResult> ServingEngine::Submit(size_t query_index) {
  std::vector<std::future<TicketResult>> futures =
      SubmitBatch({query_index});
  return std::move(futures[0]);
}

std::vector<std::future<TicketResult>> ServingEngine::SubmitBatch(
    const std::vector<size_t>& query_indices) {
  CORADD_CHECK(query_indices.size() <= options_.admission_capacity);
  std::vector<std::future<TicketResult>> futures;
  futures.reserve(query_indices.size());
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_space_.wait(lock, [&] {
      return stop_ ||
             queue_.size() + query_indices.size() <=
                 options_.admission_capacity;
    });
    CORADD_CHECK(!stop_);  // submitting past Stop() is a caller bug
    for (size_t qi : query_indices) {
      CORADD_CHECK(qi < workload_->queries.size());
      auto t = std::make_unique<Ticket>();
      t->kind = Ticket::Kind::kQuery;
      t->query_index = qi;
      t->submit_time = std::chrono::steady_clock::now();
      futures.push_back(t->promise.get_future());
      queue_.push_back(std::move(t));
    }
    const size_t depth = queue_.size();
    if (depth > queue_hwm_.load(std::memory_order_relaxed)) {
      queue_hwm_.store(depth, std::memory_order_relaxed);
    }
    ServingMetrics::Get().queue_depth->Set(static_cast<int64_t>(depth));
  }
  admitted_.fetch_add(query_indices.size(), std::memory_order_relaxed);
  ServingMetrics::Get().admitted->Add(query_indices.size());
  cv_work_.notify_one();
  return futures;
}

void ServingEngine::ConfigureMaintenance(
    std::vector<MaintainedObject> objects,
    const MaintenanceOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  maintenance_ =
      std::make_unique<InsertionSimulator>(std::move(objects), options);
  // Writer epochs dirty the shared pool's pages too (mirror writes never
  // touch the simulator's own pool/disk/RNG, so the isolated-cost ratio
  // stays exactly 1.000).
  if (page_pool_ != nullptr) maintenance_->SetMirrorPool(page_pool_.get());
}

std::future<MaintenanceResult> ServingEngine::SubmitMaintenance(
    uint64_t inserts) {
  std::future<MaintenanceResult> future;
  {
    std::unique_lock<std::mutex> lock(mu_);
    CORADD_CHECK(maintenance_ != nullptr);
    cv_space_.wait(lock, [&] {
      return stop_ || queue_.size() < options_.admission_capacity;
    });
    CORADD_CHECK(!stop_);
    auto t = std::make_unique<Ticket>();
    t->kind = Ticket::Kind::kMaintenance;
    t->inserts = inserts;
    t->submit_time = std::chrono::steady_clock::now();
    future = t->maint_promise.get_future();
    queue_.push_back(std::move(t));
  }
  cv_work_.notify_one();
  return future;
}

MaintenanceResult ServingEngine::FinishMaintenance() {
  std::future<MaintenanceResult> future;
  {
    std::unique_lock<std::mutex> lock(mu_);
    CORADD_CHECK(maintenance_ != nullptr);
    cv_space_.wait(lock, [&] {
      return stop_ || queue_.size() < options_.admission_capacity;
    });
    CORADD_CHECK(!stop_);
    auto t = std::make_unique<Ticket>();
    t->kind = Ticket::Kind::kMaintenanceFlush;
    t->submit_time = std::chrono::steady_clock::now();
    future = t->maint_promise.get_future();
    queue_.push_back(std::move(t));
  }
  cv_work_.notify_one();
  return future.get();
}

void ServingEngine::DispatcherLoop() {
  obs::Tracer::SetCurrentThreadName("serving-dispatcher");
  for (;;) {
    std::vector<std::unique_ptr<Ticket>> batch;
    std::unique_ptr<Ticket> writer;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ && drained
      // Drain query tickets up to the epoch cap, stopping at a maintenance
      // ticket — the readers/writer epoch boundary. A writer at the front
      // runs alone (exclusive epoch).
      const size_t cap = EpochCap();
      while (!queue_.empty()) {
        if (queue_.front()->kind != Ticket::Kind::kQuery) {
          if (batch.empty()) {
            writer = std::move(queue_.front());
            queue_.pop_front();
          }
          break;
        }
        if (cap > 0 && batch.size() >= cap) break;
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      ServingMetrics::Get().queue_depth->Set(
          static_cast<int64_t>(queue_.size()));
    }
    cv_space_.notify_all();
    if (writer != nullptr) {
      ExecuteMaintenance(writer.get());
    } else if (!batch.empty()) {
      ExecuteEpoch(std::move(batch));
    }
  }
}

void ServingEngine::ExecuteEpoch(std::vector<std::unique_ptr<Ticket>> tickets) {
  TRACE_SPAN("serving.epoch",
             {{"tickets", static_cast<int64_t>(tickets.size())}});
  const uint64_t epoch =
      epochs_.fetch_add(1, std::memory_order_relaxed) + 1;
  ServingMetrics::Get().epochs->Add(1);

  // --- Plan every ticket (deterministic; depends only on query + object).
  const size_t n = tickets.size();
  std::vector<ScanPlan> plans(n);
  for (size_t i = 0; i < n; ++i) {
    const Query& q = workload_->queries[tickets[i]->query_index];
    const MaterializedObject& obj =
        *slots_[slot_of_query_[tickets[i]->query_index]];
    plans[i] = executor_.SelectPlan(q, obj, disk_params_);
  }

  // --- Group by (slot, ranges) in admission order. Non-range plans and
  // batching-off mode make one-ticket units.
  struct Unit {
    size_t slot = 0;
    std::vector<size_t> members;  ///< ticket indexes, admission order
  };
  std::vector<Unit> units;
  std::unordered_map<std::string, size_t> unit_of_key;
  for (size_t i = 0; i < n; ++i) {
    const size_t slot = slot_of_query_[tickets[i]->query_index];
    if (options_.shared_scan && plans[i].range_based()) {
      const std::string key = GroupKey(slot, plans[i]);
      auto [it, inserted] = unit_of_key.emplace(key, units.size());
      if (inserted) units.push_back(Unit{slot, {}});
      units[it->second].members.push_back(i);
    } else {
      units.push_back(Unit{slot, {i}});
    }
  }
  uint64_t num_groups = 0;
  for (const Unit& u : units) {
    if (u.members.size() >= 2) ++num_groups;
  }
  groups_.fetch_add(num_groups, std::memory_order_relaxed);
  ServingMetrics::Get().groups->Add(num_groups);

  // --- Execute units (concurrently unless deterministic mode) and deliver
  // each ticket's result exactly once through its promise.
  const auto deliver = [&](Ticket* t, const QueryRunResult& r, bool shared) {
    TicketResult out;
    out.query_id = workload_->queries[t->query_index].id;
    out.aggregate = r.aggregate;
    out.rows_output = r.rows_output;
    out.simulated_seconds = r.seconds;
    out.pages_read = r.pages_read;
    out.path = r.path;
    out.shared = shared;
    out.pool_hits = r.pool_hits;
    out.epoch = epoch;
    out.latency_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t->submit_time)
            .count();
    ServingMetrics::Get().latency_micros->Observe(
        static_cast<uint64_t>(out.latency_seconds * 1e6));
    t->promise.set_value(std::move(out));
    completed_.fetch_add(1, std::memory_order_relaxed);
    ServingMetrics::Get().completed->Add(1);
  };
  const auto run_unit = [&](size_t u) {
    const Unit& unit = units[u];
    const MaterializedObject& obj = *slots_[unit.slot];
    // Lookalike dedup: members with the same query index are the same
    // computation — execute the first occurrence (admission order) and fan
    // its bit-identical result out to the duplicates.
    std::vector<size_t> reps;  ///< ticket index of each distinct query
    std::vector<size_t> rep_of(unit.members.size());
    std::unordered_map<size_t, size_t> rep_of_query;
    for (size_t m = 0; m < unit.members.size(); ++m) {
      const size_t i = unit.members[m];
      auto [it, inserted] =
          rep_of_query.emplace(tickets[i]->query_index, reps.size());
      if (inserted) reps.push_back(i);
      rep_of[m] = it->second;
    }
    // I/O billing, each on a fresh DiskModel (cold per query, §7). Pooled:
    // the unit touches each page once through the pool via member 0's plan
    // (identical ranges mean identical heap pages) and every member reports
    // that group bill. Cold: each member's plan is charged in full.
    std::vector<QueryRunResult> results(reps.size());
    std::vector<const Query*> queries(reps.size());
    for (size_t m = 0; m < reps.size(); ++m) {
      queries[m] = &workload_->queries[tickets[reps[m]]->query_index];
      if (m == 0 || page_pool_ == nullptr) {
        DiskModel disk(disk_params_);
        results[m] = executor_.ChargeIo(plans[reps[m]], obj, &disk);
      } else {
        results[m] = results[0];
        results[m].path = plans[reps[m]].path;
      }
    }
    executor_.AggregatePlan(obj, plans[reps[0]], queries, results.data());

    const bool shared = unit.members.size() >= 2;
    if (shared) {
      const uint64_t hits = unit.members.size() - reps.size();
      if (hits > 0) {
        lookalike_hits_.fetch_add(hits, std::memory_order_relaxed);
        ServingMetrics::Get().lookalike_hits->Add(hits);
      }
      shared_executed_.fetch_add(unit.members.size(),
                                 std::memory_order_relaxed);
      ServingMetrics::Get().shared->Add(unit.members.size());
    } else {
      solo_executed_.fetch_add(1, std::memory_order_relaxed);
      ServingMetrics::Get().solo->Add(1);
    }
    for (size_t m = 0; m < unit.members.size(); ++m) {
      deliver(tickets[unit.members[m]].get(), results[rep_of[m]], shared);
    }
  };
  if (!options_.deterministic) {
    pool_->ParallelFor(units.size(), run_unit);
  } else {
    for (size_t u = 0; u < units.size(); ++u) run_unit(u);
  }
}

void ServingEngine::ExecuteMaintenance(Ticket* ticket) {
  TRACE_SPAN("serving.maintenance",
             {{"inserts", static_cast<int64_t>(ticket->inserts)}});
  InsertionSimulator* sim = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sim = maintenance_.get();
  }
  CORADD_CHECK(sim != nullptr);
  if (ticket->kind == Ticket::Kind::kMaintenance) {
    sim->ApplyInserts(ticket->inserts);
    maintenance_batches_.fetch_add(1, std::memory_order_relaxed);
    maintenance_inserts_.fetch_add(ticket->inserts,
                                   std::memory_order_relaxed);
    ServingMetrics::Get().maintenance_batches->Add(1);
    ServingMetrics::Get().maintenance_inserts->Add(ticket->inserts);
  } else {
    sim->Flush();
  }
  ticket->maint_promise.set_value(sim->Totals());
}

ServingStats ServingEngine::stats() const {
  ServingStats out;
  out.admitted = admitted_.load(std::memory_order_relaxed);
  out.completed = completed_.load(std::memory_order_relaxed);
  out.shared_executed = shared_executed_.load(std::memory_order_relaxed);
  out.solo_executed = solo_executed_.load(std::memory_order_relaxed);
  out.groups = groups_.load(std::memory_order_relaxed);
  out.lookalike_hits = lookalike_hits_.load(std::memory_order_relaxed);
  out.epochs = epochs_.load(std::memory_order_relaxed);
  out.maintenance_batches =
      maintenance_batches_.load(std::memory_order_relaxed);
  out.maintenance_inserts =
      maintenance_inserts_.load(std::memory_order_relaxed);
  out.queue_depth_high_water = queue_hwm_.load(std::memory_order_relaxed);
  if (page_pool_ != nullptr) out.pool = page_pool_->stats();
  return out;
}

QueryRunResult ServingEngine::RunSolo(size_t query_index) const {
  CORADD_CHECK(query_index < workload_->queries.size());
  const Query& q = workload_->queries[query_index];
  const MaterializedObject& obj = *slots_[slot_of_query_[query_index]];
  // Reference runs must stay cold AND side-effect-free: a pooled run here
  // would both bill differently and warm the engine's pool.
  ExecOptions cold = options_.exec;
  cold.page_pool = nullptr;
  const QueryExecutor cold_executor(&context_->registry(), planner_, cold);
  DiskModel disk(disk_params_);
  return cold_executor.Run(q, obj, &disk);
}

uint64_t ServingEngine::WorkingSetPages() const {
  std::unordered_set<PageKey, PageKeyHash> pages;
  for (size_t qi = 0; qi < workload_->queries.size(); ++qi) {
    const size_t slot = slot_of_query_[qi];
    const MaterializedObject& obj = *slots_[slot];
    const uint32_t id = static_cast<uint32_t>(slot) + 1;
    const ScanPlan plan =
        executor_.SelectPlan(workload_->queries[qi], obj, disk_params_);
    for (const PageRun& run : plan.io_runs) {
      for (uint64_t p = run.first_page; p <= run.last_page; ++p) {
        pages.insert(PageKey{id, p});
      }
    }
    if (plan.kind == ScanPlan::Kind::kBTree && plan.index_leaf_pages > 0) {
      for (uint64_t j = 0; j < plan.index_leaf_pages; ++j) {
        pages.insert(
            PageKey{id | kIndexPageObjectFlag, plan.index_leaf_first + j});
      }
    }
  }
  return pages.size();
}

const MaterializedObject& ServingEngine::ObjectForQuery(
    size_t query_index) const {
  CORADD_CHECK(query_index < workload_->queries.size());
  return *slots_[slot_of_query_[query_index]];
}

std::vector<MaintainedObject> ServingEngine::DerivedMaintainedObjects()
    const {
  std::vector<MaintainedObject> out;
  out.reserve(slots_.size());
  for (const auto& slot : slots_) {
    MaintainedObject mo;
    mo.heap_pages = slot->table->NumPages();
    const uint32_t page_size = slot->table->layout().page_size_bytes;
    const uint64_t secondary_bytes = slot->btree_bytes + slot->cm_bytes;
    mo.index_pages = (secondary_bytes + page_size - 1) / page_size;
    mo.append_only = slot->spec.is_base;
    out.push_back(mo);
  }
  return out;
}

}  // namespace coradd::serving
