// Tests for src/serving: shared-scan vs solo bit-identity, deterministic
// grouping counters, admission backpressure, exactly-once delivery under
// concurrent clients, maintenance interleaved with reads (split invariance
// vs the isolated simulator), and the engine's shared buffer pool (pooled
// results bit-identical to solo at any thread count, warm reruns free,
// maintenance ratio still exact, write-back counters exact under concurrent
// scans + writer epochs, a golden hash of pooled serving). The cheap
// ServingSmoke* cases run as the `serving_smoke` ctest entry;
// ServingStress* interleaving-hungry cases run in the full suite and the
// TSan CI leg.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <thread>
#include <vector>

#include "cost/correlation_cost_model.h"
#include "serving/client_driver.h"
#include "serving/serving.h"
#include "ssb/ssb.h"

namespace coradd {
namespace {

using serving::ArrivalMode;
using serving::ClientRunOptions;
using serving::MakeLookalikeStream;
using serving::RunClients;
using serving::ServingEngine;
using serving::ServingOptions;
using serving::ServingRunStats;
using serving::ServingStats;
using serving::TicketResult;

class ServingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ssb::SsbOptions options;
    options.scale_factor = 0.003;
    catalog_ = ssb::MakeCatalog(options).release();
    workload_ = new Workload(ssb::MakeWorkload());
    StatsOptions sopt;
    sopt.sample_rows = 2048;
    sopt.disk.page_size_bytes = 1024;
    context_ = new DesignContext(catalog_, *workload_, sopt);
    planner_ = new CorrelationCostModel(&context_->registry());
  }
  static void TearDownTestSuite() {
    delete planner_;
    delete context_;
    delete workload_;
    delete catalog_;
  }

  /// Base-only design (every query routed to the PK-clustered base): all
  /// plans are full scans of the same object, so shared-scan grouping is
  /// maximal — the regime the grouping/bit-identity tests want.
  static DatabaseDesign BaseOnlyDesign() {
    DatabaseDesign d;
    d.designer = "base-only";
    DesignedObject obj;
    obj.spec.name = "base";
    obj.spec.fact_table = "lineorder";
    const Universe* u = context_->UniverseForFact("lineorder");
    for (size_t c = 0; c < u->fact_table().schema().NumColumns(); ++c) {
      obj.spec.columns.push_back(u->fact_table().schema().Column(c).name);
    }
    obj.spec.clustered_key = {"lo_orderkey", "lo_linenumber"};
    obj.spec.is_fact_recluster = true;
    obj.spec.is_base = true;
    d.objects.push_back(obj);
    d.object_for_query.assign(workload_->queries.size(), 0);
    return d;
  }

  static void ExpectMatchesSolo(const ServingEngine& engine,
                                const TicketResult& got, size_t query_index) {
    const QueryRunResult want = engine.RunSolo(query_index);
    // Bit-identical doubles: EXPECT_EQ, not EXPECT_NEAR.
    EXPECT_EQ(got.aggregate, want.aggregate) << got.query_id;
    EXPECT_EQ(got.rows_output, want.rows_output) << got.query_id;
    EXPECT_EQ(got.simulated_seconds, want.seconds) << got.query_id;
    EXPECT_EQ(got.pages_read, want.pages_read) << got.query_id;
    EXPECT_EQ(got.path, want.path) << got.query_id;
  }

  static Catalog* catalog_;
  static Workload* workload_;
  static DesignContext* context_;
  static CorrelationCostModel* planner_;
};

Catalog* ServingTest::catalog_ = nullptr;
Workload* ServingTest::workload_ = nullptr;
DesignContext* ServingTest::context_ = nullptr;
CorrelationCostModel* ServingTest::planner_ = nullptr;

// ---------- Smoke: bit-identity and deterministic counters ----------

// Queries served through a shared pass return results bit-identical to a
// solo QueryExecutor run: same aggregate bits, rows, simulated seconds and
// pages (the engine's determinism contract, docs/SERVING.md).
TEST_F(ServingTest, ServingSmokeSharedMatchesSoloBitIdentical) {
  const DatabaseDesign design = BaseOnlyDesign();
  ThreadPool pool(2);
  ServingOptions options;
  options.exec.pool = &pool;
  ServingEngine engine(context_, &design, *&workload_, planner_, options);

  // Duplicates of hot queries force >= 2-member groups; singles stay solo.
  std::vector<size_t> batch = {0, 1, 0, 2, 1, 0, 3, 2};
  auto futures = engine.SubmitBatch(batch);
  engine.Start();
  for (size_t i = 0; i < batch.size(); ++i) {
    ExpectMatchesSolo(engine, futures[i].get(), batch[i]);
  }
  engine.Stop();

  const ServingStats stats = engine.stats();
  EXPECT_EQ(stats.admitted, batch.size());
  EXPECT_EQ(stats.completed, batch.size());
  EXPECT_EQ(stats.shared_executed + stats.solo_executed, batch.size());
  EXPECT_GT(stats.shared_executed, 0u);
}

// With the batch admitted before Start, epoch composition is fixed, so the
// grouping counters are exact: the base-only design full-scans one object,
// so every query lands in ONE group regardless of query identity.
TEST_F(ServingTest, ServingSmokeGroupingCountersDeterministic) {
  const DatabaseDesign design = BaseOnlyDesign();
  ServingOptions options;
  options.deterministic = true;
  ServingEngine engine(context_, &design, workload_, planner_, options);

  auto futures = engine.SubmitBatch({0, 0, 0, 1});
  engine.Start();
  for (auto& f : futures) f.get();
  engine.Stop();

  const ServingStats stats = engine.stats();
  EXPECT_EQ(stats.epochs, 1u);
  EXPECT_EQ(stats.groups, 1u);
  EXPECT_EQ(stats.shared_executed, 4u);  // identical full-scan ranges
  EXPECT_EQ(stats.solo_executed, 0u);
  // 4 members but only 2 distinct queries: the duplicate tickets of query
  // 0 are answered from the representative's computation.
  EXPECT_EQ(stats.lookalike_hits, 2u);
}

// shared_scan=false is the A/B control: every ticket executes solo and the
// results are still bit-identical to reference runs.
TEST_F(ServingTest, ServingSmokeBatchingOffRunsAllSolo) {
  const DatabaseDesign design = BaseOnlyDesign();
  ServingOptions options;
  options.shared_scan = false;
  ServingEngine engine(context_, &design, workload_, planner_, options);

  std::vector<size_t> batch = {0, 0, 1, 1};
  auto futures = engine.SubmitBatch(batch);
  engine.Start();
  for (size_t i = 0; i < batch.size(); ++i) {
    ExpectMatchesSolo(engine, futures[i].get(), batch[i]);
  }
  engine.Stop();

  const ServingStats stats = engine.stats();
  EXPECT_EQ(stats.shared_executed, 0u);
  EXPECT_EQ(stats.solo_executed, batch.size());
  EXPECT_EQ(stats.groups, 0u);
}

// Submit blocks while the queue is at admission_capacity and resumes when
// the dispatcher drains; the high-water gauge records the full queue.
TEST_F(ServingTest, ServingSmokeAdmissionBackpressure) {
  const DatabaseDesign design = BaseOnlyDesign();
  ServingOptions options;
  options.admission_capacity = 4;
  ServingEngine engine(context_, &design, workload_, planner_, options);

  auto futures = engine.SubmitBatch({0, 1, 2, 3});  // fills the queue
  std::atomic<bool> fifth_admitted{false};
  std::thread blocked([&] {
    auto f = engine.Submit(0);  // blocks: queue full, engine not started
    fifth_admitted.store(true);
    f.get();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(fifth_admitted.load());

  engine.Start();  // dispatcher drains -> space -> the submit unblocks
  blocked.join();
  EXPECT_TRUE(fifth_admitted.load());
  for (auto& f : futures) f.get();
  engine.Stop();

  const ServingStats stats = engine.stats();
  EXPECT_EQ(stats.completed, 5u);
  EXPECT_EQ(stats.queue_depth_high_water, 4u);
}

// Deterministic mode: two engines fed the same stream produce identical
// results AND identical counters (unit execution is serialized in
// formation order).
TEST_F(ServingTest, ServingSmokeDeterministicModeReproducible) {
  const DatabaseDesign design = BaseOnlyDesign();
  const std::vector<size_t> stream =
      MakeLookalikeStream(workload_->queries.size(), 12, /*seed=*/7);

  auto run_once = [&](std::vector<TicketResult>* results) {
    ServingOptions options;
    options.deterministic = true;
    ServingEngine engine(context_, &design, workload_, planner_, options);
    auto futures = engine.SubmitBatch(stream);
    engine.Start();
    for (auto& f : futures) results->push_back(f.get());
    engine.Stop();
    return engine.stats();
  };
  std::vector<TicketResult> a, b;
  const ServingStats sa = run_once(&a);
  const ServingStats sb = run_once(&b);

  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].aggregate, b[i].aggregate);
    EXPECT_EQ(a[i].rows_output, b[i].rows_output);
    EXPECT_EQ(a[i].simulated_seconds, b[i].simulated_seconds);
    EXPECT_EQ(a[i].shared, b[i].shared);
    EXPECT_EQ(a[i].epoch, b[i].epoch);
  }
  EXPECT_EQ(sa.shared_executed, sb.shared_executed);
  EXPECT_EQ(sa.solo_executed, sb.solo_executed);
  EXPECT_EQ(sa.groups, sb.groups);
  EXPECT_EQ(sa.epochs, sb.epochs);
}

// Maintenance routed through the engine is split-invariant: batches
// submitted through SubmitMaintenance + FinishMaintenance cost exactly what
// one isolated SimulateInsertions run of the same total costs.
TEST_F(ServingTest, ServingSmokeMaintenanceMatchesIsolatedSimulation) {
  const DatabaseDesign design = BaseOnlyDesign();
  ServingEngine engine(context_, &design, workload_, planner_, {});

  MaintenanceOptions mopt;
  mopt.buffer_pool_pages = 500;
  const std::vector<MaintainedObject> objects =
      engine.DerivedMaintainedObjects();
  ASSERT_EQ(objects.size(), 1u);
  EXPECT_TRUE(objects[0].append_only);
  EXPECT_GT(objects[0].heap_pages, 0u);

  engine.ConfigureMaintenance(objects, mopt);
  engine.Start();
  engine.SubmitMaintenance(3000);
  engine.SubmitMaintenance(7000);
  const MaintenanceResult served = engine.FinishMaintenance();
  engine.Stop();

  MaintenanceOptions iso = mopt;
  iso.num_inserts = 10000;
  const MaintenanceResult isolated = SimulateInsertions(objects, iso);
  EXPECT_EQ(served.seconds, isolated.seconds);
  EXPECT_EQ(served.pages_written, isolated.pages_written);
  EXPECT_EQ(served.pool_misses, isolated.pool_misses);
  EXPECT_EQ(served.dirty_evictions, isolated.dirty_evictions);

  const ServingStats stats = engine.stats();
  EXPECT_EQ(stats.maintenance_batches, 2u);
  EXPECT_EQ(stats.maintenance_inserts, 10000u);
}

// Pins pooled serving across commits. Deterministic mode, an explicit
// thread pool and epoch cap (so epoch composition does not follow the
// host's core count), a fixed lookalike stream admitted in slices with
// maintenance batches between them, all queued before Start. The base heap
// takes random-position inserts with index pages, so writer epochs dirty
// pages the scans later evict. Folds every ticket's simulated-seconds bits,
// pool hits and pages read, plus the final pool counters, into one FNV-1a
// hash.
// Captured 2026-10-17 from the pool with a write-back disk, gcc 12 -O2.
constexpr uint64_t kGoldenPooledServing = 0x80344252541a3c37ull;

TEST_F(ServingTest, ServingSmokePooledGolden) {
  const DatabaseDesign design = BaseOnlyDesign();
  ThreadPool pool(2);
  ServingOptions options;
  options.deterministic = true;
  options.pool_fraction = 1.0;
  options.max_epoch_tickets = 8;
  options.exec.pool = &pool;
  ServingEngine engine(context_, &design, workload_, planner_, options);
  ASSERT_NE(engine.page_pool(), nullptr);

  std::vector<MaintainedObject> objects = engine.DerivedMaintainedObjects();
  ASSERT_EQ(objects.size(), 1u);
  objects[0].append_only = false;
  objects[0].index_pages = 64;
  MaintenanceOptions mopt;
  mopt.buffer_pool_pages = 200;
  engine.ConfigureMaintenance(objects, mopt);

  const std::vector<size_t> stream =
      MakeLookalikeStream(workload_->queries.size(), 48, /*seed=*/13);
  std::vector<std::future<TicketResult>> futures;
  for (size_t begin = 0; begin < stream.size(); begin += 12) {
    const std::vector<size_t> slice(stream.begin() + begin,
                                    stream.begin() + begin + 12);
    for (auto& f : engine.SubmitBatch(slice)) futures.push_back(std::move(f));
    engine.SubmitMaintenance(150);
  }
  engine.Start();
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (auto& f : futures) {
    const TicketResult r = f.get();
    mix(std::bit_cast<uint64_t>(r.simulated_seconds));
    mix(r.pool_hits);
    mix(r.pages_read);
  }
  engine.Stop();

  const BufferPoolStats s = engine.stats().pool;
  EXPECT_GT(s.hits, 0u);
  EXPECT_GT(s.evictions, 0u);
  EXPECT_GT(s.dirty_writebacks, 0u);
  for (const uint64_t v :
       {s.touches, s.hits, s.misses, s.evictions, s.dirty_writebacks}) {
    mix(v);
  }
  EXPECT_EQ(h, kGoldenPooledServing) << std::hex << "0x" << h;
}

// The pool accessor the engine sizes its epochs from: capacity counts
// workers + the caller.
TEST(ServingPoolTest, ParticipantAccessors) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.participant_capacity(), 4u);
}

// ---------- Stress: concurrency (full suite + TSan CI leg) ----------

// Eight closed-loop clients submitting concurrently: every future resolves
// exactly once, every result is bit-identical to its solo reference, and
// the engine's counters account for every ticket.
TEST_F(ServingTest, ServingStressExactlyOnceUnderConcurrentClients) {
  const DatabaseDesign design = BaseOnlyDesign();
  ThreadPool pool(4);
  ServingOptions options;
  options.admission_capacity = 16;  // keep backpressure in play
  options.exec.pool = &pool;
  ServingEngine engine(context_, &design, workload_, planner_, options);

  // Solo references, computed once up front.
  std::vector<QueryRunResult> solo(workload_->queries.size());
  for (size_t qi = 0; qi < solo.size(); ++qi) solo[qi] = engine.RunSolo(qi);

  constexpr size_t kClients = 8;
  constexpr size_t kPerClient = 25;
  engine.Start();
  std::atomic<uint64_t> delivered{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const std::vector<size_t> stream = MakeLookalikeStream(
          workload_->queries.size(), kPerClient, /*seed=*/1000 + c);
      for (size_t qi : stream) {
        const TicketResult r = engine.Submit(qi).get();
        EXPECT_EQ(r.aggregate, solo[qi].aggregate) << r.query_id;
        EXPECT_EQ(r.rows_output, solo[qi].rows_output) << r.query_id;
        EXPECT_EQ(r.simulated_seconds, solo[qi].seconds) << r.query_id;
        EXPECT_GT(r.latency_seconds, 0.0);
        delivered.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  engine.Stop();

  EXPECT_EQ(delivered.load(), kClients * kPerClient);
  const ServingStats stats = engine.stats();
  EXPECT_EQ(stats.admitted, kClients * kPerClient);
  EXPECT_EQ(stats.completed, kClients * kPerClient);
  EXPECT_EQ(stats.shared_executed + stats.solo_executed,
            kClients * kPerClient);
}

// Maintenance batches interleaved with concurrent readers: reads stay
// bit-identical to solo references (no torn aggregates across writer
// epochs) and the maintenance totals still equal the isolated simulation
// of the same insert total (writer epochs are exclusive and ordered).
TEST_F(ServingTest, ServingStressMaintenanceConcurrentWithReads) {
  const DatabaseDesign design = BaseOnlyDesign();
  ThreadPool pool(2);
  ServingOptions options;
  options.exec.pool = &pool;
  ServingEngine engine(context_, &design, workload_, planner_, options);

  MaintenanceOptions mopt;
  mopt.buffer_pool_pages = 500;
  const std::vector<MaintainedObject> objects =
      engine.DerivedMaintainedObjects();
  engine.ConfigureMaintenance(objects, mopt);

  std::vector<QueryRunResult> solo(workload_->queries.size());
  for (size_t qi = 0; qi < solo.size(); ++qi) solo[qi] = engine.RunSolo(qi);

  engine.Start();
  constexpr size_t kReaders = 4;
  constexpr size_t kPerReader = 20;
  std::vector<std::thread> readers;
  for (size_t c = 0; c < kReaders; ++c) {
    readers.emplace_back([&, c] {
      const std::vector<size_t> stream = MakeLookalikeStream(
          workload_->queries.size(), kPerReader, /*seed=*/2000 + c);
      for (size_t qi : stream) {
        const TicketResult r = engine.Submit(qi).get();
        EXPECT_EQ(r.aggregate, solo[qi].aggregate) << r.query_id;
        EXPECT_EQ(r.rows_output, solo[qi].rows_output) << r.query_id;
      }
    });
  }
  constexpr uint64_t kBatches = 5;
  constexpr uint64_t kPerBatch = 1000;
  for (uint64_t b = 0; b < kBatches; ++b) {
    engine.SubmitMaintenance(kPerBatch).get();
  }
  for (auto& t : readers) t.join();
  const MaintenanceResult served = engine.FinishMaintenance();
  engine.Stop();

  MaintenanceOptions iso = mopt;
  iso.num_inserts = kBatches * kPerBatch;
  const MaintenanceResult isolated = SimulateInsertions(objects, iso);
  EXPECT_EQ(served.seconds, isolated.seconds);
  EXPECT_EQ(served.pages_written, isolated.pages_written);

  const ServingStats stats = engine.stats();
  EXPECT_EQ(stats.completed, kReaders * kPerReader);
  EXPECT_EQ(stats.maintenance_batches, kBatches);
  EXPECT_EQ(stats.maintenance_inserts, kBatches * kPerBatch);
}

// The multi-client driver end to end: closed-loop clients over a started
// engine produce a coherent stats block (QPS, ordered percentiles, shared +
// solo accounting for every completion).
TEST_F(ServingTest, ServingStressClientDriverStats) {
  const DatabaseDesign design = BaseOnlyDesign();
  ServingEngine engine(context_, &design, workload_, planner_, {});
  engine.Start();

  std::vector<std::vector<size_t>> streams;
  for (size_t c = 0; c < 4; ++c) {
    streams.push_back(
        MakeLookalikeStream(workload_->queries.size(), 10, 3000 + c));
  }
  const ServingRunStats run = RunClients(&engine, streams);
  engine.Stop();

  EXPECT_EQ(run.completed, 40u);
  EXPECT_EQ(run.latencies.size(), 40u);
  EXPECT_EQ(run.shared + run.solo, 40u);
  EXPECT_GT(run.qps, 0.0);
  EXPECT_LE(run.p50_latency_seconds, run.p95_latency_seconds);
  EXPECT_LE(run.p95_latency_seconds, run.p99_latency_seconds);
}

// ---------- Shared buffer pool (engine-level) ----------

// Pooling changes COSTS, never RESULTS: with the engine's shared pool on,
// aggregates/rows/paths stay bit-identical to the cold solo reference, while
// simulated seconds may drop (warm pages are free). Pool counters must stay
// coherent, and pool_fraction sizing must quote the working set.
TEST_F(ServingTest, ServingSmokePooledResultsBitIdenticalToSolo) {
  const DatabaseDesign design = BaseOnlyDesign();
  ServingOptions options;
  options.pool_fraction = 0.25;
  ServingEngine engine(context_, &design, workload_, planner_, options);

  ASSERT_NE(engine.page_pool(), nullptr);
  const uint64_t ws = engine.WorkingSetPages();
  ASSERT_GT(ws, 0u);
  EXPECT_EQ(engine.page_pool()->capacity_pages(),
            std::max<uint64_t>(1, static_cast<uint64_t>(0.25 * ws)));

  const std::vector<size_t> batch = {0, 1, 0, 2, 1, 0, 3, 2};
  auto futures = engine.SubmitBatch(batch);
  engine.Start();
  for (size_t i = 0; i < batch.size(); ++i) {
    const TicketResult r = futures[i].get();
    const QueryRunResult want = engine.RunSolo(batch[i]);
    EXPECT_EQ(r.aggregate, want.aggregate) << r.query_id;
    EXPECT_EQ(r.rows_output, want.rows_output) << r.query_id;
    EXPECT_EQ(r.path, want.path) << r.query_id;
  }
  engine.Stop();

  const ServingStats stats = engine.stats();
  EXPECT_GT(stats.pool.touches, 0u);
  EXPECT_EQ(stats.pool.hits + stats.pool.misses, stats.pool.touches);
  EXPECT_LE(stats.pool.resident, engine.page_pool()->capacity_pages());
}

// An engine whose pool covers the whole working set serves a repeat of the
// same queries entirely from memory: the second pass costs exactly zero
// simulated seconds and reads zero pages — every touch is a pool hit.
TEST_F(ServingTest, ServingSmokePooledWarmRerunIsFree) {
  const DatabaseDesign design = BaseOnlyDesign();
  ServingOptions options;
  options.deterministic = true;
  // Capacity is split across the 8 automatic shards, so at EXACT
  // working-set fit the hash skew would overflow some shards and evict.
  // Eight working sets give every shard room for the whole working set
  // (docs/SERVING.md recommends slack when full residency matters).
  options.pool_fraction = 8.0;
  ServingEngine engine(context_, &design, workload_, planner_, options);
  ASSERT_NE(engine.page_pool(), nullptr);

  engine.Start();
  const std::vector<size_t> batch = {0, 2, 3};
  // Cold pass warms the pool (and must still cost real simulated time).
  for (auto& f : engine.SubmitBatch(batch)) {
    EXPECT_GT(f.get().simulated_seconds, 0.0);
  }
  // Warm pass: all resident, all free — and still bit-identical results.
  std::vector<std::future<TicketResult>> warm = engine.SubmitBatch(batch);
  for (size_t i = 0; i < batch.size(); ++i) {
    const TicketResult r = warm[i].get();
    EXPECT_EQ(r.simulated_seconds, 0.0) << r.query_id;
    EXPECT_EQ(r.pages_read, 0u) << r.query_id;
    EXPECT_GT(r.pool_hits, 0u) << r.query_id;
    const QueryRunResult want = engine.RunSolo(batch[i]);
    EXPECT_EQ(r.aggregate, want.aggregate) << r.query_id;
    EXPECT_EQ(r.rows_output, want.rows_output) << r.query_id;
  }
  engine.Stop();
}

// Pooled aggregates are bit-identical at ANY thread count: hit/miss
// interleavings (and therefore costs) may differ run to run, but results
// must not — the pool sits on the billing path only.
TEST_F(ServingTest, ServingSmokePooledResultsSameAtAnyThreadCount) {
  const DatabaseDesign design = BaseOnlyDesign();
  const std::vector<size_t> batch = {0, 1, 2, 3, 0, 1, 2, 3};

  std::vector<std::vector<double>> aggs;
  std::vector<std::vector<uint64_t>> rows;
  for (const size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    ServingOptions options;
    options.pool_pages = 64;
    options.exec.pool = &pool;
    ServingEngine engine(context_, &design, workload_, planner_, options);
    auto futures = engine.SubmitBatch(batch);
    engine.Start();
    std::vector<double> a;
    std::vector<uint64_t> n;
    for (auto& f : futures) {
      const TicketResult r = f.get();
      a.push_back(r.aggregate);
      n.push_back(r.rows_output);
    }
    engine.Stop();
    aggs.push_back(std::move(a));
    rows.push_back(std::move(n));
  }
  for (size_t i = 1; i < aggs.size(); ++i) {
    EXPECT_EQ(aggs[i], aggs[0]);  // bit-identical doubles
    EXPECT_EQ(rows[i], rows[0]);
  }
}

// The maintenance mirror writes the same dirtied PageKeys into the shared
// pool WITHOUT touching the simulator's own pool/disk/RNG, so the served
// maintenance cost still equals the isolated simulation exactly (ratio
// 1.000) even with pooling on.
TEST_F(ServingTest, ServingSmokePooledMaintenanceRatioStillExact) {
  const DatabaseDesign design = BaseOnlyDesign();
  ServingOptions options;
  options.pool_pages = 200;
  ServingEngine engine(context_, &design, workload_, planner_, options);
  ASSERT_NE(engine.page_pool(), nullptr);

  MaintenanceOptions mopt;
  mopt.buffer_pool_pages = 500;
  const std::vector<MaintainedObject> objects =
      engine.DerivedMaintainedObjects();
  engine.ConfigureMaintenance(objects, mopt);
  engine.Start();
  engine.SubmitMaintenance(3000);
  engine.SubmitMaintenance(7000);
  const MaintenanceResult served = engine.FinishMaintenance();
  engine.Stop();

  MaintenanceOptions iso = mopt;
  iso.num_inserts = 10000;
  const MaintenanceResult isolated = SimulateInsertions(objects, iso);
  EXPECT_EQ(served.seconds, isolated.seconds);
  EXPECT_EQ(served.pages_written, isolated.pages_written);
  EXPECT_EQ(served.pool_misses, isolated.pool_misses);
  EXPECT_EQ(served.dirty_evictions, isolated.dirty_evictions);
  // The mirror did reach the shared pool: writer epochs dirtied pages there.
  EXPECT_GT(engine.stats().pool.touches, 0u);
}

// Concurrent pooled scans + maintenance writer epochs: results stay
// bit-identical to solo references, the maintenance ratio stays exact, and
// the pool's write-back accounting survives the concurrency — draining it
// with FlushAll reports exactly the dirty pages it held, and the write-back
// counter moves by exactly that report.
TEST_F(ServingTest, ServingStressPooledScansVsMaintenanceWriter) {
  const DatabaseDesign design = BaseOnlyDesign();
  ThreadPool pool(4);
  ServingOptions options;
  options.pool_fraction = 0.5;
  options.exec.pool = &pool;
  ServingEngine engine(context_, &design, workload_, planner_, options);
  ASSERT_NE(engine.page_pool(), nullptr);

  MaintenanceOptions mopt;
  mopt.buffer_pool_pages = 500;
  const std::vector<MaintainedObject> objects =
      engine.DerivedMaintainedObjects();
  engine.ConfigureMaintenance(objects, mopt);

  std::vector<QueryRunResult> solo(workload_->queries.size());
  for (size_t qi = 0; qi < solo.size(); ++qi) solo[qi] = engine.RunSolo(qi);

  engine.Start();
  constexpr size_t kReaders = 4;
  constexpr size_t kPerReader = 20;
  std::vector<std::thread> readers;
  for (size_t c = 0; c < kReaders; ++c) {
    readers.emplace_back([&, c] {
      const std::vector<size_t> stream = MakeLookalikeStream(
          workload_->queries.size(), kPerReader, /*seed=*/4000 + c);
      for (size_t qi : stream) {
        const TicketResult r = engine.Submit(qi).get();
        EXPECT_EQ(r.aggregate, solo[qi].aggregate) << r.query_id;
        EXPECT_EQ(r.rows_output, solo[qi].rows_output) << r.query_id;
      }
    });
  }
  constexpr uint64_t kBatches = 5;
  constexpr uint64_t kPerBatch = 1000;
  for (uint64_t b = 0; b < kBatches; ++b) {
    engine.SubmitMaintenance(kPerBatch).get();
  }
  for (auto& t : readers) t.join();
  const MaintenanceResult served = engine.FinishMaintenance();
  engine.Stop();

  MaintenanceOptions iso = mopt;
  iso.num_inserts = kBatches * kPerBatch;
  const MaintenanceResult isolated = SimulateInsertions(objects, iso);
  EXPECT_EQ(served.seconds, isolated.seconds);
  EXPECT_EQ(served.pages_written, isolated.pages_written);

  // The mirror dirtied pages: each is still dirty or was written back.
  const BufferPoolStats before = engine.stats().pool;
  EXPECT_GT(before.resident_dirty + before.dirty_writebacks, 0u);
  const uint64_t flushed = engine.page_pool()->FlushAll();
  const ServingStats stats = engine.stats();
  EXPECT_EQ(stats.pool.hits + stats.pool.misses, stats.pool.touches);
  EXPECT_EQ(flushed, before.resident_dirty);
  EXPECT_EQ(stats.pool.resident_dirty, 0u);
  EXPECT_EQ(stats.pool.dirty_writebacks, before.dirty_writebacks + flushed);
  EXPECT_EQ(stats.completed, kReaders * kPerReader);
}

}  // namespace
}  // namespace coradd
