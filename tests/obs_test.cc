// Tests for src/obs: span tracer (nesting, thread attribution, ring-buffer
// overflow, Chrome trace JSON validity) and the metrics registry (counter /
// gauge / histogram correctness under multi-thread hammering), plus the
// determinism contract — a full design+evaluate pipeline is bit-identical
// with tracing on vs off. The BitIdentity test rebuilds an SSB fixture
// twice and is excluded from the obs_smoke ctest filter.
#include <gtest/gtest.h>

#include <cstdio>
#include <thread>
#include <vector>

#include "benchkit/json_parser.h"
#include "common/thread_pool.h"
#include "core/coradd_designer.h"
#include "core/evaluator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ssb/ssb.h"

namespace coradd {
namespace {

using benchkit::JsonValue;
using benchkit::ParseJson;

/// Restores a quiet tracer no matter how the test exits.
struct TracerGuard {
  TracerGuard() {
    obs::Tracer::Global().Stop();
    obs::Tracer::Global().Clear();
  }
  ~TracerGuard() {
    obs::Tracer::Global().Stop();
    obs::Tracer::Global().Clear();
  }
};

TEST(ObsTraceTest, DisabledByDefaultAndRecordsNothing) {
  TracerGuard guard;
  EXPECT_FALSE(obs::TraceEnabled());
  { TRACE_SPAN("test.noop", {{"k", 1}}); }
  EXPECT_EQ(obs::Tracer::Global().recorded_events(), 0u);
}

TEST(ObsTraceTest, SpanNestingAndArgs) {
  TracerGuard guard;
  obs::Tracer::Global().Start();
  {
    TRACE_SPAN_NAMED(outer, "test.outer", {{"n", 7}});
    outer.Arg("late", 42);
    { TRACE_SPAN("test.inner"); }
  }
  obs::Tracer::Global().Stop();
  EXPECT_EQ(obs::Tracer::Global().recorded_events(), 2u);

  const std::string json = obs::Tracer::Global().ToChromeTraceJson();
  const auto doc = ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* events = doc.value().Find("traceEvents");
  ASSERT_NE(events, nullptr);

  const JsonValue* outer_ev = nullptr;
  const JsonValue* inner_ev = nullptr;
  for (const JsonValue& e : events->AsArray()) {
    if (e.StringOr("name", "") == "test.outer") outer_ev = &e;
    if (e.StringOr("name", "") == "test.inner") inner_ev = &e;
  }
  ASSERT_NE(outer_ev, nullptr);
  ASSERT_NE(inner_ev, nullptr);
  EXPECT_EQ(outer_ev->StringOr("ph", ""), "X");
  EXPECT_EQ(outer_ev->StringOr("cat", ""), "test");
  const JsonValue* args = outer_ev->Find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->NumberOr("n", -1), 7);
  EXPECT_EQ(args->NumberOr("late", -1), 42);

  // Inner spans nest inside the outer [ts, ts+dur] window; ring order means
  // the inner (destroyed first) was recorded first.
  const double o_ts = outer_ev->NumberOr("ts", -1);
  const double o_dur = outer_ev->NumberOr("dur", -1);
  const double i_ts = inner_ev->NumberOr("ts", -1);
  const double i_dur = inner_ev->NumberOr("dur", -1);
  EXPECT_GE(i_ts, o_ts);
  EXPECT_LE(i_ts + i_dur, o_ts + o_dur + 0.002);  // 2us timestamp slack
}

TEST(ObsTraceTest, ThreadAttributionAndNames) {
  TracerGuard guard;
  obs::Tracer::Global().Start();
  obs::Tracer::SetCurrentThreadName("obs-test-main");
  { TRACE_SPAN("test.main_side"); }
  std::thread t([] {
    obs::Tracer::SetCurrentThreadName("obs-test-worker");
    TRACE_SPAN("test.worker_side");
  });
  t.join();
  obs::Tracer::Global().Stop();

  const auto doc = ParseJson(obs::Tracer::Global().ToChromeTraceJson());
  ASSERT_TRUE(doc.ok());
  const JsonValue* events = doc.value().Find("traceEvents");
  ASSERT_NE(events, nullptr);

  double main_tid = -1, worker_tid = -1;
  std::vector<std::string> thread_names;
  for (const JsonValue& e : events->AsArray()) {
    const std::string name = e.StringOr("name", "");
    if (name == "test.main_side") main_tid = e.NumberOr("tid", -1);
    if (name == "test.worker_side") worker_tid = e.NumberOr("tid", -1);
    if (name == "thread_name") {
      const JsonValue* args = e.Find("args");
      ASSERT_NE(args, nullptr);
      thread_names.push_back(args->StringOr("name", ""));
    }
  }
  EXPECT_GE(main_tid, 0);
  EXPECT_GE(worker_tid, 0);
  EXPECT_NE(main_tid, worker_tid);
  EXPECT_NE(std::find(thread_names.begin(), thread_names.end(),
                      "obs-test-main"),
            thread_names.end());
  EXPECT_NE(std::find(thread_names.begin(), thread_names.end(),
                      "obs-test-worker"),
            thread_names.end());
}

TEST(ObsTraceTest, RingBufferOverflowDropsOldest) {
  TracerGuard guard;
  obs::Tracer& tracer = obs::Tracer::Global();
  constexpr uint64_t kExtra = 100;
  const uint64_t total = obs::Tracer::kThreadBufferCapacity + kExtra;
  for (uint64_t i = 0; i < total; ++i) {
    obs::TraceEvent ev;
    ev.name = "test.flood";
    ev.ts_ns = i;
    ev.num_args = 1;
    ev.arg_keys[0] = "i";
    ev.arg_vals[0] = static_cast<int64_t>(i);
    tracer.Record(ev);
  }
  EXPECT_EQ(tracer.dropped_events(), kExtra);
  EXPECT_EQ(tracer.recorded_events(), obs::Tracer::kThreadBufferCapacity);

  // The survivors are exactly the newest capacity events.
  const auto doc = ParseJson(tracer.ToChromeTraceJson());
  ASSERT_TRUE(doc.ok());
  int64_t min_i = INT64_MAX, max_i = -1;
  size_t flood_events = 0;
  for (const JsonValue& e : doc.value().Find("traceEvents")->AsArray()) {
    if (e.StringOr("name", "") != "test.flood") continue;
    ++flood_events;
    const int64_t i = static_cast<int64_t>(e.Find("args")->NumberOr("i", -1));
    min_i = std::min(min_i, i);
    max_i = std::max(max_i, i);
  }
  EXPECT_EQ(flood_events, obs::Tracer::kThreadBufferCapacity);
  EXPECT_EQ(min_i, static_cast<int64_t>(kExtra));
  EXPECT_EQ(max_i, static_cast<int64_t>(total - 1));

  tracer.Clear();
  EXPECT_EQ(tracer.dropped_events(), 0u);
  EXPECT_EQ(tracer.recorded_events(), 0u);
}

TEST(ObsTraceTest, PoolSpansProduceValidJson) {
  TracerGuard guard;
  obs::Tracer::Global().Start();
  ThreadPool pool(4);
  pool.ParallelFor(64, [](size_t i) {
    TRACE_SPAN("test.pool_item", {{"i", static_cast<int64_t>(i)}});
  });
  pool.WaitIdle();
  obs::Tracer::Global().Stop();

  const auto doc = ParseJson(obs::Tracer::Global().ToChromeTraceJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* events = doc.value().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  size_t item_count = 0;
  for (const JsonValue& e : events->AsArray()) {
    // Every event carries the Chrome viewer's required fields.
    EXPECT_FALSE(e.StringOr("name", "").empty());
    const std::string ph = e.StringOr("ph", "");
    EXPECT_TRUE(ph == "X" || ph == "M");
    EXPECT_NE(e.Find("ts"), nullptr);
    EXPECT_NE(e.Find("pid"), nullptr);
    EXPECT_NE(e.Find("tid"), nullptr);
    if (ph == "X") {
      EXPECT_GE(e.NumberOr("dur", -1), 0);
    }
    if (e.StringOr("name", "") == "test.pool_item") ++item_count;
  }
  EXPECT_EQ(item_count, 64u);
}

TEST(ObsMetricsTest, CounterHammering) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter* c = reg.GetCounter("test.hammer_counter");
  ASSERT_NE(c, nullptr);
  c->Reset();
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c->Add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->Value(), kThreads * kPerThread);
  // Same name -> same object.
  EXPECT_EQ(reg.GetCounter("test.hammer_counter"), c);
}

#if GTEST_HAS_DEATH_TEST
TEST(ObsMetricsDeathTest, KindCollisionAborts) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("test.collision_counter");
  // Requesting an existing name as a different kind is a naming bug; the
  // registry aborts with a diagnostic rather than returning a pointer the
  // call site would blindly dereference.
  EXPECT_DEATH(reg.GetGauge("test.collision_counter"),
               "already registered");
}
#endif

TEST(ObsMetricsTest, HistogramHammering) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Histogram* h = reg.GetHistogram("test.hammer_hist");
  ASSERT_NE(h, nullptr);
  h->Reset();
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        h->Observe(static_cast<uint64_t>(t) * 1000 + (i % 100));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h->Count(), kThreads * kPerThread);
  EXPECT_EQ(h->Min(), 0u);      // thread 0 observes 0..99
  EXPECT_EQ(h->Max(), 7099u);   // thread 7's largest
  EXPECT_GT(h->Mean(), 0.0);
  // Power-of-two buckets: quantile upper bounds are exact within 2x.
  EXPECT_LE(h->Quantile(0.0), h->Quantile(1.0));
  EXPECT_GE(h->Quantile(1.0), 7099u);
  EXPECT_LE(h->Quantile(0.5), 2 * 7099u);
}

TEST(ObsMetricsTest, GaugeTracksValueAndHighWater) {
  obs::Gauge* g =
      obs::MetricsRegistry::Global().GetGauge("test.depth_gauge");
  ASSERT_NE(g, nullptr);
  g->Reset();
  g->Set(3);
  g->Set(17);
  g->Set(5);
  EXPECT_EQ(g->Value(), 5);
  EXPECT_EQ(g->Max(), 17);
  g->Add(-2);
  EXPECT_EQ(g->Value(), 3);
  EXPECT_EQ(g->Max(), 17);
}

TEST(ObsMetricsTest, SnapshotAndDump) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("test.snap_counter")->Add(5);
  reg.GetGauge("test.snap_gauge")->Set(9);
  reg.GetHistogram("test.snap_hist")->Observe(1234);

  const std::vector<obs::MetricSnapshot> snaps = reg.Snapshot();
  ASSERT_GE(snaps.size(), 3u);
  for (size_t i = 1; i < snaps.size(); ++i) {
    EXPECT_LT(snaps[i - 1].name, snaps[i].name);  // sorted by name
  }
  bool saw_counter = false;
  for (const auto& s : snaps) {
    if (s.name == "test.snap_counter") {
      saw_counter = true;
      EXPECT_EQ(s.kind, obs::MetricSnapshot::Kind::kCounter);
      EXPECT_GE(s.value, 5u);
    }
  }
  EXPECT_TRUE(saw_counter);

  const std::string dump = obs::DumpMetrics();
  EXPECT_NE(dump.find("test.snap_counter"), std::string::npos);
  EXPECT_NE(dump.find("test.snap_gauge"), std::string::npos);
  EXPECT_NE(dump.find("test.snap_hist"), std::string::npos);
  EXPECT_NE(dump.find("histogram"), std::string::npos);
}

TEST(ObsMetricsTest, ThreadPoolWorkerStats) {
  ThreadPool pool(3);
  std::atomic<uint64_t> sum{0};
  pool.ParallelFor(256, [&](size_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  pool.WaitIdle();
  EXPECT_EQ(sum.load(), 256u * 255u / 2);

  const auto stats = pool.worker_stats();
  ASSERT_EQ(stats.size(), 3u);
  uint64_t pool_tasks = 0;
  for (const auto& ws : stats) pool_tasks += ws.tasks_executed;
  // ParallelFor submits its helpers to the task queue, which only workers
  // drain: after WaitIdle every helper ran (and was counted) on a worker.
  EXPECT_GT(pool_tasks, 0u);
  EXPECT_GT(pool.queue_depth_high_water(), 0u);
}

TEST(ObsMetricsTest, SharedPoolRegistersMetrics) {
  ThreadPool::Shared().ParallelFor(64, [](size_t) {});
  ThreadPool::Shared().WaitIdle();
  bool saw_worker_metric = false;
  for (const auto& s : obs::MetricsRegistry::Global().Snapshot()) {
    if (s.name.rfind("thread_pool.shared.", 0) == 0) saw_worker_metric = true;
  }
  EXPECT_TRUE(saw_worker_metric);
}

// ---------- Determinism: tracing observes, never steers ----------

struct PipelineResult {
  std::vector<std::string> object_names;
  std::vector<int> object_for_query;
  double expected_seconds = 0.0;
  uint64_t object_bytes = 0;
  double run_total_seconds = 0.0;
  std::vector<double> per_query_aggregates;
};

PipelineResult RunTinyPipeline() {
  ssb::SsbOptions options;
  options.scale_factor = 0.002;
  auto catalog = ssb::MakeCatalog(options);
  Workload workload = ssb::MakeWorkload();
  StatsOptions sopt;
  sopt.sample_rows = 2048;
  sopt.disk.page_size_bytes = 1024;
  DesignContext context(catalog.get(), workload, sopt);

  CoraddOptions copt;
  copt.candidates.grouping.alphas = {0.0, 0.5};
  copt.candidates.grouping.restarts = 1;
  copt.feedback.max_iterations = 1;
  CoraddDesigner designer(&context, copt);
  const DatabaseDesign design = designer.Design(workload, 8ull << 20);

  DesignEvaluator evaluator(&context, /*max_resident=*/16);
  const WorkloadRunResult run =
      evaluator.Run(design, workload, designer.model());

  PipelineResult out;
  for (const auto& obj : design.objects) {
    out.object_names.push_back(obj.spec.name);
  }
  out.object_for_query = design.object_for_query;
  out.expected_seconds = design.expected_seconds;
  out.object_bytes = design.object_bytes;
  out.run_total_seconds = run.total_seconds;
  for (const auto& rec : run.per_query) {
    out.per_query_aggregates.push_back(rec.aggregate);
  }
  return out;
}

TEST(ObsBitIdentityTest, TraceOnVsOffIsBitIdentical) {
  TracerGuard guard;

  obs::Tracer::Global().Stop();
  const PipelineResult off = RunTinyPipeline();

  obs::Tracer::Global().Clear();
  obs::Tracer::Global().Start();
  const PipelineResult on = RunTinyPipeline();
  obs::Tracer::Global().Stop();
  EXPECT_GT(obs::Tracer::Global().recorded_events(), 0u);

  // Exact equality throughout — doubles compared bit-for-bit via ==.
  EXPECT_EQ(off.object_names, on.object_names);
  EXPECT_EQ(off.object_for_query, on.object_for_query);
  EXPECT_EQ(off.expected_seconds, on.expected_seconds);
  EXPECT_EQ(off.object_bytes, on.object_bytes);
  EXPECT_EQ(off.run_total_seconds, on.run_total_seconds);
  ASSERT_EQ(off.per_query_aggregates.size(), on.per_query_aggregates.size());
  for (size_t i = 0; i < off.per_query_aggregates.size(); ++i) {
    EXPECT_EQ(off.per_query_aggregates[i], on.per_query_aggregates[i]) << i;
  }
}

}  // namespace
}  // namespace coradd
