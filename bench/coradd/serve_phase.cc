#include "serve_phase.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "benchkit/stats.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "cost/correlation_cost_model.h"
#include "exec/maintenance.h"
#include "serving/serving.h"

namespace coradd::bench_coradd {

namespace {

using Clock = std::chrono::steady_clock;
using serving::ServingEngine;
using serving::ServingOptions;
using serving::ServingStats;
using serving::TicketResult;

/// Traffic before the measured window: fills the shared pool and lets the
/// first writer epochs and shared-scan groups form.
constexpr double kWarmupSeconds = 2.0;
/// One maintenance writer epoch every interval.
constexpr double kWriteIntervalSeconds = 0.1;
/// The insert simulator's own buffer pool, the same for the served run and
/// the isolated SimulateInsertions it is checked against.
constexpr uint64_t kMaintenancePoolPages = 2000;
/// Closed-loop clients cycle through a stream of this length.
constexpr size_t kClientStreamLength = 4096;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// One served query as the benchmark saw it; times in seconds since the
/// load started.
struct Sample {
  size_t query = 0;
  double due = 0.0;  ///< Open loop: its slot in the schedule. Closed: sent.
  double submit_begin = 0.0;
  double submit_end = 0.0;
  double done = 0.0;
  double ticket = 0.0;  ///< TicketResult::latency_seconds
  double simulated = 0.0;
};

/// One maintenance batch: due, sent, resolved.
struct WriteSample {
  double due = 0.0;
  double begin = 0.0;
  double done = 0.0;
};

/// Checks made on one load thread, merged into the Report after the join.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok && failed++ == 0) first_failure = what;
  }
  void MergeInto(Report* report, const std::string& what) const {
    report->Count(attempted, failed, what + ", first: " + first_failure);
  }
};

/// Waits for a served ticket and checks it against the reference answer.
void Collect(std::future<TicketResult>* future, const Query& query,
             const QueryRunResult& want, Sample* s, Tally* tally) {
  try {
    const TicketResult r = future->get();
    s->ticket = r.latency_seconds;
    s->simulated = r.simulated_seconds;
    tally->Check(r.query_id == query.id &&
                     std::bit_cast<uint64_t>(r.aggregate) ==
                         std::bit_cast<uint64_t>(want.aggregate) &&
                     r.rows_output == want.rows_output,
                 StrFormat("query %s served %.17g over %llu rows, solo "
                           "reference %.17g over %llu rows",
                           query.id.c_str(), r.aggregate,
                           static_cast<unsigned long long>(r.rows_output),
                           want.aggregate,
                           static_cast<unsigned long long>(want.rows_output)));
  } catch (const std::exception& e) {
    tally->Check(false, std::string("ticket broken: ") + e.what());
  }
}

/// The query stream: blocks of kMixBlock requests, each holding every query
/// the same number of times (weights 1/(q+1)^zipf_s, zipf_s = 0 uniform,
/// rounded by largest remainder; every query at least once) in its own
/// seeded order. Every seed then serves the same mix, and only the order
/// differs: with a mix drawn at random, the mean simulated cost of a query
/// served without the pool moved by 2-3% from seed to seed, and with this
/// one by 0.2%.
std::vector<size_t> MakeStream(size_t nq, size_t length, uint64_t seed,
                               double zipf_s) {
  constexpr size_t kMixBlock = 256;
  std::vector<double> share(nq);
  double total = 0.0;
  for (size_t q = 0; q < nq; ++q) {
    share[q] = std::pow(static_cast<double>(q + 1), -zipf_s);
    total += share[q];
  }
  std::vector<size_t> block;
  std::vector<std::pair<double, size_t>> remainders;
  for (size_t q = 0; q < nq; ++q) {
    const double want = kMixBlock * share[q] / total;
    block.insert(block.end(), static_cast<size_t>(want), q);
    remainders.emplace_back(want - std::floor(want), q);
  }
  std::stable_sort(
      remainders.begin(), remainders.end(),
      [](const auto& a, const auto& b) { return a.first > b.first; });
  for (size_t i = 0; block.size() < kMixBlock; ++i) {
    block.push_back(remainders[i].second);
  }

  Rng rng(seed);
  std::vector<size_t> stream;
  stream.reserve(length + kMixBlock);
  while (stream.size() < length) {
    for (size_t i = block.size() - 1; i > 0; --i) {
      std::swap(block[i], block[rng.Uniform(i + 1)]);
    }
    stream.insert(stream.end(), block.begin(), block.end());
  }
  stream.resize(length);
  return stream;
}

/// A request handed from the open-loop generator to its collector.
struct Pending {
  Sample sample;
  std::future<TicketResult> future;
};

}  // namespace

double Serve(const DesignContext& context, const DatabaseDesign& design,
             const Workload& workload, const WorkloadSpec& spec,
             uint64_t seed, double seconds, SpanRecorder* trace,
             Report* report) {
  const size_t nq = workload.queries.size();
  bool routed = design.object_for_query.size() == nq;
  for (size_t q = 0; routed && q < nq; ++q) {
    routed = design.object_for_query[q] >= 0;
  }
  if (!routed) {
    report->Check(false, "served design leaves a query without an object");
    return 0.0;
  }

  // --- Set-up: engine builds, then reference answers and solo times.
  const CorrelationCostModel planner(&context.registry());
  ServingOptions options;
  options.pool_fraction = spec.pool_fraction;
  std::unique_ptr<ServingEngine> engine;
  std::vector<double> build_seconds;
  for (int i = 0; i < kSetupRepeats; ++i) {
    engine.reset();
    const Clock::time_point t0 = Clock::now();
    engine = std::make_unique<ServingEngine>(&context, &design, &workload,
                                             &planner, options);
    build_seconds.push_back(Seconds(Clock::now() - t0));
  }

  // Reference passes: every query solo, kSetupRepeats times over.
  std::vector<QueryRunResult> reference(nq);
  std::vector<std::vector<double>> solo_runs(nq);
  std::vector<double> pass_seconds;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t_pass = Clock::now();
    for (size_t q = 0; q < nq; ++q) {
      const Clock::time_point t0 = Clock::now();
      const QueryRunResult r = engine->RunSolo(q);
      solo_runs[q].push_back(Seconds(Clock::now() - t0));
      if (i == 0) reference[q] = r;
      report->Check(std::bit_cast<uint64_t>(r.aggregate) ==
                            std::bit_cast<uint64_t>(reference[q].aggregate) &&
                        r.rows_output == reference[q].rows_output,
                    "solo runs of query " + workload.queries[q].id +
                        " disagree");
    }
    pass_seconds.push_back(Seconds(Clock::now() - t_pass));
  }
  std::vector<double> solo_seconds(nq);
  for (size_t q = 0; q < nq; ++q) {
    solo_seconds[q] = benchkit::Median(solo_runs[q]);
  }

  std::fprintf(stderr,
               "serving %zu objects, working set %llu pages, pool %llu "
               "pages\n",
               design.objects.size(),
               static_cast<unsigned long long>(engine->WorkingSetPages()),
               static_cast<unsigned long long>(
                   engine->page_pool() != nullptr
                       ? engine->page_pool()->capacity_pages()
                       : 0));

  MaintenanceOptions maintenance;
  maintenance.buffer_pool_pages = kMaintenancePoolPages;
  maintenance.seed = SubSeed(seed, kSeedMaintenance);
  maintenance.disk = context.stats_options().disk;
  const std::vector<MaintainedObject> maintained =
      engine->DerivedMaintainedObjects();
  engine->ConfigureMaintenance(maintained, maintenance);
  engine->Start();

  // --- Load: warm-up, then the measured window.
  const Clock::time_point origin = Clock::now();
  const auto at = [&](double s) {
    return origin + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(s));
  };
  const auto since = [&](Clock::time_point t) { return Seconds(t - origin); };
  const double window_begin = kWarmupSeconds;
  const double window_end = kWarmupSeconds + seconds;
  const double trace_offset = trace != nullptr ? trace->Seconds(origin) : 0.0;
  std::atomic<uint64_t> next_request{1};
  const auto record_spans = [&](const Sample& s, bool open_loop) {
    if (trace == nullptr) return;
    const uint64_t req = next_request.fetch_add(1);
    const double o = trace_offset;
    const int64_t root = trace->Add("request", o + s.due, o + s.done, -1, req);
    if (open_loop) {
      trace->Add("loadgen.lag", o + s.due, o + s.submit_begin, root, req);
    }
    trace->Add("serving.admit", o + s.submit_begin, o + s.submit_end, root,
               req);
    trace->Add("serving.ticket", o + s.submit_end, o + s.done, root, req);
  };

  // What the load threads fill in; declared before the threads, which
  // join on every exit path before any of it is destroyed.
  std::vector<std::vector<Sample>> samples;
  std::vector<Tally> tallies;
  std::vector<WriteSample> writes;
  Tally write_tally;
  uint64_t inserts = 0;
  // Open-loop hand-off from the generator to the collector.
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> pending;
  bool generating = true;
  std::vector<std::jthread> threads;
  const bool open_loop = spec.clients == 0;
  if (open_loop) {
    // One generator sends on a fixed schedule whatever the engine does; a
    // collector waits for the answers in sending order.
    samples.resize(1);
    tallies.resize(1);
    const size_t total =
        static_cast<size_t>(std::floor(window_end * spec.rate_qps));
    threads.emplace_back([&, total] {
      const std::vector<size_t> stream =
          MakeStream(nq, total, SubSeed(seed, kSeedQueryStream), spec.zipf_s);
      for (size_t i = 0; i < total; ++i) {
        Pending p;
        p.sample.query = stream[i];
        p.sample.due = static_cast<double>(i) / spec.rate_qps;
        std::this_thread::sleep_until(at(p.sample.due));
        p.sample.submit_begin = since(Clock::now());
        p.future = engine->Submit(p.sample.query);
        p.sample.submit_end = since(Clock::now());
        {
          std::lock_guard<std::mutex> lock(mu);
          pending.push_back(std::move(p));
        }
        cv.notify_one();
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        generating = false;
      }
      cv.notify_one();
    });
    threads.emplace_back([&] {
      for (;;) {
        Pending p;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return !pending.empty() || !generating; });
          if (pending.empty()) return;
          p = std::move(pending.front());
          pending.pop_front();
        }
        Sample& s = p.sample;
        Collect(&p.future, workload.queries[s.query], reference[s.query], &s,
                &tallies[0]);
        // The collector waits for answers in sending order, so when it sees
        // one can trail the answer itself; the engine's latency, counted
        // from when Submit queued the ticket, dates the completion instead.
        s.done = s.submit_end + s.ticket;
        record_spans(s, true);
        samples[0].push_back(s);
      }
    });
  } else {
    // Closed loop: each client sends its next query when the last answer
    // arrives.
    samples.resize(spec.clients);
    tallies.resize(spec.clients);
    for (size_t c = 0; c < spec.clients; ++c) {
      threads.emplace_back([&, c] {
        const std::vector<size_t> stream =
            MakeStream(nq, kClientStreamLength,
                       SubSeed(seed, kSeedClientStreams + c), spec.zipf_s);
        for (size_t i = 0;; ++i) {
          const double now = since(Clock::now());
          if (now >= window_end) break;
          Sample s;
          s.query = stream[i % stream.size()];
          s.due = s.submit_begin = now;
          std::future<TicketResult> future = engine->Submit(s.query);
          s.submit_end = since(Clock::now());
          Collect(&future, workload.queries[s.query], reference[s.query], &s,
                  &tallies[c]);
          s.done = since(Clock::now());
          record_spans(s, false);
          samples[c].push_back(s);
        }
      });
    }
  }

  // The maintenance writer: one insert batch per interval, each an
  // exclusive writer epoch, timed from its due time.
  threads.emplace_back([&] {
    for (size_t k = 0;; ++k) {
      WriteSample w;
      w.due = static_cast<double>(k) * kWriteIntervalSeconds;
      if (w.due >= window_end) break;
      std::this_thread::sleep_until(at(w.due));
      w.begin = since(Clock::now());
      try {
        engine->SubmitMaintenance(spec.inserts_per_batch).get();
        // Only a batch that ran counts toward the isolated comparison.
        inserts += spec.inserts_per_batch;
        write_tally.Check(true, "");
      } catch (const std::exception& e) {
        write_tally.Check(false, std::string("maintenance broken: ") +
                                     e.what());
      }
      w.done = since(Clock::now());
      if (trace != nullptr) {
        trace->Add("maintenance.write", trace_offset + w.due,
                   trace_offset + w.done, -1, next_request.fetch_add(1));
      }
      writes.push_back(w);
    }
  });

  const auto busy_ns = [] {
    uint64_t total = 0;
    for (const auto& w : ThreadPool::Shared().worker_stats()) {
      total += w.busy_ns;
    }
    return total;
  };
  std::this_thread::sleep_until(at(window_begin));
  const ServingStats s0 = engine->stats();
  const uint64_t busy0 = busy_ns();
  const double measured_begin = since(Clock::now());
  std::this_thread::sleep_until(at(window_end));
  const ServingStats s1 = engine->stats();
  const uint64_t busy1 = busy_ns();
  const double measured_end = since(Clock::now());
  for (std::jthread& t : threads) t.join();

  const MaintenanceResult served = engine->FinishMaintenance();
  engine->Stop();
  MaintenanceOptions isolated_options = maintenance;
  isolated_options.num_inserts = inserts;
  const MaintenanceResult isolated =
      SimulateInsertions(maintained, isolated_options);
  report->Check(served.seconds == isolated.seconds &&
                    served.pages_written == isolated.pages_written &&
                    served.dirty_evictions == isolated.dirty_evictions,
                StrFormat("served maintenance cost %.17g s is %.17g x the "
                          "isolated cost of the same %llu inserts",
                          served.seconds,
                          Ratio(served.seconds, isolated.seconds),
                          static_cast<unsigned long long>(inserts)));
  for (const Tally& t : tallies) t.MergeInto(report, "served answers");
  write_tally.MergeInto(report, "maintenance batches");

  // --- Metrics over the measured window.
  const auto in_window = [&](double t) {
    return t >= window_begin && t < window_end;
  };
  std::vector<double> latency, admit, ticket, wait, late, simulated;
  size_t completed = 0;  // answers that arrived while the stats window ran
  size_t backlog = 0;
  for (const std::vector<Sample>& per_thread : samples) {
    for (const Sample& s : per_thread) {
      if (s.done >= measured_begin && s.done < measured_end) ++completed;
      if (!in_window(s.due)) continue;
      if (s.done >= window_end) ++backlog;
      latency.push_back(s.done - s.due);
      admit.push_back(s.submit_end - s.submit_begin);
      ticket.push_back(s.ticket);
      wait.push_back(s.ticket - solo_seconds[s.query]);
      simulated.push_back(s.simulated);
      if (open_loop) late.push_back(s.submit_begin - s.due);
    }
  }
  std::vector<double> write_latency;
  for (const WriteSample& w : writes) {
    if (!in_window(w.due)) continue;
    write_latency.push_back(w.done - w.due);
    late.push_back(w.begin - w.due);
  }
  report->Check(!latency.empty() && !write_latency.empty(),
                "no query or write completed in the measured window");

  double pages = 0.0;
  for (const QueryRunResult& r : reference) {
    pages += static_cast<double>(r.pages_read);
  }
  const double sim_sum = [&] {
    double total = 0.0;
    for (double v : simulated) total += v;
    return total;
  }();
  const auto d = [](uint64_t after, uint64_t before) {
    return static_cast<double>(after - before);
  };
  const double queries = d(s1.completed, s0.completed);

  const double measured = measured_end - measured_begin;
  report->Set("serving.qps", static_cast<double>(completed) / measured, "1/s");
  report->Set("serving.latency_ms_p50", 1e3 * Percentile(latency, 0.50),
              "ms");
  report->Set("serving.latency_ms_p99", 1e3 * Percentile(latency, 0.99),
              "ms");
  report->Set("serving.sim_ms",
              1e3 * Ratio(sim_sum, static_cast<double>(simulated.size())),
              "sim_ms");
  report->Set("exec.solo_ms_p50", 1e3 * benchkit::Median(solo_seconds), "ms");
  report->Set("exec.solo_ms_max",
              1e3 * *std::max_element(solo_seconds.begin(), solo_seconds.end()),
              "ms");
  report->Set("exec.pages_per_query", pages / static_cast<double>(nq),
              "count");
  report->Set("serving.admit_ms_p99", 1e3 * Percentile(admit, 0.99), "ms");
  report->Set("serving.ticket_ms_p50", 1e3 * Percentile(ticket, 0.50), "ms");
  report->Set("serving.ticket_ms_p99", 1e3 * Percentile(ticket, 0.99), "ms");
  report->Set("serving.wait_ms_p50", 1e3 * Percentile(wait, 0.50), "ms");
  report->Set("serving.tickets_per_epoch",
              Ratio(queries, d(s1.epochs, s0.epochs)), "count");
  report->Set("serving.shared_frac",
              Ratio(d(s1.shared_executed, s0.shared_executed), queries),
              "ratio");
  report->Set("serving.dedup_ratio",
              Ratio(d(s1.lookalike_hits, s0.lookalike_hits),
                    d(s1.shared_executed, s0.shared_executed)),
              "ratio");
  report->Set("serving.group_size",
              Ratio(d(s1.shared_executed, s0.shared_executed),
                    d(s1.groups, s0.groups)),
              "count");
  report->Set("serving.queue_hwm",
              static_cast<double>(s1.queue_depth_high_water), "count");
  report->Set("storage.hit_rate",
              Ratio(d(s1.pool.hits, s0.pool.hits),
                    d(s1.pool.touches, s0.pool.touches)),
              "ratio");
  report->Set("storage.touches_per_query",
              Ratio(d(s1.pool.touches, s0.pool.touches), queries), "count");
  report->Set("storage.evictions_per_query",
              Ratio(d(s1.pool.evictions, s0.pool.evictions), queries),
              "count");
  report->Set("storage.dirty_writebacks",
              d(s1.pool.dirty_writebacks, s0.pool.dirty_writebacks), "count");
  report->Set("maintenance.write_ms_p50", 1e3 * Percentile(write_latency, 0.50),
              "ms");
  report->Set("maintenance.write_ms_p90", 1e3 * Percentile(write_latency, 0.90),
              "ms");
  report->Set("loadgen.late_p99_ms", 1e3 * Percentile(late, 0.99), "ms");
  report->Set("loadgen.backlog_end", static_cast<double>(backlog), "count");
  report->Set("common.serve_busy_frac",
              Ratio(1e-9 * d(busy1, busy0),
                    measured * static_cast<double>(
                                   ThreadPool::Shared().num_threads())),
              "ratio");

  return benchkit::Median(build_seconds) + benchkit::Median(pass_seconds);
}

}  // namespace coradd::bench_coradd
