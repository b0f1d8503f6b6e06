// Microbenchmarks for the substrate hot paths: B+Tree range lookups,
// secondary-index lookups, fragment coalescing, AE estimation, k-means,
// and the simplex solver. These guard the designer runtime budget (§7.2
// reports CORADD at 7.5h on paper hardware; our reproduction must stay
// interactive).
//
// Runs on benchkit::MeasureThroughput (batch-doubling calibration, then
// warmup + N timed batches; samples are seconds per iteration), replacing
// the earlier google-benchmark binary so the micro numbers flow through
// the same schema-v2 BENCH_micro.json / bench_compare pipeline as every
// other bench. `--fast` drops the large-table sizes for smoke/CI runs.
//
// The obs_* cases measure the tracing/metrics substrate itself:
// obs_span_disabled is the cost every instrumented scope pays when tracing
// is off, and `--assert-span-ns=N` turns its mean into a hard gate (exit 1
// above N ns/span) — the obs_overhead_smoke ctest pins the <25 ns contract.
// `--only=<substr>` runs just the matching cases.
//
// The parallel_for_* cases time ThreadPool::ParallelFor's work-stealing
// scheduler (docs/SCHEDULER.md) on an 8-worker pool: a uniform spin loop
// (scheduling overhead only — the lazy-split check is one relaxed load per
// iteration) and a planted power-law-skewed loop (costs ~1/(n-i), heaviest
// last) where lazy binary splitting must rebalance. Sleep-based skewed
// iterations overlap regardless of host core count, so the imbalance
// signal survives 1-core CI runners; the bench-regress baseline gates both.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "ilp/lp.h"
#include "mv/kmeans.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/ae_estimator.h"
#include "storage/clustered_table.h"
#include "storage/layout.h"
#include "storage/secondary_index.h"

using namespace coradd;
using namespace coradd::bench;

namespace {

std::unique_ptr<ClusteredTable> MakeTable(size_t rows) {
  ColumnDef k1{"k1", ValueType::kInt, 4, {}};
  ColumnDef k2{"k2", ValueType::kInt, 4, {}};
  ColumnDef v{"v", ValueType::kInt, 4, {}};
  auto t = std::make_unique<Table>(Schema({k1, k2, v}), "t");
  Rng rng(1);
  t->Reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    t->AppendRow({static_cast<int64_t>(rng.Uniform(1000)),
                  static_cast<int64_t>(rng.Uniform(100)),
                  static_cast<int64_t>(rng.Uniform(1 << 20))});
  }
  return std::make_unique<ClusteredTable>(std::move(t),
                                          std::vector<int>{0, 1}, 8192);
}

/// Keeps the optimizer from discarding a computed result (the moral
/// equivalent of benchmark::DoNotOptimize).
template <typename T>
inline void Consume(T&& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

std::string HumanPerIter(double seconds) {
  if (seconds < 1e-6) return StrFormat("%.1f ns", seconds * 1e9);
  if (seconds < 1e-3) return StrFormat("%.2f us", seconds * 1e6);
  if (seconds < 1.0) return StrFormat("%.2f ms", seconds * 1e3);
  return StrFormat("%.3f s", seconds);
}

/// Case-name filter from --only=<substr>; empty matches everything.
std::string g_only;

bool CaseSelected(const std::string& name) {
  return g_only.empty() || name.find(g_only) != std::string::npos;
}

/// Measures one micro case and records it as a metric named `name` in the
/// shared BENCH_micro.json. Returns the per-repetition samples (empty when
/// the case was filtered out by --only) for downstream Welch comparisons.
template <typename Fn>
ThroughputResult RunCase(Harness& h, const std::string& name, Fn&& op) {
  if (!CaseSelected(name)) return ThroughputResult{};
  ThroughputOptions opts;
  opts.warmup = std::max(1, h.warmup());
  opts.repetitions = h.repetitions();
  const ThroughputResult r = MeasureThroughput(opts, op);
  const SampleStats s = Summarize(r.samples);
  PrintRow({name, HumanPerIter(s.mean),
            "±" + HumanPerIter(s.ci95_half),
            StrFormat("%.1f%%", 100.0 * s.rsd()),
            std::to_string(r.iterations)});
  h.json().MetricSamples(name, "s", r.samples, r.warmup_samples);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Harness h("micro", argc, argv);
  g_only = FlagValue(argc, argv, "only", "");
  const double assert_span_ns =
      FlagDouble(argc, argv, "assert-span-ns", 0.0);
  const size_t big_rows = h.fast() ? 100000 : 1000000;

  PrintHeader("substrate microbenchmarks (per-iteration, 95% CI)",
              {"case", "mean", "ci95", "rsd", "iters/batch"});

  // Table sizes: 100k always; the 1M variants only outside --fast (the
  // table build itself dominates smoke runtime).
  std::vector<size_t> table_rows = {100000};
  if (!h.fast()) table_rows.push_back(big_rows);
  for (const size_t rows : table_rows) {
    auto ct = MakeTable(rows);
    Rng rng(2);
    RunCase(h, StrFormat("clustered_equal_range_%zuk", rows / 1000), [&] {
      Consume(ct->EqualRange({static_cast<int64_t>(rng.Uniform(1000))}));
    });
    SecondaryBTreeIndex idx(ct.get(), 2);
    Rng rng2(3);
    RunCase(h, StrFormat("secondary_lookup_range_%zuk", rows / 1000), [&] {
      const int64_t lo = static_cast<int64_t>(rng2.Uniform(1 << 20));
      Consume(idx.LookupRange(lo, lo + 1000));
    });
  }
  for (const size_t n : {size_t{1000}, size_t{100000}}) {
    Rng rng(4);
    std::vector<uint64_t> pages;
    for (size_t i = 0; i < n; ++i) pages.push_back(rng.Uniform(100000));
    std::sort(pages.begin(), pages.end());
    RunCase(h, StrFormat("coalesce_pages_%zu", n),
            [&] { Consume(CoalescePages(pages, 4)); });
  }
  for (const size_t n : {size_t{1024}, size_t{8192}}) {
    Rng rng(5);
    std::vector<int64_t> sample;
    for (size_t i = 0; i < n; ++i) {
      sample.push_back(static_cast<int64_t>(rng.Uniform(5000)));
    }
    std::sort(sample.begin(), sample.end());
    RunCase(h, StrFormat("ae_estimate_%zu", n), [&] {
      const auto profile =
          SampleFrequencyProfile::FromSortedValues(sample, 10000000);
      Consume(EstimateDistinctAe(profile));
    });
  }
  for (const size_t dims : {size_t{40}, size_t{80}}) {
    Rng gen(6);
    std::vector<std::vector<double>> points;
    for (int i = 0; i < 52; ++i) {
      std::vector<double> p(dims);
      for (auto& x : p) x = gen.UniformDouble();
      points.push_back(std::move(p));
    }
    Rng rng(7);
    RunCase(h, StrFormat("kmeans_52x%zu", dims),
            [&] { Consume(KMeans(points, 8, &rng)); });
  }
  for (const int n : {30, 100}) {
    Rng rng(8);
    LinearProgram lp;
    lp.num_vars = n;
    for (int j = 0; j < n; ++j) {
      lp.objective.push_back(-1.0 - static_cast<double>(rng.Uniform(10)));
    }
    for (int i = 0; i < n / 2; ++i) {
      std::vector<double> row(static_cast<size_t>(n));
      for (auto& v : row) v = static_cast<double>(rng.Uniform(4));
      lp.AddRow(std::move(row), 40.0 + static_cast<double>(rng.Uniform(40)));
    }
    lp.upper_bounds.assign(static_cast<size_t>(n), 5.0);
    RunCase(h, StrFormat("simplex_small_%d", n),
            [&] { Consume(SolveLp(lp)); });
  }

  // --- ParallelFor on a dedicated 8-worker pool (the shared pool stays
  // untouched so CORADD_THREADS doesn't skew the numbers).
  {
    ThreadPool pool(8, "micro");

    // Uniform: 8192 identical ~40 ns spin bodies. The loop is bound by the
    // body; the scheduler may only add its one-relaxed-load split check on
    // top, which the bench-regress baseline gate pins.
    constexpr size_t kUniformN = 8192;
    auto spin_body = [](size_t i) {
      double acc = static_cast<double>(i) + 1.0;
      for (int k = 0; k < 16; ++k) acc = acc * 1.0000001 + 0.5;
      Consume(acc);
    };
    RunCase(h, "parallel_for_uniform",
            [&] { pool.ParallelFor(kUniformN, spin_body); });

    // Skewed: planted power-law sleep costs growing toward the end of the
    // range — cost(i) = max(3500/(n-i), 40) us over 256 iterations (~20 ms
    // total), the work-list-sorted-ascending-by-size shape: iterations
    // [248, 256) alone cost ~9.5 ms, which static chunking would serialize
    // on one worker while the rest sit idle. Lazy splitting publishes the
    // heavy *upper* half of a range before running the cheap half, so
    // thieves peel the tail apart down to single iterations and the wall
    // clock is bounded by the one 3.5 ms heaviest body. The 40 us floor
    // keeps every sleep above timer-slack noise. (Heaviest-*first* power
    // laws are the scheduler's worst case — the owner keeps the lower
    // half, so the head chain
    // serializes — which is exactly why the split rule gives away the
    // unstarted upper half: sorted work lists put the fat items at one end,
    // and the engine must win when that end is the stealable one.)
    constexpr size_t kSkewN = 256;
    std::vector<std::chrono::microseconds> cost(kSkewN);
    for (size_t i = 0; i < kSkewN; ++i) {
      cost[i] = std::chrono::microseconds(
          std::max<int64_t>(3500 / static_cast<int64_t>(kSkewN - i), 40));
    }
    auto skew_body = [&](size_t i) { std::this_thread::sleep_for(cost[i]); };
    RunCase(h, "parallel_for_skewed",
            [&] { pool.ParallelFor(kSkewN, skew_body); });
  }

  // --- Observability substrate costs. Tracing state is set explicitly per
  // case so the disabled number is the cost every instrumented scope in
  // the codebase pays during normal (untraced) runs.
  obs::Tracer::Global().Stop();
  const ThroughputResult disabled_r = RunCase(h, "obs_span_disabled", [] {
    TRACE_SPAN("micro.probe", {{"k", 1}});
    Consume(obs::TraceEnabled());
  });
  const double disabled_mean =
      disabled_r.samples.empty() ? 0.0 : Summarize(disabled_r.samples).mean;
  if (CaseSelected("obs_span_enabled")) {
    obs::Tracer::Global().Clear();
    obs::Tracer::Global().Start();
    RunCase(h, "obs_span_enabled", [] {
      TRACE_SPAN("micro.probe", {{"k", 1}});
      Consume(obs::TraceEnabled());
    });
    obs::Tracer::Global().Stop();
    obs::Tracer::Global().Clear();
  }
  {
    static obs::Counter& c =
        *obs::MetricsRegistry::Global().GetCounter("micro.probe_counter");
    RunCase(h, "obs_counter_inc", [] {
      c.Add(1);
      Consume(c);
    });
  }

  const int rc = h.Finish();
  if (rc != 0) return rc;
  if (assert_span_ns > 0.0 && CaseSelected("obs_span_disabled")) {
    // Sanitizer builds intercept every memory access; the contract is for
    // production builds, so the budget widens rather than gates noise.
    double budget_ns = assert_span_ns;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    budget_ns *= 20.0;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
    budget_ns *= 20.0;
#endif
#endif
    const double got_ns = disabled_mean * 1e9;
    if (got_ns > budget_ns) {
      std::fprintf(stderr,
                   "FAIL: disabled span costs %.1f ns/span, budget %.1f ns\n",
                   got_ns, budget_ns);
      return 1;
    }
    std::printf("disabled span %.1f ns/span within %.1f ns budget\n", got_ns,
                budget_ns);
  }
  return 0;
}
