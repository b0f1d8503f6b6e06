// Tests for the work-stealing scheduler behind ThreadPool::ParallelFor
// (common/scheduler.h): the determinism contract across thread counts,
// nest-safety when a stolen range starts its own ParallelFor,
// load rebalancing under planted 1000:1 skew (steals must actually happen,
// and no worker may sit idle behind the fat iterations), Chase–Lev deque
// semantics, and an 8-thread submit/steal stress that the TSan CI leg runs
// to hunt data races in the deques and the park/publish protocol.
//
// SchedulerStress* stays out of the smoke subset (scheduler_smoke ctest
// entry) — it trades a few seconds for interleaving coverage.
#include "common/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace coradd {
namespace {

using sched::ChaseLevDeque;
using sched::Range;

// A per-index value with enough floating-point structure that any
// reordering, double-execution, or dropped index changes bits somewhere.
double IndexValue(size_t i) {
  const double x = static_cast<double>(i + 1);
  return std::sqrt(x) * std::log(x + 1.0) + std::sin(x * 0.001);
}

// ---------- Determinism: bit-identity across thread counts ----------

TEST(SchedulerDeterminismTest, ReductionBitIdentity10k) {
  constexpr size_t kN = 10000;
  std::vector<double> reference(kN);
  for (size_t i = 0; i < kN; ++i) reference[i] = IndexValue(i);
  double reference_sum = 0.0;
  for (size_t i = 0; i < kN; ++i) reference_sum += reference[i];

  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    ThreadPool pool(threads);
    std::vector<double> out(kN, 0.0);
    pool.ParallelFor(kN, [&](size_t i) { out[i] = IndexValue(i); });
    // Exact bit equality per index, and the index-order merge is therefore
    // bit-identical too.
    EXPECT_EQ(out, reference) << "threads=" << threads;
    double sum = 0.0;
    for (size_t i = 0; i < kN; ++i) sum += out[i];
    EXPECT_EQ(sum, reference_sum) << "threads=" << threads;
  }
}

TEST(SchedulerDeterminismTest, EveryIndexRunsExactlyOnce) {
  constexpr size_t kN = 50000;
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(SchedulerDeterminismTest, DegenerateSizes) {
  ThreadPool pool(4);
  int zero_runs = 0;
  pool.ParallelFor(0, [&](size_t) { ++zero_runs; });
  EXPECT_EQ(zero_runs, 0);

  std::atomic<int> one_runs{0};
  pool.ParallelFor(1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    one_runs.fetch_add(1);
  });
  EXPECT_EQ(one_runs.load(), 1);

  // Fewer iterations than workers: every index still runs exactly once.
  std::vector<std::atomic<int>> hits(3);
  pool.ParallelFor(3, [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// ---------- Nesting: ParallelFor inside a stolen task ----------

TEST(SchedulerNestingTest, NestedParallelForInsideStolenRanges) {
  constexpr size_t kOuter = 24;
  constexpr size_t kInner = 64;
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  // Skew the outer loop (sleeps) so outer ranges are actually stolen by
  // idle workers, which then start nested loops from inside stolen tasks.
  pool.ParallelFor(kOuter, [&](size_t o) {
    std::this_thread::sleep_for(std::chrono::microseconds(o % 3 == 0 ? 500
                                                                     : 50));
    pool.ParallelFor(kInner, [&](size_t i) {
      hits[o * kInner + i].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (size_t k = 0; k < hits.size(); ++k) {
    ASSERT_EQ(hits[k].load(), 1) << "cell " << k;
  }
}

TEST(SchedulerNestingTest, NestedReductionBitIdentity) {
  constexpr size_t kOuter = 16;
  constexpr size_t kInner = 128;
  std::vector<double> reference(kOuter);
  for (size_t o = 0; o < kOuter; ++o) {
    double s = 0.0;
    for (size_t i = 0; i < kInner; ++i) s += IndexValue(o * kInner + i);
    reference[o] = s;
  }
  for (const size_t threads : {size_t{1}, size_t{8}}) {
    ThreadPool pool(threads);
    std::vector<double> out(kOuter, 0.0);
    pool.ParallelFor(kOuter, [&](size_t o) {
      std::vector<double> inner(kInner);
      pool.ParallelFor(kInner, [&](size_t i) {
        inner[i] = IndexValue(o * kInner + i);
      });
      double s = 0.0;
      for (size_t i = 0; i < kInner; ++i) s += inner[i];
      out[o] = s;
    });
    EXPECT_EQ(out, reference) << "threads=" << threads;
  }
}

// ---------- Skew: planted 1000:1 load without idle-worker starvation ----

TEST(SchedulerSkewTest, PlantedSkewRebalancesViaStealing) {
  // 256 iterations; a chunk-sized burst of 8 fat iterations (5 ms) amid
  // cheap ones (5 us) — the planted 1000:1 skew. Under fixed chunking the
  // burst lands in one chunk and serializes (~40 ms on one worker while
  // the rest idle); the work-stealing path must decompose it across
  // workers, which shows up as a sub-serial wall time and nonzero
  // steal/split counters.
  constexpr size_t kN = 256;
  constexpr size_t kBurstBegin = 120;
  constexpr size_t kBurstEnd = 128;
  constexpr auto kFat = std::chrono::milliseconds(5);
  constexpr auto kCheap = std::chrono::microseconds(5);
  const double serial_seconds =
      static_cast<double>(kBurstEnd - kBurstBegin) * 0.005 +
      static_cast<double>(kN - (kBurstEnd - kBurstBegin)) * 0.000005;

  ThreadPool pool(8);
  const auto before = pool.scheduler_stats();
  std::vector<std::atomic<int>> hits(kN);
  const auto t0 = std::chrono::steady_clock::now();
  pool.ParallelFor(kN, [&](size_t i) {
    if (i >= kBurstBegin && i < kBurstEnd) {
      std::this_thread::sleep_for(kFat);
    } else {
      std::this_thread::sleep_for(kCheap);
    }
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1);
  const auto after = pool.scheduler_stats();
  EXPECT_GT(after.steals, before.steals)
      << "skewed load completed without a single steal";
  EXPECT_GT(after.splits, before.splits);
  // The burst must not serialize: with sleep-based iterations even a
  // single-core host overlaps the fat waits once they are distributed, so
  // anything close to the serial sum means the rebalancing failed.
  EXPECT_LT(wall, 0.9 * serial_seconds)
      << "wall " << wall << "s vs serial " << serial_seconds << "s";
}

// ---------- Chase–Lev deque unit coverage ----------

TEST(ChaseLevDequeTest, LifoOwnerFifoThief) {
  ChaseLevDeque dq;
  EXPECT_TRUE(dq.Empty());
  EXPECT_TRUE(dq.Push(Range{0, 10}));
  EXPECT_TRUE(dq.Push(Range{10, 20}));
  EXPECT_TRUE(dq.Push(Range{20, 30}));
  EXPECT_FALSE(dq.Empty());

  // Thief takes the oldest (largest-by-convention) range.
  Range r;
  ASSERT_EQ(dq.Steal(&r), ChaseLevDeque::StealResult::kStolen);
  EXPECT_EQ(r.lo, 0u);
  EXPECT_EQ(r.hi, 10u);

  // Owner pops newest first.
  ASSERT_TRUE(dq.PopBottom(&r));
  EXPECT_EQ(r.lo, 20u);
  ASSERT_TRUE(dq.PopBottom(&r));
  EXPECT_EQ(r.lo, 10u);
  EXPECT_FALSE(dq.PopBottom(&r));
  EXPECT_EQ(dq.Steal(&r), ChaseLevDeque::StealResult::kEmpty);
  EXPECT_TRUE(dq.Empty());
}

TEST(ChaseLevDequeTest, CapacityBoundsPush) {
  ChaseLevDeque dq;
  uint32_t pushed = 0;
  while (dq.Push(Range{pushed, pushed + 1})) ++pushed;
  EXPECT_EQ(pushed, ChaseLevDeque::kCapacity);
  // Draining one slot makes room again.
  Range r;
  ASSERT_TRUE(dq.PopBottom(&r));
  EXPECT_TRUE(dq.Push(Range{pushed, pushed + 1}));
}

TEST(ChaseLevDequeTest, ConcurrentOwnerAndThievesLoseNothing) {
  // One owner pushes and pops while 3 thieves steal; every pushed range is
  // consumed exactly once. This is the deque-level race the TSan leg pins.
  constexpr uint32_t kRanges = 20000;
  ChaseLevDeque dq;
  std::atomic<uint64_t> consumed_sum{0};
  std::atomic<uint32_t> consumed_count{0};
  std::atomic<bool> done{false};

  auto consume = [&](Range r) {
    consumed_sum.fetch_add(r.lo, std::memory_order_relaxed);
    consumed_count.fetch_add(1, std::memory_order_relaxed);
  };

  std::vector<std::thread> thieves;
  for (int t = 0; t < 3; ++t) {
    thieves.emplace_back([&] {
      Range r;
      while (!done.load(std::memory_order_acquire)) {
        if (dq.Steal(&r) == ChaseLevDeque::StealResult::kStolen) consume(r);
      }
      while (dq.Steal(&r) == ChaseLevDeque::StealResult::kStolen) consume(r);
    });
  }

  uint64_t expected_sum = 0;
  for (uint32_t i = 0; i < kRanges; ++i) {
    expected_sum += i;
    while (!dq.Push(Range{i, i + 1})) {
      Range r;
      if (dq.PopBottom(&r)) consume(r);
    }
    if ((i & 7) == 0) {
      Range r;
      if (dq.PopBottom(&r)) consume(r);
    }
  }
  Range r;
  while (dq.PopBottom(&r)) consume(r);
  done.store(true, std::memory_order_release);
  for (auto& th : thieves) th.join();

  EXPECT_EQ(consumed_count.load(), kRanges);
  EXPECT_EQ(consumed_sum.load(), expected_sum);
}

// ---------- Stress: 8-thread submit/steal mix (TSan target) ----------

TEST(SchedulerStressTest, SubmitAndParallelForMix8Threads) {
  ThreadPool pool(8);
  constexpr int kExternalThreads = 4;
  constexpr int kLoopsPerThread = 40;
  constexpr size_t kN = 512;
  std::atomic<uint64_t> iteration_count{0};
  std::atomic<uint64_t> submitted_count{0};

  std::vector<std::thread> external;
  for (int t = 0; t < kExternalThreads; ++t) {
    external.emplace_back([&] {
      for (int l = 0; l < kLoopsPerThread; ++l) {
        pool.ParallelFor(kN, [&](size_t i) {
          iteration_count.fetch_add(1, std::memory_order_relaxed);
          if (i % 97 == 0) std::this_thread::yield();
        });
        if (l % 5 == 0) {
          pool.Submit([&] {
            submitted_count.fetch_add(1, std::memory_order_relaxed);
          });
        }
      }
    });
  }
  for (auto& th : external) th.join();
  pool.WaitIdle();

  EXPECT_EQ(iteration_count.load(),
            static_cast<uint64_t>(kExternalThreads) * kLoopsPerThread * kN);
  EXPECT_EQ(submitted_count.load(),
            static_cast<uint64_t>(kExternalThreads) * (kLoopsPerThread / 5));
}

TEST(SchedulerStressTest, NestedSkewedLoopsUnderContention) {
  ThreadPool pool(8);
  constexpr int kRounds = 6;
  std::atomic<uint64_t> cells{0};
  for (int round = 0; round < kRounds; ++round) {
    pool.ParallelFor(16, [&](size_t o) {
      if (o % 5 == 0) std::this_thread::sleep_for(std::chrono::microseconds(200));
      pool.ParallelFor(64, [&](size_t) {
        cells.fetch_add(1, std::memory_order_relaxed);
      });
    });
  }
  EXPECT_EQ(cells.load(), static_cast<uint64_t>(kRounds) * 16 * 64);
}

}  // namespace
}  // namespace coradd
