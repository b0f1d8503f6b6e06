// A small fixed-size worker pool shared by every parallel subsystem: the
// dependency miner partitions its candidate lattice across it, the query
// executor partitions large scans, and the design evaluator fans whole
// (design, query) evaluations out over it.
//
// ParallelFor runs on the work-stealing scheduler (common/scheduler.h): each
// participant starts on one contiguous range and lazily splits the
// unstarted half into a Chase–Lev deque only while idle workers exist, so
// uniform loads pay near-zero scheduling overhead and skewed loads
// rebalance at iteration granularity.
//
// ParallelFor is the only code that decides whether a loop runs in
// parallel. It runs the loop inline on the calling thread when n == 1 or
// the pool has one worker, so CORADD_THREADS=1 means one thread
// everywhere; callers never fork on the pool size themselves.
//
// ParallelFor is nest-safe: the calling thread participates in its own
// loop, and while blocked on stragglers it steals the loop's stealable
// subtasks and then parks on a condition variable. A worker that starts a
// nested ParallelFor therefore still makes progress even when every other
// worker is blocked in one — the deadlock that sinks naive fixed-size pools
// under nesting.
//
// Determinism contract: ParallelFor(n, fn) runs fn(i) exactly once per index
// with writes confined to per-index state; callers merge results in index
// order. Nothing about range scheduling leaks into results, so any pool
// size yields bit-identical output.
//
// Observability: a pool constructed with a name (the shared pool is
// "shared") registers per-worker tasks-executed / busy-ns counters, the
// scheduler's per-worker steal / split / local-pop counters, and a
// queue-depth high-water gauge in obs::MetricsRegistry. Worker task
// execution shows up as "thread_pool.task" spans and steal hunts as
// "thread_pool.steal" spans in traces.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/scheduler.h"

namespace coradd {

namespace obs {
class Counter;
class Gauge;
}  // namespace obs

/// Fixed set of worker threads consuming a FIFO task queue.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 = one per hardware thread, minimum 1).
  /// A non-empty `name` registers this pool's utilization metrics
  /// (`thread_pool.<name>.*`) in the global metrics registry; anonymous
  /// pools (tests pinning thread counts) keep local counters only.
  explicit ThreadPool(size_t num_threads = 0, std::string name = "");

  /// Drains outstanding tasks, then joins every worker.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues one task. Tasks must not throw.
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished.
  void WaitIdle();

  /// Runs fn(i) for every i in [0, n), spread across the pool, and blocks
  /// until all iterations complete. The caller participates (so a call
  /// from inside another ParallelFor still progresses); when n == 1 or the
  /// pool has one worker the caller runs every index itself, in order.
  /// Writers must target disjoint state per index.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Pool-local work-stealing activity (steals/splits/local pops/parks/
  /// re-summons), outside the determinism surface.
  sched::SchedulerStats scheduler_stats() const {
    return scheduler_->stats();
  }

  /// The process-wide pool, created on first use. Sized from the
  /// CORADD_THREADS environment variable when set to a positive integer,
  /// else one worker per hardware thread. Mining, execution, and evaluation
  /// all share it instead of churning their own pools.
  static ThreadPool& Shared();

  /// Per-worker utilization, readable at any time (relaxed counters).
  struct WorkerStats {
    uint64_t tasks_executed = 0;
    uint64_t busy_ns = 0;
  };
  std::vector<WorkerStats> worker_stats() const;
  /// Deepest the task queue has been since construction.
  size_t queue_depth_high_water() const {
    return queue_hwm_.load(std::memory_order_relaxed);
  }

  /// Threads a ParallelFor can recruit: every worker plus the calling
  /// thread, which always participates in its own loop.
  size_t participant_capacity() const { return workers_.size() + 1; }

 private:
  /// One worker's counters, cache-line-isolated so neighbors don't false-
  /// share, optionally mirrored into the global metrics registry.
  struct alignas(64) WorkerSlot {
    std::atomic<uint64_t> tasks{0};
    std::atomic<uint64_t> busy_ns{0};
    obs::Counter* registry_tasks = nullptr;    ///< named pools only
    obs::Counter* registry_busy_ns = nullptr;  ///< named pools only
  };

  void WorkerLoop(size_t worker_index);

  /// Times and runs one worker task, crediting `slot`.
  void RunTimed(const std::function<void()>& task, WorkerSlot* slot);

  std::string name_;
  std::unique_ptr<sched::Scheduler> scheduler_;  ///< created before workers_
  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<WorkerSlot>> worker_slots_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable queue_cv_;  ///< Signals workers: task or stop.
  std::condition_variable idle_cv_;   ///< Signals waiters: queue drained.
  size_t in_flight_ = 0;              ///< Tasks popped but not yet finished.
  bool stop_ = false;
  std::atomic<size_t> queue_hwm_{0};
  obs::Gauge* registry_queue_depth_ = nullptr;  ///< named pools only
};

}  // namespace coradd
