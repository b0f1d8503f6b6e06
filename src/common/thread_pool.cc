#include "common/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace coradd {

ThreadPool::ThreadPool(size_t num_threads, std::string name)
    : name_(std::move(name)) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  worker_slots_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    auto slot = std::make_unique<WorkerSlot>();
    if (!name_.empty()) {
      auto& registry = obs::MetricsRegistry::Global();
      const std::string prefix =
          StrFormat("thread_pool.%s.w%zu.", name_.c_str(), i);
      slot->registry_tasks = registry.GetCounter(prefix + "tasks");
      slot->registry_busy_ns = registry.GetCounter(prefix + "busy_ns");
    }
    worker_slots_.push_back(std::move(slot));
  }
  if (!name_.empty()) {
    registry_queue_depth_ = obs::MetricsRegistry::Global().GetGauge(
        StrFormat("thread_pool.%s.queue_depth", name_.c_str()));
  }
  scheduler_ = std::make_unique<sched::Scheduler>(this, num_threads, name_);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  WaitIdle();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    const size_t depth = queue_.size();
    // Published under mu_ so concurrent Submits can't lose a higher
    // high-water value or publish depths out of order (Submit is the only
    // writer of queue_hwm_, so a load+store suffices while serialized).
    if (depth > queue_hwm_.load(std::memory_order_relaxed)) {
      queue_hwm_.store(depth, std::memory_order_relaxed);
    }
    if (registry_queue_depth_ != nullptr) {
      registry_queue_depth_->Set(static_cast<int64_t>(depth));
    }
  }
  queue_cv_.notify_one();
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::RunTimed(const std::function<void()>& task,
                          WorkerSlot* slot) {
  // Busy-ns accounting costs two clock reads per task; tasks here are
  // chunky ParallelFor drains, so that is noise.
  TRACE_SPAN("thread_pool.task");
  const auto t0 = std::chrono::steady_clock::now();
  task();
  const uint64_t ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  slot->tasks.fetch_add(1, std::memory_order_relaxed);
  slot->busy_ns.fetch_add(ns, std::memory_order_relaxed);
  if (slot->registry_tasks != nullptr) {
    slot->registry_tasks->Add(1);
    slot->registry_busy_ns->Add(ns);
  }
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  if (!name_.empty()) {
    obs::Tracer::SetCurrentThreadName(
        StrFormat("%s-worker-%zu", name_.c_str(), worker_index));
  }
  scheduler_->BindWorkerThread(worker_index);
  WorkerSlot* slot = worker_slots_[worker_index].get();
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    RunTimed(task, slot);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  // The one inline rule: a single index or a single worker leaves nothing
  // to spread, so the caller runs the loop itself.
  if (n <= 1 || workers_.size() == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  TRACE_SPAN("thread_pool.parallel_for",
             {{"n", static_cast<int64_t>(n)}});
  // The scheduler packs ranges into 32-bit bounds; a longer loop (nothing
  // in the pipeline comes near) runs as consecutive scheduler loops.
  constexpr size_t kMaxLoop = UINT32_MAX;
  for (size_t base = 0; base < n; base += kMaxLoop) {
    const size_t len = std::min(kMaxLoop, n - base);
    if (base == 0) {
      scheduler_->ParallelFor(len, fn);
    } else {
      scheduler_->ParallelFor(len, [&](size_t i) { fn(base + i); });
    }
  }
}

std::vector<ThreadPool::WorkerStats> ThreadPool::worker_stats() const {
  std::vector<WorkerStats> out;
  out.reserve(worker_slots_.size());
  for (const auto& slot : worker_slots_) {
    out.push_back(
        WorkerStats{slot->tasks.load(std::memory_order_relaxed),
                    slot->busy_ns.load(std::memory_order_relaxed)});
  }
  return out;
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool(
      [] {
        if (const char* env = std::getenv("CORADD_THREADS")) {
          const long v = std::strtol(env, nullptr, 10);
          if (v > 0) return static_cast<size_t>(v);
        }
        return static_cast<size_t>(0);  // one per hardware thread
      }(),
      "shared");
  return pool;
}

}  // namespace coradd
