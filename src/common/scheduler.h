// Work-stealing task scheduler for ThreadPool::ParallelFor: per-participant
// Chase–Lev deques (LIFO local push/pop, FIFO steal) driving a
// range-splitting loop in the style of parlaylib's lazy binary splitting.
//
// Each participant starts on one contiguous range of the iteration space.
// Before running the next iteration it checks — one relaxed load — whether
// the loop is under-saturated (fewer participants working than the loop
// could use); only then does it split the *unstarted upper half* of its
// range into its deque as a stealable subtask and continue on the lower
// half. Uniform loads therefore pay near-zero scheduling overhead (the
// saturation check fails, no atomics beyond one load per iteration), while
// skewed loads rebalance at iteration granularity: the split-before-run
// rule lets idle workers recursively decompose a fat range in microseconds
// instead of waiting for chunk boundaries.
//
// Worker lifecycle: pool workers participate via ordinary pool tasks and
// *return to the pool queue* when a loop has nothing claimable (so they can
// serve other loops); a later split re-summons one via Submit. The calling
// thread instead steals-then-parks: it hunts for claimable work and, when
// the loop's remainder is entirely in-flight on other threads, blocks on a
// condition variable until a split publishes new work or the loop
// finishes.
//
// Determinism contract (same as ThreadPool::ParallelFor has always had):
// fn(i) runs exactly once per index — initial ranges partition [0, n),
// splits refine the partition, and deque pop/steal transfer exclusive
// ownership via CAS — with writes confined to per-index state and callers
// merging by index. Which thread runs which index is scheduling-dependent;
// nothing about it can leak into results, so any thread count yields
// bit-identical output.
//
// Observability: split / steal / local-pop counts are kept per worker slot
// (mirrored to obs::MetricsRegistry as thread_pool.<name>.w<i>.* for named
// pools), aggregated pool-locally via Scheduler::stats(), and totalled
// process-wide under scheduler.* — all outside the determinism surface.
// Steal hunts show up as "thread_pool.steal" spans in traces.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace coradd {

class ThreadPool;

namespace obs {
class Counter;
}  // namespace obs

namespace sched {

/// Half-open iteration range [lo, hi). Bounds are 32-bit so a Range packs
/// into one 64-bit word: Chase–Lev buffer slots stay single lock-free
/// atomics, which keeps concurrent steal/overwrite tear-free (and TSan
/// clean). ThreadPool runs loops with n > UINT32_MAX — which nothing in the
/// pipeline comes near — as consecutive scheduler loops.
struct Range {
  uint32_t lo = 0;
  uint32_t hi = 0;
  uint32_t size() const { return hi - lo; }
};

/// Chase–Lev work-stealing deque over Ranges, fixed capacity. The owner
/// pushes/pops at the bottom (LIFO); thieves take from the top (FIFO), so
/// steals grab the oldest — largest — range. Capacity never binds in
/// practice: an owner's deque holds geometrically shrinking ranges, at most
/// ~log2(n) entries; on the impossible full case Push returns false and the
/// caller simply skips the split.
///
/// Synchronization follows Chase & Lev (SPAA'05) / Lê et al. (PPoPP'13)
/// with the standalone fences strengthened into seq_cst accesses on top_ /
/// bottom_: deque operations run once per *range*, not per iteration, so
/// the extra fence cost is noise, and TSan — which does not model
/// atomic_thread_fence — sees a provably clean history.
class ChaseLevDeque {
 public:
  static constexpr uint64_t kCapacity = 64;  // power of two, > log2(2^32)

  /// Owner only. False when full (caller skips the split).
  bool Push(Range r);

  /// Owner only. False when empty or a thief won the last element.
  bool PopBottom(Range* out);

  enum class StealResult {
    kStolen,  ///< *out holds the range
    kEmpty,   ///< nothing to take
    kLost     ///< lost a race with the owner or another thief; retry-worthy
  };
  /// Any thread.
  StealResult Steal(Range* out);

  /// Owner's cheap emptiness probe (used by the split heuristic).
  bool Empty() const;

 private:
  static uint64_t Pack(Range r) {
    return (static_cast<uint64_t>(r.hi) << 32) | r.lo;
  }
  static Range Unpack(uint64_t v) {
    return Range{static_cast<uint32_t>(v & 0xffffffffu),
                 static_cast<uint32_t>(v >> 32)};
  }

  std::atomic<uint64_t> top_{0};
  std::atomic<uint64_t> bottom_{0};
  std::atomic<uint64_t> buffer_[kCapacity] = {};
};

/// Pool-local scheduler activity, readable at any time (relaxed counters).
struct SchedulerStats {
  uint64_t steals = 0;      ///< ranges taken from another participant's deque
  uint64_t splits = 0;      ///< ranges halved into a stealable subtask
  uint64_t local_pops = 0;  ///< ranges popped back from the own deque
  uint64_t parks = 0;       ///< times a caller blocked waiting for work/finish
  uint64_t resummons = 0;   ///< helper tasks re-submitted after a split
};

/// The per-ThreadPool work-stealing engine. Owned by ThreadPool; callers go
/// through ThreadPool::ParallelFor.
class Scheduler {
 public:
  /// `pool` provides Submit() for helper tasks; `pool_name` (may be empty)
  /// scopes the per-worker registry counters exactly like the pool's own.
  Scheduler(ThreadPool* pool, size_t num_workers, const std::string& pool_name);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Runs fn(i) for every i in [0, n), work-stealing across the pool, and
  /// blocks until all iterations completed. The caller participates.
  /// Requires n <= UINT32_MAX (ThreadPool::ParallelFor splits longer loops).
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Binds the calling thread as pool worker `worker_index` so nested
  /// ParallelFors reuse its reserved deque slot. Called once per worker
  /// from ThreadPool::WorkerLoop.
  void BindWorkerThread(size_t worker_index);

  SchedulerStats stats() const;

 private:
  struct LoopState;

  /// One slot's counters, cache-line-isolated, optionally mirrored into the
  /// global metrics registry (named pools, worker slots only).
  struct alignas(64) SlotCounters {
    std::atomic<uint64_t> steals{0};
    std::atomic<uint64_t> splits{0};
    std::atomic<uint64_t> local_pops{0};
    obs::Counter* registry_steals = nullptr;
    obs::Counter* registry_splits = nullptr;
    obs::Counter* registry_local_pops = nullptr;
  };

  /// Deque slot of the current thread for this scheduler: its reserved
  /// worker slot, a claimed extra slot for external callers, or kNoSlot
  /// (participate without a deque: claim and run, never split).
  static constexpr size_t kNoSlot = static_cast<size_t>(-1);
  size_t AcquireSlot(LoopState& s) const;
  void ReleaseSlot(LoopState& s, size_t slot) const;

  /// Work-claiming protocol, in preference order.
  bool TryPopLocal(LoopState& s, size_t slot, Range* out);
  static bool TryClaimInitial(LoopState& s, Range* out);
  bool TrySteal(LoopState& s, size_t slot, Range* out);
  /// Hunts for claimable work once local sources are dry. Returns true with
  /// *out set on success; false when the loop finished (callers) or the
  /// hunt came up dry (helpers, which then return to the pool queue).
  bool HuntForWork(LoopState& s, size_t slot, bool is_caller, Range* out);

  /// Runs one range, lazily splitting its unstarted upper half whenever the
  /// loop is under-saturated and the slot's deque is empty.
  void RunRange(const std::shared_ptr<LoopState>& s, size_t slot, Range r);
  /// Claim-and-run loop of one participant; returns when the loop finished
  /// (callers) or nothing is claimable (helpers).
  void Participate(const std::shared_ptr<LoopState>& s, size_t slot,
                   bool is_caller);
  /// Helper-task body: participate, then hand the outstanding count back.
  void RunHelper(const std::shared_ptr<LoopState>& s);
  /// Post-split publication: bump the work version, wake parked callers,
  /// and re-summon a helper if some drained back to the pool.
  void PublishWork(const std::shared_ptr<LoopState>& s);
  static void FinishIterations(LoopState& s, size_t count);
  void SubmitHelper(const std::shared_ptr<LoopState>& s);

  SlotCounters& counters(size_t slot) {
    // Extra and no-deque slots account to the shared caller bucket (the
    // last SlotCounters entry); workers get their own.
    return *slots_[slot < num_workers_ ? slot : num_workers_];
  }

  ThreadPool* pool_;
  const size_t num_workers_;
  const size_t num_slots_;  ///< workers + extra caller slots
  std::vector<std::unique_ptr<SlotCounters>> slots_;  ///< workers + 1 shared
  std::atomic<uint64_t> parks_{0};
  std::atomic<uint64_t> resummons_{0};
};

}  // namespace sched
}  // namespace coradd
