#include "common/scheduler.h"

#include <algorithm>
#include <thread>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace coradd {
namespace sched {

namespace {

// Reserved deque slots for threads that are not workers of this pool (the
// external callers of top-level ParallelFors). When all are claimed,
// surplus externals participate in no-deque mode.
constexpr size_t kExtraSlots = 4;

// Dry sweeps (each a full scan of initial ranges + every deque, separated
// by a yield) a helper performs before returning to the pool queue. Small
// on purpose: a later split re-summons a helper, so lingering here only
// withholds the worker from other loops.
constexpr int kHelperDrySweeps = 4;

// Process-wide totals across every pool's scheduler, exported through
// --metrics / the obs_metrics BENCH JSON section. Outside the determinism
// surface like all registry metrics.
obs::Counter& GlobalSteals() {
  static obs::Counter& c =
      *obs::MetricsRegistry::Global().GetCounter("scheduler.steals");
  return c;
}
obs::Counter& GlobalSplits() {
  static obs::Counter& c =
      *obs::MetricsRegistry::Global().GetCounter("scheduler.splits");
  return c;
}
obs::Counter& GlobalLocalPops() {
  static obs::Counter& c =
      *obs::MetricsRegistry::Global().GetCounter("scheduler.local_pops");
  return c;
}
obs::Counter& GlobalParks() {
  static obs::Counter& c =
      *obs::MetricsRegistry::Global().GetCounter("scheduler.parks");
  return c;
}
obs::Counter& GlobalResummons() {
  static obs::Counter& c =
      *obs::MetricsRegistry::Global().GetCounter("scheduler.helper_resummons");
  return c;
}

// Which scheduler (if any) the current thread is a worker of, and its
// reserved slot there. A thread is a worker of at most one pool.
thread_local const Scheduler* tls_scheduler = nullptr;
thread_local size_t tls_worker_slot = 0;

}  // namespace

// ---------------------------------------------------------------------------
// ChaseLevDeque
// ---------------------------------------------------------------------------

bool ChaseLevDeque::Push(Range r) {
  const uint64_t b = bottom_.load(std::memory_order_seq_cst);
  const uint64_t t = top_.load(std::memory_order_seq_cst);
  if (b - t >= kCapacity) return false;
  buffer_[b % kCapacity].store(Pack(r), std::memory_order_relaxed);
  bottom_.store(b + 1, std::memory_order_seq_cst);
  return true;
}

bool ChaseLevDeque::PopBottom(Range* out) {
  uint64_t b = bottom_.load(std::memory_order_seq_cst);
  uint64_t t = top_.load(std::memory_order_seq_cst);
  if (b == t) return false;  // empty; only the owner advances bottom
  b -= 1;
  bottom_.store(b, std::memory_order_seq_cst);
  t = top_.load(std::memory_order_seq_cst);
  if (t > b) {  // a thief emptied the deque while we reserved
    bottom_.store(b + 1, std::memory_order_seq_cst);
    return false;
  }
  const uint64_t v = buffer_[b % kCapacity].load(std::memory_order_relaxed);
  if (t == b) {
    // Last element: race the thieves for it via the top CAS.
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_seq_cst)) {
      bottom_.store(b + 1, std::memory_order_seq_cst);
      return false;
    }
    bottom_.store(b + 1, std::memory_order_seq_cst);
  }
  *out = Unpack(v);
  return true;
}

ChaseLevDeque::StealResult ChaseLevDeque::Steal(Range* out) {
  uint64_t t = top_.load(std::memory_order_seq_cst);
  const uint64_t b = bottom_.load(std::memory_order_seq_cst);
  if (t >= b) return StealResult::kEmpty;
  // The slot read may be stale if the owner wrapped the buffer past t, but
  // a successful CAS on top_ proves it was not: an overwrite of slot
  // t % kCapacity requires top_ to have advanced beyond t first (the
  // owner's capacity check), which would fail the CAS. The slot itself is
  // an atomic word, so a discarded racy read is untorn and race-free.
  const uint64_t v = buffer_[t % kCapacity].load(std::memory_order_relaxed);
  if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                    std::memory_order_seq_cst)) {
    return StealResult::kLost;
  }
  *out = Unpack(v);
  return StealResult::kStolen;
}

bool ChaseLevDeque::Empty() const {
  return bottom_.load(std::memory_order_seq_cst) <=
         top_.load(std::memory_order_seq_cst);
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

/// Shared state of one ParallelFor invocation. Lives on a shared_ptr so a
/// helper task popped after the loop completed only touches the (finished)
/// flags and returns without dereferencing `fn`.
struct Scheduler::LoopState {
  size_t n = 0;
  const std::function<void(size_t)>* fn = nullptr;

  // The initial partition of [0, n): `initial_parts` near-equal contiguous
  // ranges, claimed in order through `initial_claim`.
  size_t initial_parts = 0;
  std::atomic<size_t> initial_claim{0};

  // Saturation: `active` counts participants currently executing a range;
  // `capacity` is how many the loop could use (helpers + the caller). A
  // runner splits only while active < capacity — i.e. an expected
  // participant is idle, hunting, or parked.
  std::atomic<int> active{0};
  int capacity = 0;

  int max_helpers = 0;
  std::atomic<int> helpers_outstanding{0};

  std::atomic<size_t> done{0};
  std::atomic<bool> finished{false};

  // Caller park protocol: a split bumps work_version and, when parked > 0,
  // notifies under park_mu. The waiter re-checks the version inside the
  // predicate, so a publication between its last dry sweep and the wait
  // can never be missed.
  std::atomic<uint64_t> work_version{0};
  std::atomic<int> parked{0};
  std::mutex park_mu;
  std::condition_variable park_cv;

  std::unique_ptr<ChaseLevDeque[]> deques;  ///< one per slot
  std::atomic<bool> extra_slot_used[kExtraSlots] = {};

  Range InitialRange(size_t idx) const {
    return Range{static_cast<uint32_t>(idx * n / initial_parts),
                 static_cast<uint32_t>((idx + 1) * n / initial_parts)};
  }
};

Scheduler::Scheduler(ThreadPool* pool, size_t num_workers,
                     const std::string& pool_name)
    : pool_(pool),
      num_workers_(num_workers),
      num_slots_(num_workers + kExtraSlots) {
  slots_.reserve(num_workers_ + 1);
  for (size_t i = 0; i <= num_workers_; ++i) {
    auto sc = std::make_unique<SlotCounters>();
    if (!pool_name.empty() && i < num_workers_) {
      auto& registry = obs::MetricsRegistry::Global();
      const std::string prefix =
          StrFormat("thread_pool.%s.w%zu.", pool_name.c_str(), i);
      sc->registry_steals = registry.GetCounter(prefix + "steals");
      sc->registry_splits = registry.GetCounter(prefix + "splits");
      sc->registry_local_pops = registry.GetCounter(prefix + "local_pops");
    }
    slots_.push_back(std::move(sc));
  }
}

Scheduler::~Scheduler() = default;

void Scheduler::BindWorkerThread(size_t worker_index) {
  tls_scheduler = this;
  tls_worker_slot = worker_index;
}

size_t Scheduler::AcquireSlot(LoopState& s) const {
  if (tls_scheduler == this) return tls_worker_slot;
  for (size_t i = 0; i < kExtraSlots; ++i) {
    if (!s.extra_slot_used[i].exchange(true, std::memory_order_acq_rel)) {
      return num_workers_ + i;
    }
  }
  return kNoSlot;
}

void Scheduler::ReleaseSlot(LoopState& s, size_t slot) const {
  if (slot != kNoSlot && slot >= num_workers_) {
    // An owner leaves only with an empty deque (it drains its own before
    // hunting), so the slot's deque is safely reusable.
    s.extra_slot_used[slot - num_workers_].store(false,
                                                 std::memory_order_release);
  }
}

bool Scheduler::TryPopLocal(LoopState& s, size_t slot, Range* out) {
  if (slot == kNoSlot) return false;
  if (!s.deques[slot].PopBottom(out)) return false;
  counters(slot).local_pops.fetch_add(1, std::memory_order_relaxed);
  SlotCounters& sc = counters(slot);
  if (sc.registry_local_pops != nullptr) sc.registry_local_pops->Add(1);
  GlobalLocalPops().Add(1);
  return true;
}

bool Scheduler::TryClaimInitial(LoopState& s, Range* out) {
  size_t idx = s.initial_claim.load(std::memory_order_relaxed);
  while (idx < s.initial_parts) {
    if (s.initial_claim.compare_exchange_weak(idx, idx + 1,
                                              std::memory_order_relaxed)) {
      *out = s.InitialRange(idx);
      return true;
    }
  }
  return false;
}

bool Scheduler::TrySteal(LoopState& s, size_t slot, Range* out) {
  // One sweep over every other slot's deque, restarted while any steal
  // merely lost a race (contention means work exists).
  for (;;) {
    bool lost = false;
    for (size_t i = 0; i < num_slots_; ++i) {
      if (i == slot) continue;
      switch (s.deques[i].Steal(out)) {
        case ChaseLevDeque::StealResult::kStolen: {
          SlotCounters& sc = counters(slot);
          sc.steals.fetch_add(1, std::memory_order_relaxed);
          if (sc.registry_steals != nullptr) sc.registry_steals->Add(1);
          GlobalSteals().Add(1);
          return true;
        }
        case ChaseLevDeque::StealResult::kLost:
          lost = true;
          break;
        case ChaseLevDeque::StealResult::kEmpty:
          break;
      }
    }
    if (!lost) return false;
  }
}

bool Scheduler::HuntForWork(LoopState& s, size_t slot, bool is_caller,
                            Range* out) {
  TRACE_SPAN("thread_pool.steal");
  int dry_sweeps = 0;
  uint64_t version = s.work_version.load(std::memory_order_seq_cst);
  while (!s.finished.load(std::memory_order_acquire)) {
    if (TryClaimInitial(s, out) || TrySteal(s, slot, out)) return true;
    const uint64_t now = s.work_version.load(std::memory_order_seq_cst);
    if (now != version) {
      version = now;
      dry_sweeps = 0;
      continue;
    }
    if (++dry_sweeps < kHelperDrySweeps) {
      std::this_thread::yield();
      continue;
    }
    if (!is_caller) return false;  // back to the pool queue; splits re-summon
    // Caller steal-then-park: the loop's remainder is entirely in-flight on
    // other threads. Block until a split publishes new work or the last
    // iteration completes. parked is bumped under park_mu and the predicate
    // re-reads work_version, so a concurrent publication cannot be missed.
    std::unique_lock<std::mutex> lock(s.park_mu);
    s.parked.fetch_add(1, std::memory_order_seq_cst);
    parks_.fetch_add(1, std::memory_order_relaxed);
    GlobalParks().Add(1);
    s.park_cv.wait(lock, [&] {
      return s.finished.load(std::memory_order_acquire) ||
             s.work_version.load(std::memory_order_seq_cst) != version;
    });
    s.parked.fetch_sub(1, std::memory_order_relaxed);
    version = s.work_version.load(std::memory_order_seq_cst);
    dry_sweeps = 0;
  }
  return false;
}

void Scheduler::FinishIterations(LoopState& s, size_t count) {
  if (count == 0) return;
  if (s.done.fetch_add(count, std::memory_order_acq_rel) + count == s.n) {
    s.finished.store(true, std::memory_order_release);
    // The empty critical section orders the store against a caller that is
    // between its predicate check and the wait sleep.
    { std::lock_guard<std::mutex> lock(s.park_mu); }
    s.park_cv.notify_all();
  }
}

void Scheduler::PublishWork(const std::shared_ptr<LoopState>& s) {
  s->work_version.fetch_add(1, std::memory_order_seq_cst);
  if (s->parked.load(std::memory_order_seq_cst) > 0) {
    { std::lock_guard<std::mutex> lock(s->park_mu); }
    s->park_cv.notify_all();
  }
  // If helpers drained back to the pool while work remained in-flight,
  // re-summon one for the range we just exposed.
  int outstanding = s->helpers_outstanding.load(std::memory_order_relaxed);
  while (outstanding < s->max_helpers) {
    if (s->helpers_outstanding.compare_exchange_weak(
            outstanding, outstanding + 1, std::memory_order_relaxed)) {
      resummons_.fetch_add(1, std::memory_order_relaxed);
      GlobalResummons().Add(1);
      SubmitHelper(s);
      break;
    }
  }
}

void Scheduler::RunRange(const std::shared_ptr<LoopState>& sp, size_t slot,
                         Range r) {
  LoopState& s = *sp;
  ChaseLevDeque* dq = slot == kNoSlot ? nullptr : &s.deques[slot];
  const std::function<void(size_t)>& fn = *s.fn;
  s.active.fetch_add(1, std::memory_order_relaxed);
  uint32_t cur = r.lo;
  uint32_t hi = r.hi;
  size_t completed = 0;
  while (cur < hi) {
    // Lazy binary split, checked *before* the next iteration runs: while
    // the loop is under-saturated and nothing of ours is already stealable,
    // expose the unstarted upper half. An idle thief can then recursively
    // halve it within microseconds — rebalancing never waits on a running
    // iteration to finish.
    if (hi - cur >= 2 && dq != nullptr &&
        s.active.load(std::memory_order_relaxed) < s.capacity &&
        dq->Empty()) {
      const uint32_t mid = cur + (hi - cur) / 2;
      if (dq->Push(Range{mid, hi})) {
        hi = mid;
        SlotCounters& sc = counters(slot);
        sc.splits.fetch_add(1, std::memory_order_relaxed);
        if (sc.registry_splits != nullptr) sc.registry_splits->Add(1);
        GlobalSplits().Add(1);
        PublishWork(sp);
      }
    }
    fn(cur);
    ++cur;
    ++completed;
  }
  s.active.fetch_sub(1, std::memory_order_relaxed);
  FinishIterations(s, completed);
}

void Scheduler::Participate(const std::shared_ptr<LoopState>& sp, size_t slot,
                            bool is_caller) {
  LoopState& s = *sp;
  for (;;) {
    Range r;
    if (TryPopLocal(s, slot, &r) || TryClaimInitial(s, &r)) {
      RunRange(sp, slot, r);
      continue;
    }
    if (s.finished.load(std::memory_order_acquire)) return;
    if (!HuntForWork(s, slot, is_caller, &r)) return;
    RunRange(sp, slot, r);
  }
}

void Scheduler::RunHelper(const std::shared_ptr<LoopState>& s) {
  if (!s->finished.load(std::memory_order_acquire)) {
    const size_t slot = AcquireSlot(*s);
    Participate(s, slot, /*is_caller=*/false);
    ReleaseSlot(*s, slot);
  }
  s->helpers_outstanding.fetch_sub(1, std::memory_order_release);
}

void Scheduler::SubmitHelper(const std::shared_ptr<LoopState>& s) {
  pool_->Submit([this, s] { RunHelper(s); });
}

void Scheduler::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  auto sp = std::make_shared<LoopState>();
  LoopState& s = *sp;
  s.n = n;
  s.fn = &fn;
  s.initial_parts = std::min(n, num_workers_ + 1);
  s.max_helpers = static_cast<int>(std::min(num_workers_, n - 1));
  s.capacity = s.max_helpers + 1;
  s.helpers_outstanding.store(s.max_helpers, std::memory_order_relaxed);
  s.deques = std::make_unique<ChaseLevDeque[]>(num_slots_);
  for (int i = 0; i < s.max_helpers; ++i) SubmitHelper(sp);
  const size_t slot = AcquireSlot(s);
  Participate(sp, slot, /*is_caller=*/true);
  ReleaseSlot(s, slot);
}

SchedulerStats Scheduler::stats() const {
  SchedulerStats out;
  for (const auto& sc : slots_) {
    out.steals += sc->steals.load(std::memory_order_relaxed);
    out.splits += sc->splits.load(std::memory_order_relaxed);
    out.local_pops += sc->local_pops.load(std::memory_order_relaxed);
  }
  out.parks = parks_.load(std::memory_order_relaxed);
  out.resummons = resummons_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace sched
}  // namespace coradd
