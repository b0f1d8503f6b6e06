#include "storage/buffer_pool.h"

#include <algorithm>

#include "common/status.h"
#include "obs/metrics.h"

namespace coradd {

SharedBufferPool::SharedBufferPool(const BufferPoolOptions& options)
    : capacity_(options.capacity_pages), policy_(options.policy) {
  CORADD_CHECK(capacity_ > 0);
  size_t n = options.num_shards != 0
                 ? options.num_shards
                 : static_cast<size_t>(std::min<uint64_t>(8, capacity_));
  // Every shard needs at least one page of capacity.
  n = static_cast<size_t>(std::min<uint64_t>(n, capacity_));

  auto& reg = obs::MetricsRegistry::Global();
  obs_touches_ = reg.GetCounter("bufferpool.touches");
  obs_hits_ = reg.GetCounter("bufferpool.hits");
  obs_misses_ = reg.GetCounter("bufferpool.misses");
  obs_evictions_ = reg.GetCounter("bufferpool.evictions");
  obs_dirty_writebacks_ = reg.GetCounter("bufferpool.dirty_writebacks");

  const uint64_t base = capacity_ / n;
  const uint64_t rem = capacity_ % n;
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->capacity = base + (i < rem ? 1 : 0);
    shard->probation_target = std::max<uint64_t>(1, shard->capacity / 4);
    const std::string prefix =
        "bufferpool." + options.name + ".s" + std::to_string(i) + ".";
    shard->obs_hits = reg.GetCounter(prefix + "hits");
    shard->obs_misses = reg.GetCounter(prefix + "misses");
    shard->obs_evictions = reg.GetCounter(prefix + "evictions");
    shards_.push_back(std::move(shard));
  }
}

PageTouch SharedBufferPool::Read(PageKey key) {
  return Touch(key, /*dirty=*/false);
}

PageTouch SharedBufferPool::Write(PageKey key) {
  return Touch(key, /*dirty=*/true);
}

PageTouch SharedBufferPool::Touch(PageKey key, bool dirty) {
  Shard& shard = *shards_[ShardOf(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  ++shard.counters.touches;
  obs_touches_->Add();
  PageTouch out;

  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    FrameList::iterator f = it->second;
    if (dirty && !f->dirty) {
      f->dirty = true;
      ++shard.counters.resident_dirty;
    }
    if (policy_ == EvictionPolicy::kTwoQ && f->probation) {
      // Second touch: promote out of probation into the protected segment.
      f->probation = false;
      shard.main.splice(shard.main.begin(), shard.probation, f);
    } else {
      shard.main.splice(shard.main.begin(), shard.main, f);
    }
    ++shard.counters.hits;
    shard.obs_hits->Add();
    obs_hits_->Add();
    out.hit = true;
    return out;
  }

  ++shard.counters.misses;
  shard.obs_misses->Add();
  obs_misses_->Add();
  const bool probation = policy_ == EvictionPolicy::kTwoQ;
  FrameList& target = probation ? shard.probation : shard.main;
  target.push_front(Frame{key, dirty, probation});
  shard.map[key] = target.begin();
  ++shard.counters.resident;
  if (dirty) ++shard.counters.resident_dirty;
  if (shard.counters.resident > shard.capacity) {
    out.writebacks = EvictOne(&shard);
  }
  return out;
}

uint64_t SharedBufferPool::EvictOne(Shard* shard) {
  FrameList* list = &shard->main;
  // kTwoQ: probation at (or above) target — a scan recycles its own window.
  // Below target, the protected segment gives a page back.
  if (policy_ == EvictionPolicy::kTwoQ &&
      (shard->probation.size() >= shard->probation_target ||
       shard->main.empty())) {
    list = &shard->probation;
  }
  const Frame victim = list->back();
  shard->map.erase(victim.key);
  list->pop_back();
  --shard->counters.resident;
  ++shard->counters.evictions;
  shard->obs_evictions->Add();
  obs_evictions_->Add();
  if (!victim.dirty) return 0;
  --shard->counters.resident_dirty;
  ++shard->counters.dirty_writebacks;
  obs_dirty_writebacks_->Add();
  return 1;
}

uint64_t SharedBufferPool::FlushAll() {
  uint64_t written = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (FrameList* list : {&shard->main, &shard->probation}) {
      for (Frame& frame : *list) frame.dirty = false;
    }
    written += shard->counters.resident_dirty;
    shard->counters.dirty_writebacks += shard->counters.resident_dirty;
    shard->counters.resident_dirty = 0;
  }
  obs_dirty_writebacks_->Add(written);
  return written;
}

BufferPoolStats SharedBufferPool::stats() const {
  BufferPoolStats total;
  for (size_t i = 0; i < shards_.size(); ++i) {
    const BufferPoolStats s = shard_stats(i);
    total.touches += s.touches;
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
    total.dirty_writebacks += s.dirty_writebacks;
    total.resident += s.resident;
    total.resident_dirty += s.resident_dirty;
  }
  return total;
}

BufferPoolStats SharedBufferPool::shard_stats(size_t s) const {
  CORADD_CHECK(s < shards_.size());
  const Shard& shard = *shards_[s];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.counters;
}

}  // namespace coradd
