#include "exec/maintenance.h"

#include <utility>

namespace coradd {

InsertionSimulator::InsertionSimulator(std::vector<MaintainedObject> objects,
                                       const MaintenanceOptions& options)
    : objects_(std::move(objects)),
      disk_(options.disk),
      pool_(BufferPoolOptions{.capacity_pages = options.buffer_pool_pages,
                              .num_shards = 1,
                              .policy = EvictionPolicy::kLru,
                              .name = "maintenance"}),
      rng_(options.seed) {}

void InsertionSimulator::DirtyPage(PageKey key) {
  const PageTouch touch = pool_.Write(key);
  if (!touch.hit) {  // read-modify-write: the page comes in first
    disk_.Seek();
    disk_.SequentialRead(1);
  }
  for (uint64_t i = 0; i < touch.writebacks; ++i) disk_.WritePage();
  dirty_evictions_ += touch.writebacks;
  if (mirror_ != nullptr) mirror_->Write(key);
}

void InsertionSimulator::ApplyInserts(uint64_t count) {
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t object_id = 0;
    for (const auto& obj : objects_) {
      ++object_id;
      if (obj.heap_pages == 0) continue;
      // Heap page the new row lands on.
      const uint64_t heap_page =
          obj.append_only ? obj.heap_pages - 1 : rng_.Uniform(obj.heap_pages);
      DirtyPage(PageKey{object_id, heap_page});
      // One leaf page of each secondary structure (PK index, dense B+Tree)
      // is dirtied per insert as well.
      if (obj.index_pages > 0) {
        DirtyPage(PageKey{object_id | kIndexPageObjectFlag,
                          rng_.Uniform(obj.index_pages)});
      }
    }
  }
  inserts_applied_ += count;
}

void InsertionSimulator::Flush() {
  const uint64_t written = pool_.FlushAll();
  for (uint64_t i = 0; i < written; ++i) disk_.WritePage();
}

MaintenanceResult InsertionSimulator::Totals() const {
  MaintenanceResult out;
  out.seconds = disk_.elapsed_seconds();
  out.dirty_evictions = dirty_evictions_;
  out.pool_misses = pool_.stats().misses;
  out.pages_written = disk_.pages_written();
  return out;
}

MaintenanceResult SimulateInsertions(
    const std::vector<MaintainedObject>& objects,
    const MaintenanceOptions& options) {
  InsertionSimulator sim(objects, options);
  sim.ApplyInserts(options.num_inserts);
  sim.Flush();
  return sim.Totals();
}

}  // namespace coradd
