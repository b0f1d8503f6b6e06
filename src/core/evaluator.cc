#include "core/evaluator.h"

#include <algorithm>
#include <unordered_set>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace coradd {

std::string ObjectSignature(const DesignedObject& obj) {
  std::string s = obj.spec.fact_table + "|" + Join(obj.spec.columns, ",") +
                  "|" + Join(obj.spec.clustered_key, ",") + "|";
  s += obj.spec.is_base ? "B" : (obj.spec.is_fact_recluster ? "R" : "M");
  for (const auto& cm : obj.cms) {
    s += "|cm:" + Join(cm.key_columns, ",") +
         StrFormat("/w%lld/p%u",
                   static_cast<long long>(cm.bucketing.key_bucket_width),
                   cm.bucketing.clustered_bucket_pages);
  }
  for (const auto& b : obj.btree_columns) s += "|bt:" + b;
  return s;
}

DesignEvaluator::DesignEvaluator(const DesignContext* context,
                                 size_t cache_capacity,
                                 ExecOptions exec_options)
    : context_(context),
      cache_capacity_(cache_capacity),
      exec_options_(exec_options) {
  CORADD_CHECK(context != nullptr);
}

WorkloadRunResult DesignEvaluator::Run(const DatabaseDesign& design,
                                       const Workload& workload,
                                       const CostModel& planner) {
  std::vector<WorkloadRunResult> out =
      RunMany({EvalJob{&design, &workload, &planner}});
  return std::move(out[0]);
}

std::vector<WorkloadRunResult> DesignEvaluator::RunMany(
    const std::vector<EvalJob>& jobs) {
  TRACE_SPAN("core.eval_many", {{"jobs", static_cast<int64_t>(jobs.size())}});
  static obs::Counter& jobs_run =
      *obs::MetricsRegistry::Global().GetCounter("core.eval_jobs");
  jobs_run.Add(jobs.size());
  // Chunk the sweep so at most ~cache_capacity_ distinct objects are
  // pinned at once — the memory bound the serial per-job path had.
  // Signatures are built once per (job, routed object), not per query.
  std::vector<std::vector<std::string>> job_sigs(jobs.size());
  for (size_t j = 0; j < jobs.size(); ++j) {
    CORADD_CHECK(jobs[j].design != nullptr && jobs[j].workload != nullptr);
    const DatabaseDesign& design = *jobs[j].design;
    std::vector<char> routed(design.objects.size(), 0);
    for (size_t qi = 0; qi < jobs[j].workload->queries.size(); ++qi) {
      const int oi = design.object_for_query[qi];
      CORADD_CHECK(oi >= 0 &&
                   static_cast<size_t>(oi) < design.objects.size());
      routed[static_cast<size_t>(oi)] = 1;
    }
    for (size_t oi = 0; oi < design.objects.size(); ++oi) {
      if (routed[oi]) {
        job_sigs[j].push_back(ObjectSignature(design.objects[oi]));
      }
    }
  }

  std::vector<WorkloadRunResult> out;
  out.reserve(jobs.size());
  const size_t cap = std::max<size_t>(cache_capacity_, 1);
  std::unordered_set<std::string> chunk_sigs;
  std::vector<EvalJob> chunk;
  const auto flush = [&] {
    if (chunk.empty()) return;
    for (auto& r : RunChunk(chunk)) out.push_back(std::move(r));
    chunk.clear();
    chunk_sigs.clear();
  };
  for (size_t j = 0; j < jobs.size(); ++j) {
    size_t added = 0;
    for (const auto& s : job_sigs[j]) {
      if (!chunk_sigs.count(s)) ++added;
    }
    if (!chunk.empty() && chunk_sigs.size() + added > cap) flush();
    chunk.push_back(jobs[j]);
    for (auto& s : job_sigs[j]) chunk_sigs.insert(std::move(s));
  }
  flush();
  return out;
}

std::vector<WorkloadRunResult> DesignEvaluator::RunChunk(
    const std::vector<EvalJob>& jobs) {
  // --- Resolve the object each (job, query) pair routes to. Distinct
  // objects (by structural signature) get one slot, in deterministic
  // first-appearance order; the slot's shared_ptr pins the object for the
  // whole run, so cache eviction can never pull it out from under a task.
  struct Slot {
    const DesignedObject* dobj = nullptr;
    std::string sig;
    std::shared_ptr<MaterializedObject> mat;
  };
  std::vector<Slot> slots;
  std::unordered_map<std::string, size_t> slot_of_sig;
  std::vector<std::vector<size_t>> slot_of(jobs.size());

  for (size_t j = 0; j < jobs.size(); ++j) {
    const EvalJob& job = jobs[j];
    CORADD_CHECK(job.design != nullptr && job.workload != nullptr &&
                 job.planner != nullptr);
    const size_t nq = job.workload->queries.size();
    // One signature per routed object of this job, built on first use.
    std::vector<std::string> sig_of_obj(job.design->objects.size());
    slot_of[j].resize(nq);
    for (size_t qi = 0; qi < nq; ++qi) {
      const int oi = job.design->object_for_query[qi];
      CORADD_CHECK(oi >= 0 &&
                   static_cast<size_t>(oi) < job.design->objects.size());
      const DesignedObject& dobj =
          job.design->objects[static_cast<size_t>(oi)];
      std::string& sig = sig_of_obj[static_cast<size_t>(oi)];
      if (sig.empty()) sig = ObjectSignature(dobj);
      auto [it, inserted] = slot_of_sig.emplace(sig, slots.size());
      if (inserted) {
        Slot s;
        s.dobj = &dobj;
        s.sig = sig;
        auto cit = cache_.find(sig);
        if (cit != cache_.end()) {
          s.mat = cit->second;
          ++cache_hits_;
        }
        slots.push_back(std::move(s));
      } else {
        // Would have been a cache hit in the serial per-query order too.
        ++cache_hits_;
      }
      slot_of[j][qi] = it->second;
    }
  }

  ThreadPool* pool = exec_options_.pool != nullptr ? exec_options_.pool
                                                   : &ThreadPool::Shared();

  // --- Materialize missing objects, concurrently (each is deterministic
  // and touches only shared read-only state: universe + stats).
  std::vector<size_t> missing;
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].mat == nullptr) missing.push_back(i);
  }
  const auto materialize = [&](size_t mi) {
    Slot& s = slots[missing[mi]];
    const Universe* universe =
        context_->UniverseForFact(s.dobj->spec.fact_table);
    CORADD_CHECK(universe != nullptr);
    Materializer materializer(universe, context_->stats_options().disk,
                              pool);
    s.mat = materializer.Materialize(s.dobj->spec, s.dobj->cms,
                                     s.dobj->btree_columns);
  };
  static obs::Counter& materializations =
      *obs::MetricsRegistry::Global().GetCounter("core.materializations");
  static obs::Counter& eval_cache_hits =
      *obs::MetricsRegistry::Global().GetCounter("core.eval_cache_hits");
  materializations.Add(missing.size());
  eval_cache_hits.Add(slots.size() - missing.size());
  if (missing.size() > 1 && pool->num_threads() > 1) {
    pool->ParallelFor(missing.size(), materialize);
  } else {
    for (size_t mi = 0; mi < missing.size(); ++mi) materialize(mi);
  }
  // Capacity 0 caches nothing: the slots alone pin objects for this call.
  for (size_t i : missing) {
    if (cache_capacity_ == 0) break;
    while (cache_.size() >= cache_capacity_) {
      cache_.erase(cache_order_.front());
      cache_order_.pop_front();
    }
    cache_[slots[i].sig] = slots[i].mat;
    cache_order_.push_back(slots[i].sig);
  }

  // --- Execute every (job, query) pair across the pool. Per-task DiskModel
  // keeps I/O accounting identical to the serial loop (cold per query, §7);
  // records land in preassigned slots, so scheduling never reorders them.
  struct TaskRef {
    uint32_t job = 0;
    uint32_t qi = 0;
  };
  std::vector<TaskRef> tasks;
  std::vector<WorkloadRunResult> out(jobs.size());
  for (size_t j = 0; j < jobs.size(); ++j) {
    out[j].per_query.resize(jobs[j].workload->queries.size());
    for (size_t qi = 0; qi < jobs[j].workload->queries.size(); ++qi) {
      tasks.push_back(TaskRef{static_cast<uint32_t>(j),
                              static_cast<uint32_t>(qi)});
    }
  }
  const auto run_task = [&](size_t t) {
    const EvalJob& job = jobs[tasks[t].job];
    const size_t qi = tasks[t].qi;
    const Query& q = job.workload->queries[qi];
    const DesignedObject& dobj =
        job.design
            ->objects[static_cast<size_t>(job.design->object_for_query[qi])];
    const MaterializedObject* mat =
        slots[slot_of[tasks[t].job][qi]].mat.get();

    QueryExecutor executor(&context_->registry(), job.planner, exec_options_);
    DiskModel disk(context_->stats_options().disk);  // cold per query (§7)
    const QueryRunResult run = executor.Run(q, *mat, &disk);

    QueryRunRecord& rec = out[tasks[t].job].per_query[qi];
    rec.query_id = q.id;
    rec.object_name = dobj.spec.name;
    rec.real_seconds = run.seconds;
    rec.expected_seconds = job.planner->Seconds(q, dobj.spec);
    rec.aggregate = run.aggregate;
    rec.rows_output = run.rows_output;
    rec.fragments = run.fragments;
    rec.path = run.path;
  };
  if (tasks.size() > 1 && pool->num_threads() > 1) {
    pool->ParallelFor(tasks.size(), run_task);
  } else {
    for (size_t t = 0; t < tasks.size(); ++t) run_task(t);
  }

  // --- Reduce in fixed (job, query) order.
  for (size_t j = 0; j < jobs.size(); ++j) {
    for (size_t qi = 0; qi < out[j].per_query.size(); ++qi) {
      const QueryRunRecord& rec = out[j].per_query[qi];
      const double freq = jobs[j].workload->queries[qi].frequency;
      out[j].total_seconds += rec.real_seconds * freq;
      out[j].expected_seconds += rec.expected_seconds * freq;
    }
  }
  return out;
}

}  // namespace coradd
