#include "core/evaluator.h"

#include <algorithm>
#include <unordered_map>

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

std::vector<const DesignedObject*> RouteObjects(
    const std::vector<EvalJob>& jobs,
    std::vector<std::vector<size_t>>* object_of) {
  // Signatures are built once per (job, routed object), not per query.
  std::vector<const DesignedObject*> objects;
  std::unordered_map<std::string, size_t> index_of_sig;
  object_of->assign(jobs.size(), {});
  for (size_t j = 0; j < jobs.size(); ++j) {
    const EvalJob& job = jobs[j];
    CORADD_CHECK(job.design != nullptr && job.workload != nullptr);
    const DatabaseDesign& design = *job.design;
    const size_t nq = job.workload->queries.size();
    CORADD_CHECK(design.object_for_query.size() >= nq);
    std::vector<std::string> sig_of_obj(design.objects.size());
    (*object_of)[j].resize(nq);
    for (size_t qi = 0; qi < nq; ++qi) {
      const int oi = design.object_for_query[qi];
      CORADD_CHECK(oi >= 0 && static_cast<size_t>(oi) < design.objects.size());
      const DesignedObject& dobj = design.objects[static_cast<size_t>(oi)];
      std::string& sig = sig_of_obj[static_cast<size_t>(oi)];
      if (sig.empty()) sig = ObjectSignature(dobj);
      auto [it, inserted] = index_of_sig.emplace(sig, objects.size());
      if (inserted) objects.push_back(&dobj);
      (*object_of)[j][qi] = it->second;
    }
  }
  return objects;
}

std::vector<std::unique_ptr<MaterializedObject>> MaterializeObjects(
    const DesignContext& context,
    const std::vector<const DesignedObject*>& objects, ThreadPool* pool) {
  // Each build is deterministic and reads only shared read-only state
  // (universe + stats), so the builds run concurrently.
  static obs::Counter& materializations =
      *obs::MetricsRegistry::Global().GetCounter("core.materializations");
  materializations.Add(objects.size());
  std::vector<std::unique_ptr<MaterializedObject>> out(objects.size());
  const auto materialize = [&](size_t i) {
    const DesignedObject& dobj = *objects[i];
    const Universe* universe = context.UniverseForFact(dobj.spec.fact_table);
    CORADD_CHECK(universe != nullptr);
    Materializer materializer(universe, context.stats_options().disk, pool);
    out[i] = materializer.Materialize(dobj.spec, dobj.cms, dobj.btree_columns);
  };
  pool->ParallelFor(objects.size(), materialize);
  return out;
}

DesignEvaluator::DesignEvaluator(const DesignContext* context,
                                 size_t max_resident,
                                 ExecOptions exec_options)
    : context_(context),
      max_resident_(std::max<size_t>(max_resident, 1)),
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
  std::vector<std::vector<size_t>> object_of;
  const std::vector<const DesignedObject*> objects =
      RouteObjects(jobs, &object_of);

  // Every (job, query) pair, grouped by object; (job, query) order within.
  struct TaskRef {
    uint32_t job = 0;
    uint32_t qi = 0;
    size_t object = 0;
  };
  std::vector<TaskRef> tasks;
  std::vector<WorkloadRunResult> out(jobs.size());
  for (size_t j = 0; j < jobs.size(); ++j) {
    CORADD_CHECK(jobs[j].planner != nullptr);
    out[j].per_query.resize(object_of[j].size());
    for (size_t qi = 0; qi < object_of[j].size(); ++qi) {
      tasks.push_back(TaskRef{static_cast<uint32_t>(j),
                              static_cast<uint32_t>(qi), object_of[j][qi]});
    }
  }
  std::stable_sort(tasks.begin(), tasks.end(),
                   [](const TaskRef& a, const TaskRef& b) {
                     return a.object < b.object;
                   });

  ThreadPool* pool = exec_options_.pool != nullptr ? exec_options_.pool
                                                   : &ThreadPool::Shared();
  // Walk the objects in runs of max_resident_: build the run, execute every
  // pair routed to it, drop it. Per-task DiskModel keeps I/O accounting
  // identical to the serial loop (cold per query, §7); records land in
  // preassigned slots, so neither runs nor scheduling reorder them.
  size_t t_begin = 0;
  for (size_t first = 0; first < objects.size(); first += max_resident_) {
    const size_t last = std::min(objects.size(), first + max_resident_);
    const std::vector<const DesignedObject*> resident(
        objects.begin() + first, objects.begin() + last);
    const std::vector<std::unique_ptr<MaterializedObject>> mats =
        MaterializeObjects(*context_, resident, pool);
    size_t t_end = t_begin;
    while (t_end < tasks.size() && tasks[t_end].object < last) ++t_end;
    const auto run_task = [&](size_t t) {
      const TaskRef& task = tasks[t_begin + t];
      const EvalJob& job = jobs[task.job];
      const Query& q = job.workload->queries[task.qi];
      const DesignedObject& dobj =
          job.design->objects[static_cast<size_t>(
              job.design->object_for_query[task.qi])];

      QueryExecutor executor(&context_->registry(), job.planner,
                             exec_options_);
      DiskModel disk(context_->stats_options().disk);  // cold per query (§7)
      const QueryRunResult run =
          executor.Run(q, *mats[task.object - first], &disk);

      QueryRunRecord& rec = out[task.job].per_query[task.qi];
      rec.query_id = q.id;
      rec.object_name = dobj.spec.name;
      rec.real_seconds = run.seconds;
      rec.expected_seconds = job.planner->Seconds(q, dobj.spec);
      rec.aggregate = run.aggregate;
      rec.rows_output = run.rows_output;
      rec.fragments = run.fragments;
      rec.path = run.path;
    };
    pool->ParallelFor(t_end - t_begin, run_task);
    t_begin = t_end;
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
