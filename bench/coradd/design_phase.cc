#include "design_phase.h"

#include <chrono>
#include <cmath>
#include <map>
#include <string>
#include <utility>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/coradd_designer.h"
#include "core/evaluator.h"
#include "cost/correlation_cost_model.h"
#include "fixture.h"

namespace coradd::bench_coradd {

namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Everything two designs must agree on to count as the same design.
std::string Fingerprint(const DatabaseDesign& d) {
  std::string s = StrFormat("%a %llu|", d.expected_seconds,
                            static_cast<unsigned long long>(d.object_bytes));
  for (const DesignedObject& obj : d.objects) {
    s += MvSpecSignature(obj.spec);
    s += obj.spec.is_base ? "+base" : "";
    s += obj.spec.is_fact_recluster ? "+recluster" : "";
    for (const CmSpec& cm : obj.cms) {
      s += "|cm:" + Join(cm.key_columns, ",") +
           StrFormat("/%lld/%u/%llu",
                     static_cast<long long>(cm.bucketing.key_bucket_width),
                     cm.bucketing.clustered_bucket_pages,
                     static_cast<unsigned long long>(cm.est_size_bytes));
    }
    s += ";";
  }
  for (int o : d.object_for_query) s += std::to_string(o) + ",";
  return s;
}

/// One untraced pass: context, mining, DesignMany over the grid.
DesignRun DesignOnce(const Catalog* catalog, const Workload& workload,
                     bool mine) {
  DesignRun run;
  run.context =
      std::make_unique<DesignContext>(catalog, workload, BenchStatsOptions());
  if (mine) run.context->MineAllDependencies();
  const CoraddDesigner designer(run.context.get(), BenchDesignerOptions());
  run.budgets = BudgetGrid(FactHeapBytes(*run.context, workload));
  run.designs = designer.DesignMany(workload, run.budgets);
  return run;
}

bool SameDesigns(const std::vector<DatabaseDesign>& a,
                 const std::vector<DatabaseDesign>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (Fingerprint(a[i]) != Fingerprint(b[i])) return false;
  }
  return true;
}

struct PoolSnapshot {
  uint64_t busy_ns = 0;
  uint64_t steals = 0;
  uint64_t parks = 0;
};

PoolSnapshot SnapshotPool() {
  const ThreadPool& pool = ThreadPool::Shared();
  PoolSnapshot s;
  for (const ThreadPool::WorkerStats& w : pool.worker_stats()) {
    s.busy_ns += w.busy_ns;
  }
  const sched::SchedulerStats sched = pool.scheduler_stats();
  s.steals = sched.steals;
  s.parks = sched.parks;
  return s;
}

}  // namespace

DesignRun DesignTwice(const Catalog* catalog, const Workload& workload,
                      bool mine, Report* report) {
  const std::vector<DatabaseDesign> first =
      DesignOnce(catalog, workload, mine).designs;
  DesignRun second = DesignOnce(catalog, workload, mine);
  report->Check(SameDesigns(second.designs, first),
                "design pass 2 chose other designs than pass 1");
  return second;
}

DesignRun TraceDesign(const Catalog* catalog, const Workload& workload,
                      bool mine, SpanRecorder* trace, Report* report) {
  // The untraced reference pass: the designs the staged pass must match,
  // and the wall time the tracing overhead is quoted against.
  const double t_ref = Now();
  DesignRun reference = DesignOnce(catalog, workload, mine);
  const double untraced_seconds = Now() - t_ref;
  reference.context.reset();

  const CoraddOptions options = BenchDesignerOptions();
  const PoolSnapshot pool_before = SnapshotPool();
  DesignRun run;
  const int64_t root = trace->Open("design");
  {
    ScopedSpan span(trace, "stats.build", root);
    run.context = std::make_unique<DesignContext>(catalog, workload,
                                                  BenchStatsOptions());
  }
  if (mine) {
    ScopedSpan span(trace, "discovery.mine", root);
    run.context->MineAllDependencies();
  }
  const DesignContext& context = *run.context;
  const CorrelationCostModel model(&context.registry(), options.cost_model);
  const MvCandidateGenerator generator(&context.catalog(), &context.registry(),
                                       &model, options.candidates);
  const CmDesigner cm_designer(&context.registry(), &model, options.cm);
  run.budgets = BudgetGrid(FactHeapBytes(context, workload));

  // §4 candidates, §5 pricing and domination pruning, shared by the grid
  // exactly as DesignMany shares them.
  CandidateSet candidates;
  {
    ScopedSpan span(trace, "mv.candgen", root);
    candidates = generator.Generate(workload);
  }
  const CandGenStats candgen = generator.stats();
  BuiltProblem base;
  {
    ScopedSpan span(trace, "ilp.price", root);
    base = BuildSelectionProblem(workload, candidates.mvs, model,
                                 context.registry(), run.budgets.front());
  }
  const size_t priced = base.specs.size();
  if (options.prune_dominated) {
    ScopedSpan span(trace, "ilp.dominate", root);
    PruneDominated(&base);
  }

  // Per budget: warm start from the previous point, §6 feedback (which
  // runs the solver), A-1 CMs on the chosen objects.
  WarmStartSession warm;
  GroupDesignMemo memo;
  SolverStats solver;
  uint64_t proved_optimal = 0;
  size_t feedback_added = 0;
  size_t pairs_priced = 0;
  size_t cm_count = 0;
  for (uint64_t budget : run.budgets) {
    BuiltProblem per_budget = base;
    per_budget.problem.budget_bytes = budget;
    std::vector<int> warm_chosen;
    {
      ScopedSpan span(trace, "solver.warm_start", root);
      warm_chosen = warm.WarmChosen(per_budget);
    }
    const double feedback_start = trace->Now();
    FeedbackOutcome fb = RunIlpFeedback(
        workload, generator, model, context.registry(), std::move(per_budget),
        budget, options.feedback, options.solver,
        warm_chosen.empty() ? nullptr : &warm_chosen, &memo);
    const int64_t feedback_span =
        trace->Add("feedback.run", feedback_start, trace->Now(), root);
    // The solver runs inside RunIlpFeedback, which reports its wall time;
    // the span carrying it is anchored at the start of the call because
    // where the solves fall inside the call is not observed from here.
    trace->Add("solver.solve", feedback_start,
               feedback_start + fb.solver_stats.wall_seconds, feedback_span);
    solver.Accumulate(fb.solver_stats);
    proved_optimal += fb.solver_stats.proved_optimal ? 1 : 0;
    feedback_added += fb.candidates_added;
    pairs_priced += fb.pairs_priced;
    {
      ScopedSpan span(trace, "solver.warm_start", root);
      warm.Record(fb.problem, fb.result);
    }

    // Packaging as CoraddDesigner does it.
    const SelectionResult& result = fb.result;
    DatabaseDesign design;
    design.designer = "CORADD";
    design.budget_bytes = budget;
    design.expected_seconds = result.expected_cost;
    design.object_bytes = result.used_bytes;
    std::vector<int> object_index(fb.problem.specs.size(), -1);
    for (int m : result.chosen) {
      const MvSpec& spec = fb.problem.specs[static_cast<size_t>(m)];
      std::vector<const Query*> served;
      for (size_t q = 0; q < result.best_for_query.size(); ++q) {
        if (result.best_for_query[q] == m) {
          served.push_back(&workload.queries[q]);
        }
      }
      DesignedObject obj;
      obj.spec = spec;
      {
        ScopedSpan span(trace, "cm.design", root);
        obj.cms = cm_designer.Design(spec, served);
      }
      cm_count += obj.cms.size();
      object_index[static_cast<size_t>(m)] =
          static_cast<int>(design.objects.size());
      design.objects.push_back(std::move(obj));
    }
    design.object_for_query.assign(workload.queries.size(), -1);
    for (size_t q = 0; q < result.best_for_query.size(); ++q) {
      const int m = result.best_for_query[q];
      if (m >= 0) {
        design.object_for_query[q] = object_index[static_cast<size_t>(m)];
      }
    }
    run.designs.push_back(std::move(design));
  }
  trace->Close(root);
  const PoolSnapshot pool_after = SnapshotPool();

  report->Check(SameDesigns(run.designs, reference.designs),
                "staged design differs from DesignMany's");

  const SpanRecorder::Span root_span =
      trace->spans()[static_cast<size_t>(root)];
  const double wall = root_span.end - root_span.start;
  std::map<std::string, double> self = trace->SelfSeconds();
  uint64_t deps = 0;
  for (const std::string& fact : workload.FactTables()) {
    const DiscoveredDependencies* d = context.DependenciesForFact(fact);
    if (d != nullptr) deps += d->fds().size();
  }
  const double budgets = static_cast<double>(run.budgets.size());
  const double attempted_trials =
      static_cast<double>(candgen.trials_priced + candgen.trials_pruned);
  const double workers =
      static_cast<double>(ThreadPool::Shared().num_threads());

  report->Set("design.wall_s", untraced_seconds, "s");
  report->Set("stats.build_s", self["stats.build"], "s");
  report->Set("discovery.share", Ratio(self["discovery.mine"], wall),
              "ratio");
  report->Set("discovery.deps", static_cast<double>(deps), "count");
  report->Set("mv.candgen_s", self["mv.candgen"], "s");
  report->Set("mv.trials_priced", static_cast<double>(candgen.trials_priced),
              "count");
  report->Set("mv.trials_pruned", static_cast<double>(candgen.trials_pruned),
              "count");
  report->Set("mv.prune_ratio",
              Ratio(static_cast<double>(candgen.trials_pruned),
                    attempted_trials),
              "ratio");
  report->Set("mv.candidates", static_cast<double>(candidates.mvs.size()),
              "count");
  report->Set("ilp.price_s", self["ilp.price"], "s");
  report->Set("ilp.dominate_s", self["ilp.dominate"], "s");
  report->Set("ilp.kept_ratio",
              Ratio(static_cast<double>(base.specs.size()),
                    static_cast<double>(priced)),
              "ratio");
  report->Set("solver.solve_s", self["solver.solve"], "s");
  report->Set("solver.nodes", static_cast<double>(solver.nodes_expanded),
              "count");
  report->Set("solver.optimal_frac",
              Ratio(static_cast<double>(proved_optimal), budgets), "ratio");
  report->Set("solver.warm_win_ratio",
              Ratio(static_cast<double>(solver.warm_wins),
                    static_cast<double>(solver.warm_solves)),
              "ratio");
  report->Set("feedback.run_s", self["feedback.run"], "s");
  report->Set("feedback.candidates_added",
              static_cast<double>(feedback_added), "count");
  report->Set("feedback.pairs_priced", static_cast<double>(pairs_priced),
              "count");
  report->Set("cm.design_s", self["cm.design"], "s");
  report->Set("cm.count", static_cast<double>(cm_count), "count");
  report->Set("common.busy_frac",
              Ratio(1e-9 * static_cast<double>(pool_after.busy_ns -
                                               pool_before.busy_ns),
                    wall * workers),
              "ratio");
  report->Set("common.steals",
              static_cast<double>(pool_after.steals - pool_before.steals),
              "count");
  report->Set("common.parks",
              static_cast<double>(pool_after.parks - pool_before.parks),
              "count");
  report->Set("trace.coverage", 1.0 - Ratio(self["design"], wall), "ratio");
  report->Set("trace.overhead_frac", Ratio(wall, untraced_seconds) - 1.0,
              "ratio");
  return run;
}

void EvaluateDesigns(const DesignRun& run, const Workload& workload,
                     Report* report) {
  const size_t nq = workload.queries.size();
  bool all_routed = true;
  for (const DatabaseDesign& d : run.designs) {
    report->Check(d.object_bytes <= d.budget_bytes,
                  StrFormat("design uses %llu bytes of a %llu-byte budget",
                            static_cast<unsigned long long>(d.object_bytes),
                            static_cast<unsigned long long>(d.budget_bytes)));
    bool routed = d.object_for_query.size() == nq;
    for (size_t q = 0; routed && q < nq; ++q) {
      const int o = d.object_for_query[q];
      routed = o >= 0 && static_cast<size_t>(o) < d.objects.size();
    }
    report->Check(routed, "design leaves a query without an object");
    all_routed = all_routed && routed;
  }
  if (!all_routed) return;  // the evaluator cannot run an unrouted query

  // The evaluator keeps this many materialized objects at once; it sets
  // the run's peak memory (24, the default, took ~1.6 GB on APB).
  DesignEvaluator evaluator(run.context.get(), /*cache_capacity=*/8);
  const CorrelationCostModel planner(&run.context->registry());
  std::vector<EvalJob> jobs;
  for (const DatabaseDesign& d : run.designs) {
    jobs.push_back(EvalJob{&d, &workload, &planner});
  }
  const std::vector<WorkloadRunResult> results = evaluator.RunMany(jobs);
  double simulated = 0.0;
  for (const WorkloadRunResult& r : results) simulated += r.total_seconds;
  report->Set("design_sim_s", simulated, "sim_s");

  // Every design answers every query alike: the empty-budget design (the
  // base tables alone) is the reference the others are held to.
  const WorkloadRunResult& base = results.front();
  for (size_t j = 1; j < results.size(); ++j) {
    for (size_t q = 0; q < nq; ++q) {
      const QueryRunRecord& want = base.per_query[q];
      const QueryRunRecord& got = results[j].per_query[q];
      const bool same =
          got.rows_output == want.rows_output &&
          std::abs(got.aggregate - want.aggregate) <=
              std::abs(want.aggregate) * 1e-9 + 1e-6;
      report->Check(same, StrFormat("query %s answers %.17g on design %zu, "
                                    "%.17g on the base tables",
                                    want.query_id.c_str(), got.aggregate, j,
                                    want.aggregate));
    }
  }
}

}  // namespace coradd::bench_coradd
