// Dependency-mining bench: wall-time of the lattice miner vs mined row
// count and thread count on the SSB universe, plus the acceptance check
// that the date-hierarchy FDs the paper exploits are discovered at SF-0.1.
// Thread sweeps also verify the determinism contract: every thread count
// must produce the identical dependency set.
//
//   $ ./bench_discovery [--scale=0.1] [--arity=2] [--max_rows=8192]
//                       [--full=0] [--threads=1,2,4,8] [--fast]
//
// `--full=1` mines every universe row (exact verdicts, minutes at SF-0.1);
// the default mines uniform samples, which is what the designer pipeline
// does via DesignContext::MineDependencies. `--fast` shrinks the scale,
// row grid, and thread sweep for smoke/CI runs. Runs under the benchkit
// repetition harness; --json emits schema-v2 BENCH_discovery.json.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "discovery/fd_miner.h"

using namespace coradd;
using namespace coradd::bench;

namespace {

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

bool SameDependencies(const DiscoveredDependencies& a,
                      const DiscoveredDependencies& b) {
  if (a.fds().size() != b.fds().size()) return false;
  for (size_t i = 0; i < a.fds().size(); ++i) {
    if (a.fds()[i].lhs != b.fds()[i].lhs || a.fds()[i].rhs != b.fds()[i].rhs ||
        a.fds()[i].error != b.fds()[i].error) {
      return false;
    }
  }
  return a.keys() == b.keys() && a.constant_columns() == b.constant_columns();
}

size_t CountExact(const DiscoveredDependencies& d) {
  size_t n = 0;
  for (const auto& fd : d.fds()) n += fd.exact() ? 1 : 0;
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  Harness h("discovery", argc, argv);
  const double scale = FlagDouble(argc, argv, "scale", h.fast() ? 0.02 : 0.1);
  const size_t arity =
      static_cast<size_t>(FlagDouble(argc, argv, "arity", 2));
  const size_t max_rows = static_cast<size_t>(
      FlagDouble(argc, argv, "max_rows", h.fast() ? 2048 : 8192));
  const bool full = FlagDouble(argc, argv, "full", 0) != 0;
  std::vector<size_t> thread_counts;
  for (const std::string& t :
       Split(FlagValue(argc, argv, "threads", h.fast() ? "1,2" : "1,2,4"),
             ',')) {
    thread_counts.push_back(static_cast<size_t>(std::atoi(t.c_str())));
  }
  BenchJson& json = h.json();
  json.Config("scale", scale);
  json.Config("arity", static_cast<double>(arity));
  json.Config("max_rows", static_cast<double>(max_rows));

  h.Run([&](const RunPass& pass) {
    ssb::SsbOptions options;
    options.scale_factor = scale;
    auto catalog = ssb::MakeCatalog(options);
    Universe universe(*catalog, *catalog->GetFactInfo("lineorder"));
    if (pass.reporting) {
      std::printf("SSB scale %.3g: %zu universe rows, %zu columns\n", scale,
                  universe.NumRows(), universe.NumColumns());
    }

    // --- Wall-time vs row count and thread count. ---
    std::vector<size_t> row_grid;
    for (size_t r = 1024; r <= max_rows; r *= 2) row_grid.push_back(r);
    if (full) row_grid.push_back(universe.NumRows());

    if (pass.reporting) {
      PrintHeader("mining wall-time (lhs arity <= " +
                      std::to_string(arity) + ")",
                  {"rows", "threads", "wall", "exact", "afd", "soft",
                   "speedup", "same"});
    }
    for (size_t rows : row_grid) {
      const MinerInput input =
          (rows == universe.NumRows())
              ? MinerInput::FromUniverse(universe)
              : MinerInput::FromUniverse(universe, rows, /*seed=*/17);
      double base_seconds = 0.0;
      DiscoveredDependencies reference;
      for (size_t threads : thread_counts) {
        ThreadPool pool(threads);
        DependencyMinerOptions mopt;
        mopt.max_lhs_arity = arity;
        mopt.pool = &pool;
        DependencyMiner miner(mopt);
        const auto t0 = std::chrono::steady_clock::now();
        DiscoveredDependencies report = miner.Mine(input);
        const double wall = Seconds(t0);
        if (rows == row_grid.back()) {
          h.Sample(StrFormat("mine_rows%zu_t%zu_seconds", rows, threads),
                   wall);
        }
        bool same = true;
        if (threads == thread_counts.front()) {
          base_seconds = wall;
          reference = std::move(report);
        } else {
          same = SameDependencies(reference, report);
        }
        const DiscoveredDependencies& r =
            threads == thread_counts.front() ? reference : report;
        if (!pass.reporting) continue;
        PrintRow({std::to_string(input.NumRows()),
                  std::to_string(threads), HumanSeconds(wall),
                  std::to_string(CountExact(r)),
                  std::to_string(r.fds().size() - CountExact(r)),
                  std::to_string(r.soft_correlations().size()),
                  StrFormat("%.2fx", base_seconds / wall),
                  same ? "yes" : "NO (BUG)"});
        json.Row({{"rows",
                   BenchJson::Num(static_cast<double>(input.NumRows()))},
                  {"threads", BenchJson::Num(static_cast<double>(threads))},
                  {"wall_seconds", BenchJson::Num(wall)},
                  {"exact_fds",
                   BenchJson::Num(static_cast<double>(CountExact(r)))},
                  {"afds", BenchJson::Num(static_cast<double>(
                               r.fds().size() - CountExact(r)))},
                  {"soft", BenchJson::Num(static_cast<double>(
                               r.soft_correlations().size()))},
                  {"deterministic",
                   same ? std::string("true") : std::string("false")}});
      }
    }

    // --- The paper's date hierarchy at this scale (acceptance check). ---
    if (pass.reporting) {
      ThreadPool pool(thread_counts.back());
      DependencyMinerOptions mopt;
      mopt.max_lhs_arity = 2;
      mopt.pool = &pool;
      const MinerInput input = full ? MinerInput::FromUniverse(universe)
                                    : MinerInput::FromUniverse(universe,
                                                               max_rows, 17);
      const DiscoveredDependencies deps = DependencyMiner(mopt).Mine(input);
      std::printf("\ndate-hierarchy dependencies (%s rows):\n",
                  full ? "all" : std::to_string(input.NumRows()).c_str());
      const int datekey = deps.ColumnIndex("d_datekey");
      for (const char* rhs : {"d_year", "d_monthnuminyear", "d_yearmonthnum",
                              "d_yearmonth", "d_weeknuminyear"}) {
        const int r = deps.ColumnIndex(rhs);
        const bool found = datekey >= 0 && r >= 0 &&
                           deps.DeterminesExactly({datekey}, r);
        std::printf("  d_datekey -> %-18s %s\n", rhs,
                    found ? "exact" : "NOT FOUND");
      }
    }
  });
  return h.Finish();
}
