// Correlation explorer: discover soft functional dependencies in a star
// schema the way CORADD's statistics layer does — strengths from distinct
// counts (AE over a synopsis), the dependency miner's FD/AFD discoveries
// side by side with the seeded estimates, and what those correlations
// buy: compact correlation maps instead of dense B+Trees (the A-1
// People(city,state) example, on real SSB data).
//
//   $ ./examples/correlation_explorer
//   $ ./examples/correlation_explorer --trace=explorer_trace.json
#include <algorithm>
#include <cstdio>

#include "common/string_util.h"
#include "cm/cm_designer.h"
#include "discovery/fd_miner.h"
#include "exec/materialize.h"
#include "obs/trace.h"
#include "ssb/ssb.h"

using namespace coradd;

int main(int argc, char** argv) {
  const obs::TraceSession trace = obs::TraceSession::FromArgs(argc, argv);
  ssb::SsbOptions options;
  options.scale_factor = 0.01;
  auto catalog = ssb::MakeCatalog(options);
  Universe universe(*catalog, *catalog->GetFactInfo("lineorder"));
  StatsOptions sopt;
  sopt.disk.page_size_bytes = 1024;
  sopt.disk.seek_seconds = 0.0055 / 8.0;
  UniverseStats stats(&universe, sopt);

  // --- 1. Correlation strengths (the CORDS measure CORADD uses), with the
  //        dependency miner's verdict on the same pairs next to the seeded
  //        synopsis estimates.
  const DiscoveredDependencies mined = DependencyMiner().Mine(
      MinerInput::FromSynopsis(universe, stats.synopsis()));

  struct Pair {
    const char* from;
    const char* to;
  };
  std::printf("Correlation strengths  strength(A->B) = |A| / |A,B|:\n");
  std::printf("  %-16s    %-16s %8s %8s  %s\n", "A", "B", "seeded", "mined",
              "mined verdict");
  for (const Pair p : {Pair{"c_city", "c_nation"},
                       Pair{"c_nation", "c_region"},
                       Pair{"p_brand1", "p_category"},
                       Pair{"d_yearmonthnum", "d_year"},
                       Pair{"lo_orderdate", "lo_commitdate"},
                       Pair{"lo_orderdate", "d_year"},
                       Pair{"lo_discount", "lo_quantity"}}) {
    const double s = stats.correlations().Strength(
        universe.ColumnIndex(p.from), universe.ColumnIndex(p.to));
    const int mfrom = mined.ColumnIndex(p.from);
    const int mto = mined.ColumnIndex(p.to);
    const double ms = mined.StrengthFor({mfrom}, {mto});
    const FunctionalDependency* fd = mined.FindFd({mfrom}, mto);
    const char* verdict = mined.DeterminesExactly({mfrom}, mto) ? "exact FD"
                          : fd != nullptr                       ? "afd"
                          : ms > 0.5                            ? "(strong)"
                          : ms > 0.05                           ? "(weak)"
                                                                : "(none)";
    std::printf("  %-16s -> %-16s %8.3f %8.3f  %s\n", p.from, p.to, s,
                std::max(ms, 0.0), verdict);
  }

  // --- 1b. The full discovered dependency list (what the designer would
  //         consume via DesignContext::MineDependencies).
  std::printf("\n%s", mined.ToString(/*max_fds=*/24).c_str());
  std::printf("  (plus %zu near-key columns excluded as LHS)\n",
              mined.near_key_columns().size());

  // --- 2. What correlations buy: CM vs dense B+Tree on the fact table
  //        clustered by orderdate (correlated with date attributes).
  MvSpec spec;
  spec.name = "lineorder_by_orderdate";
  spec.fact_table = "lineorder";
  for (size_t c = 0; c < universe.fact_table().schema().NumColumns(); ++c) {
    spec.columns.push_back(universe.fact_table().schema().Column(c).name);
  }
  spec.clustered_key = {"lo_orderdate"};
  spec.is_fact_recluster = true;

  Materializer materializer(&universe, sopt.disk);
  CmSpec cm_commit;
  cm_commit.key_columns = {"lo_commitdate"};
  CmSpec cm_year;
  cm_year.key_columns = {"d_year"};
  auto obj =
      materializer.Materialize(spec, {cm_commit, cm_year}, {"lo_commitdate"});

  std::printf("\nSecondary access structures on lineorder(clustered by "
              "lo_orderdate):\n");
  std::printf("  dense B+Tree on lo_commitdate : %s\n",
              HumanBytes(obj->btrees[0]->SizeBytes()).c_str());
  std::printf("  CM on lo_commitdate           : %s  (%llu pairs)\n",
              HumanBytes(obj->cms[0]->SizeBytes()).c_str(),
              static_cast<unsigned long long>(obj->cms[0]->NumPairs()));
  std::printf("  CM on d_year                  : %s  (%llu pairs)\n",
              HumanBytes(obj->cms[1]->SizeBytes()).c_str(),
              static_cast<unsigned long long>(obj->cms[1]->NumPairs()));
  std::printf("\nThe correlated CMs are orders of magnitude smaller than the "
              "dense index\nwhile steering the executor to the same heap "
              "regions (A-1).\n");
  return 0;
}
