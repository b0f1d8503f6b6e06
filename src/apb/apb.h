// APB-1-like OLAP benchmark (OLAP Council, Release II 1998), rebuilt as a
// synthetic star schema with the same structural properties the paper's
// evaluation relies on (§7.1, Experiment 1):
//   * a product dimension with a 6-level hierarchy (code -> class -> group
//     -> family -> line -> division), so every level functionally determines
//     its ancestors — exactly the correlations CORADD exploits;
//   * a customer dimension with a store -> retailer hierarchy;
//   * 10 channels; a monthly time dimension with quarter/halfyear/year;
//   * TWO fact tables (actuals and budget); queries that touch both are
//     modelled as independent queries per fact table, as the paper does;
//   * 31 template queries with a frequency distribution.
// The official APB-1 generator is proprietary-ish and Windows-era; see
// "Substitutions" in docs/ARCHITECTURE.md.
#pragma once

#include <memory>

#include "catalog/catalog.h"
#include "workload/query.h"

namespace coradd {
namespace apb {

/// Generation knobs. `scale` = fraction of the paper's 45M-tuple actuals
/// table (2% density, 10 channels); 0.01 -> 450k rows.
struct ApbOptions {
  double scale = 0.005;
  uint64_t seed = 13;
  uint64_t num_products = 3000;
  uint64_t num_stores = 900;
  uint64_t num_channels = 10;

  uint64_t ActualsRows() const {
    const double r = 45.0e6 * scale;
    return static_cast<uint64_t>(r < 10000 ? 10000 : r);
  }
  uint64_t BudgetRows() const { return ActualsRows() / 6; }
};

/// Number of months in the time dimension (two years, 1995-1996).
inline constexpr int kNumMonths = 24;
inline constexpr int kFirstYear = 1995;

/// Product hierarchy widths derived from num_products (see apb.cc).
struct ProductHierarchy {
  uint64_t codes, classes, groups, families, lines, divisions;
  static ProductHierarchy For(uint64_t num_products);
};

/// Builds the APB catalog: time, product, customer, channel dimensions and
/// the actuals + budget fact tables, with star metadata registered.
std::unique_ptr<Catalog> MakeCatalog(const ApbOptions& options);

/// The 31 template queries (24 on actuals, 7 on budget) with frequencies.
Workload MakeWorkload(const ApbOptions& options);

}  // namespace apb
}  // namespace coradd
