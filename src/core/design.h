// A complete database design: the chosen physical objects, their secondary
// structures, the per-query routing, and the designer's own cost estimate.
#pragma once

#include <string>
#include <vector>

#include "cm/cm_designer.h"
#include "cost/mv_spec.h"

namespace coradd {

/// One designed object with its secondary structures.
struct DesignedObject {
  MvSpec spec;
  std::vector<CmSpec> cms;                 ///< CORADD-style secondary access.
  std::vector<std::string> btree_columns;  ///< Commercial-style dense indexes.
};

/// Structural identity of a designed object: fact table, stored columns,
/// clustered key, kind (base / re-clustering / MV), CMs with their
/// bucketing, and B+Tree columns — not the name or query group. Objects
/// with equal signatures materialize identically, so the evaluator and the
/// serving engine build one materialization per signature.
std::string ObjectSignature(const DesignedObject& obj);

/// Output of any designer.
struct DatabaseDesign {
  std::string designer;
  uint64_t budget_bytes = 0;
  std::vector<DesignedObject> objects;
  /// Index into `objects` per workload query (routing by expected runtime).
  std::vector<int> object_for_query;
  /// Designer's own estimate of the weighted workload runtime.
  double expected_seconds = 0.0;
  /// Budget charge of the chosen objects (excl. the CM set-aside pool).
  uint64_t object_bytes = 0;
  /// Designer wall-clock time.
  double design_seconds = 0.0;

  std::string ToString() const;
};

}  // namespace coradd
