// Builder for the paper's exact ILP formulation (§5.1, Table 3):
//
//   min  Σ_q [ t_{q,p_{q,1}} + Σ_{r=2..R_q} x_{q,p_{q,r}} (t_{q,p_{q,r}} -
//                                                         t_{q,p_{q,r-1}}) ]
//   s.t. (1) y_m ∈ {0,1}
//        (2) 1 - Σ_{k<r} y_{p_{q,k}} <= x_{q,p_{q,r}} <= 1
//        (3) Σ_m s_m y_m <= S
//        (4) Σ_{m∈R_f} y_m <= 1        (one clustered index per fact table)
//
// Only candidates feasible for a query enter its p_{q,r} ordering, which is
// what keeps the formulation compact (§5.3's 2,080 variables / 2,240
// constraints scale). BuildPaperIlp produces the LP relaxation for our
// simplex solver; exact solutions come from solver/solver.h, which solves
// the equivalent selection problem without any variable relaxation (the
// paper's advantage over [16], §5.4). The relaxation lower-bounds that
// optimum and certifies it whenever every y comes out integral, which is
// how the solver tests use it as an independent oracle.
#pragma once

#include "ilp/lp.h"
#include "ilp/selection.h"

namespace coradd {

/// The generated formulation plus bookkeeping.
struct PaperIlpFormulation {
  LinearProgram lp;
  /// Σ_q w_q t_{q,p_{q,1}} — the constant part of the objective.
  double objective_constant = 0.0;
  int num_y = 0;
  int num_x = 0;
  int num_constraints = 0;
  /// orderings[q] = candidate indices feasible for q, fastest first.
  std::vector<std::vector<int>> orderings;

  int NumVariables() const { return num_y + num_x; }
};

/// Builds the LP relaxation of the paper ILP from a selection problem.
PaperIlpFormulation BuildPaperIlp(const SelectionProblem& problem);

/// Solves the relaxation; returns objective including the constant.
/// (A lower bound on the integer optimum; on these instances the
/// relaxation is usually integral.)
LpSolution SolvePaperLpRelaxation(const PaperIlpFormulation& form,
                                  int max_iterations = 200000);

}  // namespace coradd
