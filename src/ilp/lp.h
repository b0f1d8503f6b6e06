// Dense two-phase primal simplex LP solver, built from scratch (the paper
// uses a commercial LP solver; see "Substitutions" in docs/ARCHITECTURE.md).
//
// Solves   min c^T x   s.t.   A x <= b,   0 <= x <= ub.
// Upper bounds are handled by adding explicit rows (instances here are
// small); degeneracy is handled with Bland's rule after a stall.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace coradd {

/// LP in inequality form.
struct LinearProgram {
  int num_vars = 0;
  std::vector<double> objective;           ///< c, size num_vars.
  std::vector<std::vector<double>> rows;   ///< A, each row size num_vars.
  std::vector<double> rhs;                 ///< b, size rows.size().
  std::vector<double> upper_bounds;        ///< Optional; empty = +inf.

  void AddRow(std::vector<double> row, double b) {
    rows.push_back(std::move(row));
    rhs.push_back(b);
  }
};

/// Outcome of a solve.
enum class LpStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

/// Solution of an LP.
struct LpSolution {
  LpStatus status = LpStatus::kIterationLimit;
  double objective = 0.0;
  std::vector<double> x;
  int iterations = 0;
};

/// Solves the LP with a dense two-phase tableau simplex.
LpSolution SolveLp(const LinearProgram& lp, int max_iterations = 200000);

}  // namespace coradd
