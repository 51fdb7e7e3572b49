// Sparse linear systems for the asynchronous iterative solver application.
//
// The paper's opening example of a data-race tolerant application class is
// the "iterative equation solver" (Section 1; Bertsekas & Tsitsiklis [2]).
// This module provides the substrate: compressed-sparse-row matrices,
// generators for the classic test problems (2-D Poisson five-point stencil,
// diagonally dominant random systems), and the Jacobi splitting machinery.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace nscc::solver {

/// Compressed sparse row matrix.
class CsrMatrix {
 public:
  CsrMatrix() = default;
  CsrMatrix(int rows, int cols)
      : rows_(rows),
        cols_(cols),
        row_ptr_(static_cast<std::size_t>(rows) + 1, 0),
        diag_(static_cast<std::size_t>(rows), kNoDiagonal) {}

  [[nodiscard]] int rows() const noexcept { return rows_; }
  [[nodiscard]] int cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t nonzeros() const noexcept { return values_.size(); }

  /// Build from per-row (column, value) lists; columns need not be sorted.
  /// A row may lack a diagonal entry (jacobi_rows then throws on it) but
  /// may not hold two: that throws std::invalid_argument naming the row.
  static CsrMatrix from_rows(
      int cols, const std::vector<std::vector<std::pair<int, double>>>& rows);

  /// y = A x.
  void multiply(const std::vector<double>& x, std::vector<double>& y) const;

  /// The Jacobi update of rows [lo, hi): out[r - lo] =
  /// (b[r] - sum_{j != r} a_rj x_j) / a_rr, summed in CSR order.  Throws
  /// std::logic_error at the first row with no diagonal entry.
  void jacobi_rows(int lo, int hi, std::span<const double> b,
                   std::span<const double> x, std::span<double> out) const;

  /// ||b - A x||_inf.
  [[nodiscard]] double residual_inf(const std::vector<double>& x,
                                    const std::vector<double>& b) const;

  /// max |b_r - (A x)_r| over rows [lo, hi).
  [[nodiscard]] double residual_inf(std::span<const double> x,
                                    std::span<const double> b, int lo,
                                    int hi) const;

  /// True when strictly diagonally dominant (sufficient for asynchronous
  /// Jacobi convergence under arbitrary bounded staleness [2]).
  [[nodiscard]] bool strictly_diagonally_dominant() const;

  // Row access for partition-local iteration.
  [[nodiscard]] std::pair<const int*, const double*> row(int r,
                                                         int& count) const;

 private:
  static constexpr std::size_t kNoDiagonal = static_cast<std::size_t>(-1);

  int rows_ = 0;
  int cols_ = 0;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> diag_;  ///< Index of a_rr in col_/values_, or kNoDiagonal.
  std::vector<int> col_;
  std::vector<double> values_;
};

/// Ax = b with a known generating solution (for exact-error checks).
struct LinearSystem {
  CsrMatrix a;
  std::vector<double> b;
  std::vector<double> x_true;

  [[nodiscard]] int size() const noexcept { return a.rows(); }
};

/// Five-point 2-D Poisson problem on an n x n grid (the standard iterative
/// solver benchmark); strictly diagonally dominant after the h^2 scaling.
LinearSystem make_poisson_2d(int n, std::uint64_t seed);

/// Random sparse strictly-diagonally-dominant system: `nnz_per_row`
/// off-diagonals, dominance ratio > 1 controls the Jacobi contraction rate.
LinearSystem make_dominant_random(int size, int nnz_per_row,
                                  double dominance_ratio, std::uint64_t seed);

}  // namespace nscc::solver
