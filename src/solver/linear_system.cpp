#include "solver/linear_system.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace nscc::solver {

CsrMatrix CsrMatrix::from_rows(
    int cols, const std::vector<std::vector<std::pair<int, double>>>& rows) {
  CsrMatrix m(static_cast<int>(rows.size()), cols);
  std::size_t nonzeros = 0;
  for (const auto& row : rows) nonzeros += row.size();
  m.col_.reserve(nonzeros);
  m.values_.reserve(nonzeros);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    m.row_ptr_[r] = m.values_.size();
    for (const auto& [c, v] : rows[r]) {
      if (c < 0 || c >= cols) throw std::invalid_argument("CsrMatrix: bad column");
      if (static_cast<std::size_t>(c) == r) {
        if (m.diag_[r] != kNoDiagonal) {
          throw std::invalid_argument("CsrMatrix: row " + std::to_string(r) +
                                      " has two diagonal entries");
        }
        m.diag_[r] = m.values_.size();
      }
      m.col_.push_back(c);
      m.values_.push_back(v);
    }
  }
  m.row_ptr_[rows.size()] = m.values_.size();
  return m;
}

void CsrMatrix::multiply(const std::vector<double>& x,
                         std::vector<double>& y) const {
  assert(static_cast<int>(x.size()) == cols_);
  y.assign(static_cast<std::size_t>(rows_), 0.0);
  for (int r = 0; r < rows_; ++r) {
    double sum = 0.0;
    for (std::size_t i = row_ptr_[static_cast<std::size_t>(r)];
         i < row_ptr_[static_cast<std::size_t>(r) + 1]; ++i) {
      sum += values_[i] * x[static_cast<std::size_t>(col_[i])];
    }
    y[static_cast<std::size_t>(r)] = sum;
  }
}

void CsrMatrix::jacobi_rows(int lo, int hi, std::span<const double> b,
                            std::span<const double> x,
                            std::span<double> out) const {
  assert(0 <= lo && lo <= hi && hi <= rows_);
  assert(static_cast<int>(x.size()) == cols_);
  assert(out.size() >= static_cast<std::size_t>(hi - lo));
  const int* col = col_.data();
  const double* val = values_.data();
  const double* xv = x.data();
  for (int r = lo; r < hi; ++r) {
    const auto ur = static_cast<std::size_t>(r);
    const std::size_t d = diag_[ur];
    if (d == kNoDiagonal) {
      throw std::logic_error("CsrMatrix: missing diagonal entry");
    }
    // The two off-diagonal runs in CSR order, one accumulator: the same
    // additions, in the same order, as one pass that skips a_rr.  Unrolling
    // trims the loop overhead of short stencil rows and keeps that order.
    double sum = 0.0;
#pragma GCC unroll 4
    for (std::size_t i = row_ptr_[ur]; i < d; ++i) {
      sum += val[i] * xv[static_cast<std::size_t>(col[i])];
    }
    const std::size_t end = row_ptr_[ur + 1];
#pragma GCC unroll 4
    for (std::size_t i = d + 1; i < end; ++i) {
      sum += val[i] * xv[static_cast<std::size_t>(col[i])];
    }
    out[ur - static_cast<std::size_t>(lo)] = (b[ur] - sum) / val[d];
  }
}

double CsrMatrix::residual_inf(const std::vector<double>& x,
                               const std::vector<double>& b) const {
  return residual_inf(x, b, 0, rows_);
}

double CsrMatrix::residual_inf(std::span<const double> x,
                               std::span<const double> b, int lo,
                               int hi) const {
  double worst = 0.0;
  for (int r = lo; r < hi; ++r) {
    double sum = 0.0;
    for (std::size_t i = row_ptr_[static_cast<std::size_t>(r)];
         i < row_ptr_[static_cast<std::size_t>(r) + 1]; ++i) {
      sum += values_[i] * x[static_cast<std::size_t>(col_[i])];
    }
    worst = std::max(worst, std::fabs(b[static_cast<std::size_t>(r)] - sum));
  }
  return worst;
}

bool CsrMatrix::strictly_diagonally_dominant() const {
  for (int r = 0; r < rows_; ++r) {
    double diag = 0.0;
    double off = 0.0;
    for (std::size_t i = row_ptr_[static_cast<std::size_t>(r)];
         i < row_ptr_[static_cast<std::size_t>(r) + 1]; ++i) {
      if (col_[i] == r) {
        diag = std::fabs(values_[i]);
      } else {
        off += std::fabs(values_[i]);
      }
    }
    if (diag <= off) return false;
  }
  return true;
}

std::pair<const int*, const double*> CsrMatrix::row(int r, int& count) const {
  const std::size_t begin = row_ptr_[static_cast<std::size_t>(r)];
  count = static_cast<int>(row_ptr_[static_cast<std::size_t>(r) + 1] - begin);
  return {col_.data() + begin, values_.data() + begin};
}

LinearSystem make_poisson_2d(int n, std::uint64_t seed) {
  const int size = n * n;
  std::vector<std::vector<std::pair<int, double>>> rows(
      static_cast<std::size_t>(size));
  auto id = [n](int i, int j) { return i * n + j; };
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      auto& row = rows[static_cast<std::size_t>(id(i, j))];
      row.reserve(5);
      // 4.0 + epsilon makes the system strictly dominant so the fully
      // asynchronous iteration is provably convergent [2].
      row.emplace_back(id(i, j), 4.04);
      if (i > 0) row.emplace_back(id(i - 1, j), -1.0);
      if (i + 1 < n) row.emplace_back(id(i + 1, j), -1.0);
      if (j > 0) row.emplace_back(id(i, j - 1), -1.0);
      if (j + 1 < n) row.emplace_back(id(i, j + 1), -1.0);
    }
  }
  LinearSystem sys;
  sys.a = CsrMatrix::from_rows(size, rows);
  util::Xoshiro256 rng(seed);
  sys.x_true.resize(static_cast<std::size_t>(size));
  for (double& v : sys.x_true) v = rng.uniform(-1.0, 1.0);
  sys.a.multiply(sys.x_true, sys.b);
  return sys;
}

LinearSystem make_dominant_random(int size, int nnz_per_row,
                                  double dominance_ratio, std::uint64_t seed) {
  if (dominance_ratio <= 1.0) {
    throw std::invalid_argument("dominance_ratio must exceed 1");
  }
  util::Xoshiro256 rng(seed);
  std::vector<std::vector<std::pair<int, double>>> rows(
      static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r) {
    auto& row = rows[static_cast<std::size_t>(r)];
    double off_sum = 0.0;
    for (int k = 0; k < nnz_per_row; ++k) {
      int c = r;
      while (c == r) c = static_cast<int>(rng.below(static_cast<std::uint64_t>(size)));
      const double v = rng.uniform(-1.0, 1.0);
      row.emplace_back(c, v);
      off_sum += std::fabs(v);
    }
    row.emplace_back(r, dominance_ratio * std::max(off_sum, 0.1));
  }
  LinearSystem sys;
  sys.a = CsrMatrix::from_rows(size, rows);
  sys.x_true.resize(static_cast<std::size_t>(size));
  for (double& v : sys.x_true) v = rng.uniform(-1.0, 1.0);
  sys.a.multiply(sys.x_true, sys.b);
  return sys;
}

}  // namespace nscc::solver
