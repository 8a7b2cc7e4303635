// Minimal dense linear algebra for the regression learners.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace mpicp::ml {

/// Row-major dense matrix.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t i, std::size_t j) {
    return data_[i * cols_ + j];
  }
  double operator()(std::size_t i, std::size_t j) const {
    return data_[i * cols_ + j];
  }

  std::span<const double> row(std::size_t i) const {
    return {data_.data() + i * cols_, cols_};
  }
  std::span<double> row(std::size_t i) {
    return {data_.data() + i * cols_, cols_};
  }

  /// this^T * this (Gram matrix), optionally weighted per row.
  Matrix gram(std::span<const double> weights = {}) const;

  /// this^T * v, optionally weighted per row.
  std::vector<double> transpose_times(
      std::span<const double> v, std::span<const double> weights = {}) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// The nonzero entries of a matrix, row by row (compressed sparse rows).
/// gram() is X'X, transpose_times(v) is X'v and times(beta) is X beta;
/// each skips the terms with a zero entry, which leaves every bit of the
/// dense product unchanged while every entry and operand is finite (see
/// matrix.cpp).
class SparseRows {
 public:
  explicit SparseRows(const Matrix& m);

  Matrix gram() const;
  std::vector<double> transpose_times(std::span<const double> v) const;
  std::vector<double> times(std::span<const double> beta) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> start_;  ///< row i is [start_[i], start_[i+1])
  std::vector<std::size_t> col_;
  std::vector<double> val_;
};

/// Lower Cholesky factor L of the symmetric positive definite A +
/// jitter*I (the upper triangle of the result is scratch). A failed
/// factorization is retried with the jitter escalated 100-fold (from
/// 1e-10 when it starts at 0); throws InternalError when A is not SPD
/// even then.
Matrix cholesky_factor(const Matrix& a, double jitter = 1e-10);

/// Solve L L^T x = b for a factor L from cholesky_factor.
std::vector<double> cholesky_substitute(const Matrix& l,
                                        std::vector<double> b);

/// Solve (A + jitter*I) x = b: cholesky_factor, then
/// cholesky_substitute.
std::vector<double> cholesky_solve(const Matrix& a, std::vector<double> b,
                                   double jitter = 1e-10);

}  // namespace mpicp::ml
