#include "ml/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "support/error.hpp"

namespace mpicp::ml {

Matrix Matrix::gram(std::span<const double> weights) const {
  Matrix g(cols_, cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double w = weights.empty() ? 1.0 : weights[i];
    const auto r = row(i);
    for (std::size_t a = 0; a < cols_; ++a) {
      const double wa = w * r[a];
      // Exact zero skip: a sparsity shortcut, not a tolerance test.
      // mpicp-lint: allow(no-float-eq)
      if (wa == 0.0) continue;
      for (std::size_t b = a; b < cols_; ++b) g(a, b) += wa * r[b];
    }
  }
  for (std::size_t a = 0; a < cols_; ++a) {
    for (std::size_t b = 0; b < a; ++b) g(a, b) = g(b, a);
  }
  return g;
}

std::vector<double> Matrix::transpose_times(
    std::span<const double> v, std::span<const double> weights) const {
  MPICP_REQUIRE(v.size() == rows_, "dimension mismatch");
  std::vector<double> out(cols_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double w = (weights.empty() ? 1.0 : weights[i]) * v[i];
    // mpicp-lint: allow(no-float-eq) — exact-zero sparsity shortcut
    if (w == 0.0) continue;
    const auto r = row(i);
    for (std::size_t a = 0; a < cols_; ++a) out[a] += w * r[a];
  }
  return out;
}

SparseRows::SparseRows(const Matrix& m)
    : rows_(m.rows()), cols_(m.cols()) {
  // mpicp-lint: allow(no-float-eq) — exact-zero sparsity shortcut
  const auto nonzero = [](double v) { return v != 0.0; };
  std::size_t count = 0;
  for (std::size_t i = 0; i < rows_; ++i) {
    count += static_cast<std::size_t>(std::ranges::count_if(m.row(i), nonzero));
  }
  start_.reserve(rows_ + 1);
  col_.reserve(count);
  val_.reserve(count);
  start_.push_back(0);
  for (std::size_t i = 0; i < rows_; ++i) {
    const auto r = m.row(i);
    for (std::size_t a = 0; a < cols_; ++a) {
      if (!nonzero(r[a])) continue;
      col_.push_back(a);
      val_.push_back(r[a]);
    }
    start_.push_back(col_.size());
  }
}

// The products below skip every term with an exact zero factor. A
// skipped term is +0 or -0 while every factor is finite (GamRegressor
// rejects non-finite inputs; DESIGN.md §5); each sum starts at +0.0 and
// so can never become -0.0 (x + y is -0.0 only when both are -0.0); and
// adding +/-0 to anything other than -0.0 returns it unchanged. So each
// result has the bits of the dense product's.

Matrix SparseRows::gram() const {
  Matrix g(cols_, cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = start_[i]; k < start_[i + 1]; ++k) {
      const double wa = val_[k];
      for (std::size_t l = k; l < start_[i + 1]; ++l) {
        g(col_[k], col_[l]) += wa * val_[l];
      }
    }
  }
  for (std::size_t a = 0; a < cols_; ++a) {
    for (std::size_t b = 0; b < a; ++b) g(a, b) = g(b, a);
  }
  return g;
}

std::vector<double> SparseRows::transpose_times(
    std::span<const double> v) const {
  MPICP_REQUIRE(v.size() == rows_, "dimension mismatch");
  std::vector<double> out(cols_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double w = v[i];
    // mpicp-lint: allow(no-float-eq) — exact-zero sparsity shortcut
    if (w == 0.0) continue;
    for (std::size_t k = start_[i]; k < start_[i + 1]; ++k) {
      out[col_[k]] += w * val_[k];
    }
  }
  return out;
}

std::vector<double> SparseRows::times(std::span<const double> beta) const {
  MPICP_REQUIRE(beta.size() == cols_, "dimension mismatch");
  std::vector<double> out(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    double acc = 0.0;
    for (std::size_t k = start_[i]; k < start_[i + 1]; ++k) {
      acc += val_[k] * beta[col_[k]];
    }
    out[i] = acc;
  }
  return out;
}

Matrix cholesky_factor(const Matrix& a, double jitter) {
  const std::size_t n = a.rows();
  MPICP_REQUIRE(a.cols() == n, "cholesky_factor needs a square matrix");
  for (int attempt = 0; attempt < 8; ++attempt) {
    Matrix l = a;
    for (std::size_t i = 0; i < n; ++i) l(i, i) += jitter;
    bool ok = true;
    // In-place Cholesky (lower triangle).
    for (std::size_t j = 0; j < n && ok; ++j) {
      double d = l(j, j);
      for (std::size_t k = 0; k < j; ++k) d -= l(j, k) * l(j, k);
      if (d <= 0.0 || !std::isfinite(d)) {
        ok = false;
        break;
      }
      const double diag = std::sqrt(d);
      l(j, j) = diag;
      for (std::size_t i = j + 1; i < n; ++i) {
        double s = l(i, j);
        for (std::size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
        l(i, j) = s / diag;
      }
    }
    if (ok) return l;
    // mpicp-lint: allow(no-float-eq) — jitter starts at literal 0.0
    jitter = jitter == 0.0 ? 1e-10 : jitter * 100.0;
  }
  MPICP_RAISE_INTERNAL("cholesky_factor: matrix not positive definite");
}

std::vector<double> cholesky_substitute(const Matrix& l,
                                        std::vector<double> b) {
  const std::size_t n = l.rows();
  MPICP_REQUIRE(l.cols() == n && b.size() == n,
                "cholesky_substitute needs a square factor and matching b");
  // Forward/back substitution.
  std::vector<double> x = std::move(b);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < i; ++k) x[i] -= l(i, k) * x[k];
    x[i] /= l(i, i);
  }
  for (std::size_t ii = n; ii-- > 0;) {
    for (std::size_t k = ii + 1; k < n; ++k) x[ii] -= l(k, ii) * x[k];
    x[ii] /= l(ii, ii);
  }
  return x;
}

std::vector<double> cholesky_solve(const Matrix& a, std::vector<double> b,
                                   double jitter) {
  MPICP_REQUIRE(a.cols() == a.rows() && b.size() == a.rows(),
                "cholesky_solve needs square A and matching b");
  return cholesky_substitute(cholesky_factor(a, jitter), std::move(b));
}

}  // namespace mpicp::ml
