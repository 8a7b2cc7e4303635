#include "ml/gam.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>

#include "ml/io.hpp"
#include "support/error.hpp"

namespace mpicp::ml {

GamRegressor::GamRegressor(GamParams params) : params_(params) {
  MPICP_REQUIRE(params_.basis_per_feature >= 4, "basis too small");
  MPICP_REQUIRE(params_.lambda >= 0.0, "negative smoothing penalty");
}

void GamRegressor::design_row_into(std::span<const double> x,
                                   std::span<double> out) const {
  const auto nb = static_cast<std::size_t>(params_.basis_per_feature);
  out[0] = 1.0;
  for (std::size_t f = 0; f < x.size(); ++f) {
    bases_[f].evaluate_into(x[f], out.subspan(1 + f * nb, nb));
  }
}

void GamRegressor::fit(const Matrix& x, std::span<const double> y) {
  MPICP_REQUIRE(x.rows() == y.size() && !y.empty(),
                "training data shape mismatch");
  // The sparse products are exact only on finite factors (matrix.cpp).
  for (const double v : y) {
    MPICP_REQUIRE(std::isfinite(v) && v > 0.0,
                  "Gamma family needs finite positive targets");
  }
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (const double v : x.row(i)) {
      MPICP_REQUIRE(std::isfinite(v), "GAM needs finite features");
    }
  }
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  const int nb = params_.basis_per_feature;

  // Build one basis per feature over the observed range.
  bases_.clear();
  bases_.reserve(d);
  for (std::size_t f = 0; f < d; ++f) {
    double lo = x(0, f);
    double hi = x(0, f);
    for (std::size_t i = 1; i < n; ++i) {
      lo = std::min(lo, x(i, f));
      hi = std::max(hi, x(i, f));
    }
    if (hi <= lo) hi = lo + 1.0;  // constant feature: harmless basis
    bases_.emplace_back(lo, hi, nb);
  }

  // Full design matrix [1 | B_1 | ... | B_d].
  const std::size_t cols = 1 + d * static_cast<std::size_t>(nb);
  // Repetitions of one instance are adjacent rows with the same feature
  // bits, and so the same design row: copy it rather than re-evaluate.
  Matrix design(n, cols);
  for (std::size_t i = 0; i < n; ++i) {
    const auto xi = x.row(i);
    if (i > 0 && std::memcmp(xi.data(), x.row(i - 1).data(),
                             xi.size_bytes()) == 0) {
      std::ranges::copy(design.row(i - 1), design.row(i).begin());
    } else {
      design_row_into(xi, design.row(i));
    }
  }

  // At most 4 of each smoother's basis values are nonzero in a row, so
  // every product below runs on the design's nonzero entries alone.
  const SparseRows sparse(design);

  // Penalized normal matrix: X'X + lambda * blockdiag(S_f) (+ a whiff of
  // ridge for identifiability of the overlapping constant directions).
  Matrix normal = sparse.gram();
  for (std::size_t f = 0; f < d; ++f) {
    const Matrix pen = bases_[f].penalty();
    for (int a = 0; a < nb; ++a) {
      for (int b = 0; b < nb; ++b) {
        normal(1 + f * nb + a, 1 + f * nb + b) +=
            params_.lambda * pen(a, b);
      }
    }
  }
  for (std::size_t c = 0; c < cols; ++c) normal(c, c) += 1e-8;

  // Penalized IRLS. Gamma + log link has unit IRLS weights, so the
  // normal matrix is iteration-invariant and factored once; only the
  // working response z = eta + (y - mu)/mu changes.
  // Each row's mean mu = exp(eta) is computed once per iteration, for
  // the deviance, and serves the next iteration's working response.
  // Equal design rows get equal eta bits, so a row reuses the previous
  // row's mean when its eta repeats.
  const Matrix factor = cholesky_factor(normal);
  const auto mean_of = [](double eta) {
    return std::exp(std::clamp(eta, -40.0, 40.0));
  };
  std::vector<double> eta(n);
  std::vector<double> mu(n);
  for (std::size_t i = 0; i < n; ++i) {
    eta[i] = std::log(y[i]);
    mu[i] = mean_of(eta[i]);
  }
  beta_.assign(cols, 0.0);
  iterations_ = 0;
  double prev_dev = 1e300;
  std::vector<double> z(n);
  for (int it = 0; it < params_.max_iters; ++it) {
    ++iterations_;
    for (std::size_t i = 0; i < n; ++i) {
      z[i] = eta[i] + (y[i] - mu[i]) / mu[i];
    }
    beta_ = cholesky_substitute(factor, sparse.transpose_times(z));
    eta = sparse.times(beta_);
    // Gamma deviance for convergence monitoring.
    double dev = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      mu[i] = i > 0 && std::bit_cast<std::uint64_t>(eta[i]) ==
                           std::bit_cast<std::uint64_t>(eta[i - 1])
                  ? mu[i - 1]
                  : mean_of(eta[i]);
      dev += 2.0 * (-std::log(y[i] / mu[i]) + (y[i] - mu[i]) / mu[i]);
    }
    if (std::abs(prev_dev - dev) <
        params_.tol * (std::abs(dev) + params_.tol)) {
      break;
    }
    prev_dev = dev;
  }
  MPICP_REQUIRE(std::ranges::all_of(
                    beta_, [](double b) { return std::isfinite(b); }),
                "gam fit diverged to a non-finite coefficient");
}

void GamRegressor::save(std::ostream& os) const {
  io::write_tag(os, "gam");
  io::write_value(os, params_.basis_per_feature);
  io::write_value(os, bases_.size());
  for (const BSplineBasis& basis : bases_) {
    io::write_value(os, basis.lo());
    io::write_value(os, basis.hi());
  }
  io::write_vector(os, beta_);
}

void GamRegressor::load(std::istream& is) {
  io::expect_tag(is, "gam");
  const auto nb = io::read_value<int>(is);
  // Every size is checked before anything is built from it: a basis
  // allocates nb + 4 knots.
  MPICP_CHECK_PARSE(nb >= 4 && nb <= kMaxBasisPerFeature,
                    "implausible gam basis size");
  const auto d = io::read_value<std::size_t>(is);
  MPICP_CHECK_PARSE(d < 256, "implausible gam dimensionality");
  std::vector<std::pair<double, double>> ranges(d);
  for (auto& [lo, hi] : ranges) {
    lo = io::read_value<double>(is);
    hi = io::read_value<double>(is);
    MPICP_CHECK_PARSE(std::isfinite(lo) && std::isfinite(hi) && lo < hi &&
                          std::isfinite(hi - lo),
                      "gam basis range must be finite and non-empty");
  }
  const auto terms = io::read_value<std::size_t>(is);
  MPICP_CHECK_PARSE(terms == 1 + d * static_cast<std::size_t>(nb),
                    "gam model size mismatch");
  std::vector<double> beta(terms);
  for (double& b : beta) b = io::read_value<double>(is);
  params_.basis_per_feature = nb;
  bases_.clear();
  bases_.reserve(d);
  for (const auto& [lo, hi] : ranges) bases_.emplace_back(lo, hi, nb);
  beta_ = std::move(beta);
}

double GamRegressor::predict_one(std::span<const double> x) const {
  MPICP_REQUIRE(!beta_.empty(), "predicting with an unfitted model");
  std::vector<double> row(beta_.size());
  design_row_into(x, row);
  double eta = 0.0;
  for (std::size_t c = 0; c < row.size(); ++c) eta += row[c] * beta_[c];
  return std::exp(std::clamp(eta, -40.0, 40.0));
}

}  // namespace mpicp::ml
