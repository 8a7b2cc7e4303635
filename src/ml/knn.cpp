#include "ml/knn.hpp"

#include <algorithm>
#include <cmath>

#include "ml/io.hpp"
#include "support/error.hpp"

namespace mpicp::ml {

void StandardScaler::fit(const Matrix& x) {
  MPICP_REQUIRE(x.rows() >= 1, "cannot fit scaler on empty data");
  const std::size_t d = x.cols();
  mean_.assign(d, 0.0);
  inv_std_.assign(d, 1.0);
  for (std::size_t f = 0; f < d; ++f) {
    double m = 0.0;
    for (std::size_t i = 0; i < x.rows(); ++i) m += x(i, f);
    m /= static_cast<double>(x.rows());
    double var = 0.0;
    for (std::size_t i = 0; i < x.rows(); ++i) {
      var += (x(i, f) - m) * (x(i, f) - m);
    }
    var /= static_cast<double>(x.rows());
    mean_[f] = m;
    inv_std_[f] = var > 0.0 ? 1.0 / std::sqrt(var) : 1.0;
  }
}

std::vector<double> StandardScaler::transform(
    std::span<const double> row) const {
  MPICP_REQUIRE(row.size() == mean_.size(), "scaler dimension mismatch");
  std::vector<double> out(row.size());
  for (std::size_t f = 0; f < row.size(); ++f) {
    out[f] = (row[f] - mean_[f]) * inv_std_[f];
  }
  return out;
}

void StandardScaler::save(std::ostream& os) const {
  io::write_tag(os, "scaler");
  io::write_vector(os, mean_);
  io::write_vector(os, inv_std_);
}

void StandardScaler::load(std::istream& is) {
  io::expect_tag(is, "scaler");
  mean_ = io::read_vector<double>(is);
  inv_std_ = io::read_vector<double>(is);
}

KnnRegressor::KnnRegressor(KnnParams params) : params_(params) {
  MPICP_REQUIRE(params_.k >= 1, "k must be positive");
}

void KnnRegressor::fit(const Matrix& x, std::span<const double> y) {
  MPICP_REQUIRE(x.rows() == y.size() && !y.empty(),
                "training data shape mismatch");
  targets_.assign(y.begin(), y.end());
  points_ = Matrix(x.rows(), x.cols());
  if (params_.scale_inputs) {
    scaler_.fit(x);
    for (std::size_t i = 0; i < x.rows(); ++i) {
      const auto scaled = scaler_.transform(x.row(i));
      std::copy(scaled.begin(), scaled.end(), points_.row(i).begin());
    }
  } else {
    for (std::size_t i = 0; i < x.rows(); ++i) {
      std::copy(x.row(i).begin(), x.row(i).end(), points_.row(i).begin());
    }
  }
}

namespace {

/// Max-heap of (distance, index) capped at k elements. The pair order
/// is the tie rule: a point enters iff it precedes the current k-th
/// neighbour by (distance, row index), so the neighbour set depends on
/// the training multiset only, never on the order points are offered.
void heap_offer(std::vector<std::pair<double, int>>& heap, std::size_t k,
                double dist, int idx) {
  if (heap.size() < k) {
    heap.emplace_back(dist, idx);
    std::push_heap(heap.begin(), heap.end());
  } else if (std::pair(dist, idx) < heap.front()) {
    std::pop_heap(heap.begin(), heap.end());
    heap.back() = {dist, idx};
    std::push_heap(heap.begin(), heap.end());
  }
}

}  // namespace

double KnnRegressor::query(std::span<const double> scaled) const {
  std::vector<std::pair<double, int>> heap;
  const auto k = static_cast<std::size_t>(params_.k);
  for (std::size_t i = 0; i < points_.rows(); ++i) {
    heap_offer(heap, k, sq_dist(scaled, points_.row(i)), static_cast<int>(i));
  }
  MPICP_ASSERT(!heap.empty(), "knn query on empty model");
  // Sum in ascending (distance, row) order: the mean's bits then depend
  // on the neighbour set alone.
  std::sort_heap(heap.begin(), heap.end());
  double acc = 0.0;
  for (const auto& [dist, idx] : heap) acc += targets_[idx];
  return acc / static_cast<double>(heap.size());
}

void KnnRegressor::save(std::ostream& os) const {
  io::write_tag(os, "knn");
  io::write_value(os, params_.k);
  io::write_value(os, params_.scale_inputs ? 1 : 0);
  scaler_.save(os);
  io::write_value(os, points_.rows());
  io::write_value(os, points_.cols());
  for (std::size_t i = 0; i < points_.rows(); ++i) {
    for (std::size_t f = 0; f < points_.cols(); ++f) {
      io::write_value(os, points_(i, f));
    }
  }
  io::write_vector(os, targets_);
}

void KnnRegressor::load(std::istream& is) {
  io::expect_tag(is, "knn");
  params_.k = io::read_value<int>(is);
  params_.scale_inputs = io::read_value<int>(is) != 0;
  scaler_.load(is);
  const auto rows = io::read_value<std::size_t>(is);
  const auto cols = io::read_value<std::size_t>(is);
  MPICP_REQUIRE(rows < (1u << 26) && cols < 1024,
                "implausible knn model size");
  points_ = Matrix(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t f = 0; f < cols; ++f) {
      points_(i, f) = io::read_value<double>(is);
    }
  }
  targets_ = io::read_vector<double>(is);
  MPICP_REQUIRE(targets_.size() == rows, "knn model size mismatch");
}

bool KnnRegressor::accepts_width(std::size_t width) const {
  return points_.cols() == width &&
         (!params_.scale_inputs || (scaler_.mean().size() == width &&
                                    scaler_.inv_std().size() == width));
}

double KnnRegressor::predict_one(std::span<const double> x) const {
  MPICP_REQUIRE(!targets_.empty(), "predicting with an unfitted model");
  if (params_.scale_inputs) {
    const auto scaled = scaler_.transform(x);
    return query(scaled);
  }
  return query(x);
}

}  // namespace mpicp::ml
