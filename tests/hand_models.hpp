// Hand-built models and selector files, shared by the serving suites
// (test_compiled_bank, test_faults). A poisoned prediction comes from a
// real model, so a test of the argmin screen runs the production
// serving path:
//  * hand_gbt — a squared-loss GBT (raw sums, no link), so leaves may
//    sum to a negative time or overflow to +inf;
//  * hand_linear — a linear model with no link, which predicts any
//    constant (0, -1) or, from overflowing coefficients, +inf
//    (kInfBeta) and NaN (kNanBeta: inf + -inf).
#pragma once

#include <array>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ml/gbt.hpp"
#include "ml/learner.hpp"
#include "tune/compiled_bank.hpp"
#include "tune/selector.hpp"

namespace mpicp::hand_models {

using Models = std::vector<std::unique_ptr<ml::Regressor>>;

/// One node of a hand-built tree, in preorder; children are indices
/// into the same tree.
struct HandNode {
  int feature = -1;
  double threshold = 0.0;
  int left = -1;
  int right = -1;
  double value = 0.0;
};

inline HandNode leaf(double value) { return {-1, 0.0, -1, -1, value}; }

/// x[f] < t ? below : above.
inline std::vector<HandNode> stump(int f, double t, double below,
                                   double above) {
  return {{f, t, 1, 2, 0.0}, leaf(below), leaf(above)};
}

/// Split f0 at t0, then both sides split f1 at t1; leaves in walk order.
inline std::vector<HandNode> cross(int f0, double t0, int f1, double t1,
                                   std::array<double, 4> leaves) {
  return {{f0, t0, 1, 4, 0.0}, {f1, t1, 2, 3, 0.0}, leaf(leaves[0]),
          leaf(leaves[1]),     {f1, t1, 5, 6, 0.0}, leaf(leaves[2]),
          leaf(leaves[3])};
}

/// A squared-loss GBT (no link: raw sums, so leaves may go negative) of
/// the given trees over the four instance features.
inline std::unique_ptr<ml::Regressor> hand_gbt(
    double base, const std::vector<std::vector<HandNode>>& trees) {
  std::ostringstream os;
  os << std::setprecision(17) << "gbt\n"
     << static_cast<int>(ml::GbtObjective::kSquared) << "\n1.5\n4\n"
     << base << '\n'
     << trees.size() << '\n';
  for (const auto& tree : trees) {
    os << "tree\n" << tree.size() << '\n';
    for (const HandNode& n : tree) {
      os << n.feature << ' ' << n.threshold << ' ' << n.left << ' '
         << n.right << ' ' << n.value << " 0\n";
    }
  }
  auto model = ml::make_regressor("xgboost");
  std::istringstream is(os.str());
  model->load(is);
  return model;
}

/// A hand GBT predicting `value` everywhere. Its one split (log2 msize
/// at 10) gives it a rank-cell table, so a bank of tree ensembles
/// keeps its argmin table.
inline std::unique_ptr<ml::Regressor> constant_gbt(double value) {
  return hand_gbt(value, {stump(0, 10.0, 0.0, 0.0)});
}

/// Linear coefficients over (1, log2 msize, nodes, ppn, p).
using LinearBeta = std::array<double, 5>;

/// +inf on every instance: 1e308 + 1e308 * nodes overflows.
inline constexpr LinearBeta kInfBeta = {1e308, 0.0, 1e308, 0.0, 0.0};
/// NaN wherever nodes >= 2 and ppn >= 2: 1e308 * nodes overflows to
/// +inf and -1e308 * ppn to -inf.
inline constexpr LinearBeta kNanBeta = {0.0, 0.0, 1e308, -1e308, 0.0};

/// A linear model with no link (log_target 0), so it predicts
/// beta . (1, x) as is, negative and non-finite sums included.
inline std::unique_ptr<ml::Regressor> hand_linear(const LinearBeta& beta) {
  std::ostringstream os;
  os << std::setprecision(17) << "linear\n0\n" << beta.size() << '\n';
  for (const double b : beta) os << b << '\n';
  auto model = ml::make_regressor("linear");
  std::istringstream is(os.str());
  model->load(is);
  return model;
}

/// A hand_linear predicting `value` everywhere.
inline std::unique_ptr<ml::Regressor> constant_linear(double value) {
  return hand_linear({value, 0.0, 0.0, 0.0, 0.0});
}

/// Writes a selector file serving `models` under `uids` (every model
/// over the four instance features) and returns its path.
inline std::filesystem::path write_selector(const std::string& name,
                                            const std::string& learner,
                                            const std::vector<int>& uids,
                                            const Models& models) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / ("mpicp_cb_" + name + ".txt");
  std::ofstream os(path);
  os << "mpicp-selector 1\n" << learner << "\n1\n" << uids.size() << '\n';
  for (std::size_t i = 0; i < uids.size(); ++i) {
    os << uids[i] << '\n';
    ml::save_regressor(os, *models[i]);
  }
  return path;
}

/// The uids and models of a selector file, loaded one by one as
/// Selector::load does, so a reference can call each model directly.
inline std::pair<std::vector<int>, Models> load_models(
    const std::filesystem::path& path) {
  std::ifstream is(path);
  std::string tag;
  std::string learner;
  int version = 0;
  int with_p = 0;
  std::size_t count = 0;
  is >> tag >> version >> learner >> with_p >> count;
  std::pair<std::vector<int>, Models> out;
  for (std::size_t i = 0; i < count; ++i) {
    int uid = 0;
    is >> uid;
    out.first.push_back(uid);
    out.second.push_back(ml::load_regressor(is));
  }
  return out;
}

/// The uids and models of a fitted selector, through its saved file, so
/// a test can swap single models and serve the rest unchanged.
inline std::pair<std::vector<int>, Models> selector_models(
    const tune::Selector& selector, const std::string& name) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("mpicp_cb_" + name + "_fitted.txt");
  selector.save(path);
  auto out = load_models(path);
  std::filesystem::remove(path);
  return out;
}

/// A selector serving `models` under `uids`, loaded from a file as a
/// server loads one, and its compiled bank.
struct ServedBank {
  tune::Selector selector;
  tune::CompiledBank bank;
};

inline ServedBank serve(const std::string& name, const std::string& learner,
                        const std::vector<int>& uids, const Models& models) {
  const auto path = write_selector(name, learner, uids, models);
  tune::Selector selector = tune::Selector::load(path);
  std::filesystem::remove(path);
  tune::CompiledBank bank = selector.compile();
  return {std::move(selector), std::move(bank)};
}

}  // namespace mpicp::hand_models
