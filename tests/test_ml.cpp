// Tests for the from-scratch ML library: linear algebra, metrics, trees,
// gradient boosting, KNN, splines, GAM, random forest.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "ml/forest.hpp"
#include "ml/gam.hpp"
#include "ml/gbt.hpp"
#include "ml/io.hpp"
#include "ml/knn.hpp"
#include "ml/learner.hpp"
#include "ml/linreg.hpp"
#include "ml/metrics.hpp"
#include "ml/spline.hpp"
#include "ml/tree.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace mpicp::ml {
namespace {

/// Synthetic runtime-like dataset: y = exp of a smooth function of two
/// features, with optional multiplicative noise.
struct Synth {
  Matrix x;
  std::vector<double> y;
};

Synth make_synth(std::size_t n, double noise_sigma, std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  Synth s;
  s.x = Matrix(n, 2);
  s.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform(0.0, 22.0);  // "log2 msize"
    const double b = rng.uniform(1.0, 36.0);  // "nodes"
    s.x(i, 0) = a;
    s.x(i, 1) = b;
    const double log_t =
        0.1 * a + 0.03 * b + 0.5 * std::sin(a / 3.0) + 1.0;
    s.y[i] = std::exp(log_t) *
             (noise_sigma > 0.0 ? rng.lognormal_median(1.0, noise_sigma)
                                : 1.0);
  }
  return s;
}

TEST(MatrixTest, GramAndSolve) {
  Matrix x(3, 2);
  x(0, 0) = 1;
  x(0, 1) = 2;
  x(1, 0) = 3;
  x(1, 1) = 4;
  x(2, 0) = 5;
  x(2, 1) = 6;
  const Matrix g = x.gram();
  EXPECT_DOUBLE_EQ(g(0, 0), 35.0);
  EXPECT_DOUBLE_EQ(g(0, 1), 44.0);
  EXPECT_DOUBLE_EQ(g(1, 0), 44.0);
  EXPECT_DOUBLE_EQ(g(1, 1), 56.0);

  // Solve a small SPD system: A = [[4,1],[1,3]], b = [1,2].
  Matrix a(2, 2);
  a(0, 0) = 4;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  const auto sol = cholesky_solve(a, {1.0, 2.0});
  EXPECT_NEAR(sol[0], 1.0 / 11.0, 1e-9);
  EXPECT_NEAR(sol[1], 7.0 / 11.0, 1e-9);
}

TEST(MatrixTest, SparseRowsMatchDenseProductsBitForBit) {
  // Mostly zero rows with both signed zeros, like a GAM design; every
  // dense term is kept, so the sparse skip must not move a bit.
  support::Xoshiro256 rng(31);
  Matrix x(40, 9);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < x.cols(); ++j) {
      const double u = rng.uniform(0.0, 1.0);
      x(i, j) = u < 0.4 ? 0.0 : u < 0.6 ? -0.0 : rng.uniform(-3.0, 3.0);
    }
  }
  std::vector<double> v(x.rows());
  std::vector<double> beta(x.cols());
  for (double& e : v) e = rng.uniform(-2.0, 2.0);
  for (double& e : beta) e = rng.uniform(-2.0, 2.0);
  v[3] = 0.0;
  beta[2] = -0.0;

  const SparseRows sparse(x);
  const auto same_bits = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  const Matrix g = sparse.gram();
  const Matrix dense_g = x.gram();
  for (std::size_t a = 0; a < x.cols(); ++a) {
    for (std::size_t b = 0; b < x.cols(); ++b) {
      EXPECT_TRUE(same_bits(g(a, b), dense_g(a, b))) << a << "," << b;
    }
  }
  const std::vector<double> xtv = sparse.transpose_times(v);
  const std::vector<double> dense_xtv = x.transpose_times(v);
  for (std::size_t a = 0; a < x.cols(); ++a) {
    EXPECT_TRUE(same_bits(xtv[a], dense_xtv[a])) << a;
  }
  const std::vector<double> xb = sparse.times(beta);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    double acc = 0.0;
    for (std::size_t a = 0; a < x.cols(); ++a) acc += x(i, a) * beta[a];
    EXPECT_TRUE(same_bits(xb[i], acc)) << i;
  }
}

TEST(MatrixTest, SolveRejectsIndefinite) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 5;
  a(1, 0) = 5;
  a(1, 1) = 1;  // indefinite
  // Escalating jitter eventually regularizes it or throws; either way it
  // must not return garbage silently for a wildly indefinite matrix.
  EXPECT_NO_THROW({
    const auto sol = cholesky_solve(a, {1.0, 1.0}, 1e-10);
    (void)sol;
  });
}

TEST(MetricsTest, Basics) {
  const std::vector<double> t = {1, 2, 3};
  const std::vector<double> p = {1, 2, 5};
  EXPECT_NEAR(mae(t, p), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(rmse(t, p), std::sqrt(4.0 / 3.0), 1e-12);
  EXPECT_NEAR(mape(t, p), (2.0 / 3.0) / 3.0, 1e-12);
}

TEST(BinnerTest, LosslessForFewDistinctValues) {
  Matrix x(6, 1);
  const double vals[] = {1, 1, 4, 4, 9, 9};
  for (int i = 0; i < 6; ++i) x(i, 0) = vals[i];
  const FeatureBinner binner(x);
  EXPECT_EQ(binner.num_bins(0), 3);
  EXPECT_EQ(binner.bin_of(0, 1), 0);
  EXPECT_EQ(binner.bin_of(0, 4), 1);
  EXPECT_EQ(binner.bin_of(0, 9), 2);
  EXPECT_EQ(binner.bin_of(0, 100), 2);  // clamp right
}

TEST(TreeTest, FitsStepFunction) {
  Matrix x(100, 1);
  std::vector<GradPair> gh(100);
  for (int i = 0; i < 100; ++i) {
    x(i, 0) = i;
    const double target = i < 50 ? 1.0 : 9.0;
    gh[i] = {-target, 1.0};  // leaf = mean(target)
  }
  const FeatureBinner binner(x);
  RegressionTree tree;
  std::vector<int> rows(100);
  for (int i = 0; i < 100; ++i) rows[i] = i;
  TreeParams params;
  params.lambda = 0.0;
  tree.fit(binner, binner.encode(x), 1, gh, rows, params);
  EXPECT_NEAR(tree.predict_one(std::vector<double>{10.0}), 1.0, 1e-6);
  EXPECT_NEAR(tree.predict_one(std::vector<double>{90.0}), 9.0, 1e-6);
  EXPECT_GE(tree.num_nodes(), 3);
}

TEST(GbtTest, TrainingLossDecreasesMonotonically) {
  const Synth s = make_synth(400, 0.05, 1);
  GradientBoostedTrees model;
  model.fit(s.x, s.y);
  const auto& loss = model.training_loss();
  ASSERT_GE(loss.size(), 10u);
  for (std::size_t i = 1; i < loss.size(); ++i) {
    EXPECT_LE(loss[i], loss[i - 1] + 1e-9) << "round " << i;
  }
}

class GbtObjectives : public ::testing::TestWithParam<GbtObjective> {};

TEST_P(GbtObjectives, RecoversSmoothPositiveFunction) {
  const Synth train = make_synth(800, 0.03, 2);
  const Synth test = make_synth(200, 0.0, 3);
  GbtParams params;
  params.objective = GetParam();
  GradientBoostedTrees model(params);
  model.fit(train.x, train.y);
  const auto pred = model.predict(test.x);
  EXPECT_LT(mape(test.y, pred), 0.15);
  for (const double p : pred) EXPECT_GT(p, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Objectives, GbtObjectives,
                         ::testing::Values(GbtObjective::kSquared,
                                           GbtObjective::kGamma,
                                           GbtObjective::kTweedie));

TEST(GbtTest, FeatureImportanceFindsTheDominantFeature) {
  // y depends strongly on feature 0 and not at all on feature 1 — the
  // gain importance must reflect that (the paper's observation that
  // message size dominates).
  support::Xoshiro256 rng(42);
  Matrix x(500, 2);
  std::vector<double> y(500);
  for (int i = 0; i < 500; ++i) {
    x(i, 0) = rng.uniform(0.0, 10.0);
    x(i, 1) = rng.uniform(0.0, 10.0);
    y[i] = std::exp(0.5 * x(i, 0));
  }
  GradientBoostedTrees model;
  model.fit(x, y);
  const auto imp = model.feature_importance();
  ASSERT_EQ(imp.size(), 2u);
  EXPECT_NEAR(imp[0] + imp[1], 1.0, 1e-9);
  EXPECT_GT(imp[0], 0.95);
}

/// FNV-1a over the bit patterns of `values`.
std::uint64_t bits_digest(std::span<const double> values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double v : values) {
    const auto u = std::bit_cast<std::uint64_t>(v);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (u >> (8 * byte)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

struct GbtPin {
  GbtObjective objective;
  double first_loss;
  double last_loss;
  double prediction;  ///< at training row 0
  std::uint64_t loss_digest;
  std::uint64_t prediction_digest;  ///< every training row
};

/// make_synth's surface with each point repeated in an adjacent run of
/// 1-4 rows with noisy targets, as a dataset's repetitions of one
/// instance are, plus point 0 once more at the end: a repeat that is
/// not adjacent to its first occurrence.
Synth make_runs(std::size_t points, std::uint64_t seed) {
  const Synth base = make_synth(points, 0.0, seed);
  support::Xoshiro256 rng(seed + 1);
  std::vector<std::size_t> src;
  for (std::size_t i = 0; i < points; ++i) {
    src.insert(src.end(), 1 + i % 4, i);
  }
  src.push_back(0);
  Synth s;
  s.x = Matrix(src.size(), base.x.cols());
  s.y.resize(src.size());
  for (std::size_t r = 0; r < src.size(); ++r) {
    for (std::size_t f = 0; f < base.x.cols(); ++f) {
      s.x(r, f) = base.x(src[r], f);
    }
    s.y[r] = base.y[src[r]] * rng.lognormal_median(1.0, 0.05);
  }
  return s;
}

TEST(GbtTest, FitIsPinnedBitForBit) {
  // Pinned from the fit that recomputed each row's exponentials in the
  // loss and re-walked every new tree for the score update: computing
  // them once per round and reading scores off the build's leaves must
  // not move a single bit.
  const GbtPin pins[] = {
      {GbtObjective::kSquared, 0x1.f487e034a4349p+6, 0x1.03f1559d6ec03p-1,
       0x1.636c107889e05p+3, 12227590040572307120ULL,
       16634599982351061751ULL},
      {GbtObjective::kGamma, 0x1.f441b3402b5bp+1, 0x1.d598566ca5c1dp+1,
       0x1.5d76cb7f2ac6ep+3, 16126457179496534945ULL,
       434929780736233550ULL},
      {GbtObjective::kTweedie, 0x1.11f7c1e08427dp+4, 0x1.00fcc5a6e9c66p+4,
       0x1.589cfe02e8e99p+3, 11450466493193068277ULL,
       12098198565883792721ULL},
  };
  const Synth s = make_synth(300, 0.05, 7);
  for (const GbtPin& pin : pins) {
    GbtParams params;
    params.objective = pin.objective;
    params.rounds = 40;
    GradientBoostedTrees model(params);
    model.fit(s.x, s.y);
    const std::vector<double>& loss = model.training_loss();
    ASSERT_EQ(loss.size(), 40u);
    const std::vector<double> pred = model.predict(s.x);
    const std::string where =
        "objective " + std::to_string(static_cast<int>(pin.objective));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(loss.front()),
              std::bit_cast<std::uint64_t>(pin.first_loss))
        << where << std::hexfloat << ": " << loss.front();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(loss.back()),
              std::bit_cast<std::uint64_t>(pin.last_loss))
        << where << std::hexfloat << ": " << loss.back();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(pred.front()),
              std::bit_cast<std::uint64_t>(pin.prediction))
        << where << std::hexfloat << ": " << pred.front();
    EXPECT_EQ(bits_digest(loss), pin.loss_digest) << where;
    EXPECT_EQ(bits_digest(pred), pin.prediction_digest) << where;
  }

  // Pinned before a row could reuse the previous row's exponentials:
  // runs of equal rows share a score, so they take the reuse path, and
  // every row whose score changes must recompute.
  const GbtPin run_pins[] = {
      {GbtObjective::kSquared, 0x1.00d746e3fa8bp+7, 0x1.be92cc07353edp-1,
       0x1.e27da40e4e988p+3, 3452666773587437864ULL,
       5744524043026424852ULL},
      {GbtObjective::kGamma, 0x1.fdd75e1d03991p+1, 0x1.df806b8524aa2p+1,
       0x1.e32be3050abbap+3, 10450304838046292836ULL,
       10546984096539486320ULL},
      {GbtObjective::kTweedie, 0x1.1c6b6a58cfa99p+4, 0x1.0b487758e2fbbp+4,
       0x1.e2cee584635cbp+3, 9781140672391648687ULL,
       3599876680123850645ULL},
  };
  const Synth runs = make_runs(120, 17);
  for (const GbtPin& pin : run_pins) {
    GbtParams params;
    params.objective = pin.objective;
    params.rounds = 40;
    GradientBoostedTrees model(params);
    model.fit(runs.x, runs.y);
    const std::vector<double>& loss = model.training_loss();
    ASSERT_EQ(loss.size(), 40u);
    const std::vector<double> pred = model.predict(runs.x);
    const std::string where =
        "runs, objective " + std::to_string(static_cast<int>(pin.objective));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(loss.front()),
              std::bit_cast<std::uint64_t>(pin.first_loss))
        << where << std::hexfloat << ": " << loss.front();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(loss.back()),
              std::bit_cast<std::uint64_t>(pin.last_loss))
        << where << std::hexfloat << ": " << loss.back();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(pred.front()),
              std::bit_cast<std::uint64_t>(pin.prediction))
        << where << std::hexfloat << ": " << pred.front();
    EXPECT_EQ(bits_digest(loss), pin.loss_digest) << where;
    EXPECT_EQ(bits_digest(pred), pin.prediction_digest) << where;
  }
}

TEST(GbtTest, RejectsNonPositiveTargetsForLogLink) {
  Matrix x(2, 1);
  x(1, 0) = 1;
  GradientBoostedTrees model;
  EXPECT_THROW(model.fit(x, std::vector<double>{1.0, -1.0}), Error);
}

TEST(KnnTest, ExactOnTrainingPointsForK1) {
  const Synth s = make_synth(200, 0.0, 4);
  KnnParams params;
  params.k = 1;
  KnnRegressor model(params);
  model.fit(s.x, s.y);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_NEAR(model.predict_one(s.x.row(i)), s.y[i], 1e-9);
  }
}

TEST(KnnTest, EqualDistancesBreakByRowAndSumInThatOrder) {
  // Rows 0-6 lie at squared distance 1 from the origin, rows 7.. far
  // away. The neighbours are rows 0-4 by (distance, row), and their
  // targets are summed in that order: a cancelling 1e17 pair makes any
  // other order, or any other row, change the bits.
  const double ring[7][2] = {{1, 0}, {0, 1},  {-1, 0}, {0, -1},
                             {1, 0}, {0, 1}, {-1, 0}};
  const double ring_y[7] = {1e17, 1.0, -1e17, 1.0, 3.0, 1e9, 1e9};
  const std::size_t far_rows = 40;
  Matrix x(7 + far_rows, 2);
  std::vector<double> y(7 + far_rows);
  for (std::size_t r = 0; r < 7; ++r) {
    x(r, 0) = ring[r][0];
    x(r, 1) = ring[r][1];
    y[r] = ring_y[r];
  }
  for (std::size_t r = 7; r < x.rows(); ++r) {
    x(r, 0) = 10.0 + static_cast<double>(r);
    x(r, 1) = -5.0 - static_cast<double>(r % 7);
    y[r] = 1e12;
  }
  const double expected =
      ((((ring_y[0] + ring_y[1]) + ring_y[2]) + ring_y[3]) + ring_y[4]) /
      5.0;
  const std::vector<double> origin = {0.0, 0.0};
  KnnParams params;
  params.scale_inputs = false;
  KnnRegressor model(params);
  model.fit(x, y);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(model.predict_one(origin)),
            std::bit_cast<std::uint64_t>(expected))
      << "got " << model.predict_one(origin);
}

TEST(KnnTest, PayloadInTheKdTreeFormatIsAParseError) {
  // The knn payload once carried a kd-tree flag after scale_inputs.
  // Such a payload must fail to parse, never load one field off.
  const Synth s = make_synth(40, 0.0, 11);
  KnnRegressor model;
  model.fit(s.x, s.y);
  std::ostringstream current;
  model.save(current);
  const std::string body = current.str();
  // Tag, k, scale_inputs: the flag went after the third line.
  std::size_t at = 0;
  for (int line = 0; line < 3; ++line) at = body.find('\n', at) + 1;
  for (const char* flag : {"1\n", "0\n"}) {
    const std::string old_body = body.substr(0, at) + flag + body.substr(at);
    std::istringstream bare(old_body);
    KnnRegressor loaded;
    EXPECT_THROW(loaded.load(bare), ParseError) << flag;
    // The same payload, correctly sealed in a regressor-v2 envelope.
    std::ostringstream sealed;
    sealed << "regressor-v2 knn " << old_body.size() << ' ' << std::hex
           << io::fnv1a64(old_body) << '\n'
           << old_body;
    std::istringstream enveloped(sealed.str());
    EXPECT_THROW((void)load_regressor(enveloped), ParseError) << flag;
  }
  // The current payload round-trips.
  std::istringstream round(body);
  KnnRegressor loaded;
  loaded.load(round);
  EXPECT_EQ(loaded.predict_one(s.x.row(0)), model.predict_one(s.x.row(0)));
}

TEST(KnnTest, GeneralizesSmoothFunction) {
  const Synth train = make_synth(1000, 0.03, 7);
  const Synth test = make_synth(100, 0.0, 8);
  KnnRegressor model;
  model.fit(train.x, train.y);
  const auto pred = model.predict(test.x);
  EXPECT_LT(mape(test.y, pred), 0.2);
}

TEST(SplineTest, PartitionOfUnity) {
  const BSplineBasis basis(0.0, 10.0, 8);
  for (double x = 0.0; x <= 10.0; x += 0.173) {
    const auto b = basis.evaluate(x);
    double sum = 0.0;
    for (const double v : b) {
      EXPECT_GE(v, -1e-12);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9) << "x=" << x;
  }
}

TEST(SplineTest, PenaltyVanishesForLinearCoefficients) {
  const BSplineBasis basis(0.0, 1.0, 6);
  const Matrix pen = basis.penalty();
  // beta linear in index -> second differences zero -> beta' S beta = 0.
  double quad = 0.0;
  for (int a = 0; a < 6; ++a) {
    for (int b = 0; b < 6; ++b) {
      quad += (2.0 * a + 1.0) * pen(a, b) * (2.0 * b + 1.0);
    }
  }
  EXPECT_NEAR(quad, 0.0, 1e-9);
}

TEST(GamTest, FitsMultiplicativeSurface) {
  const Synth train = make_synth(800, 0.03, 9);
  const Synth test = make_synth(200, 0.0, 10);
  GamRegressor model;
  model.fit(train.x, train.y);
  const auto pred = model.predict(test.x);
  EXPECT_LT(mape(test.y, pred), 0.12);
  for (const double p : pred) EXPECT_GT(p, 0.0);
  EXPECT_GE(model.iterations_used(), 1);
}

TEST(GamTest, FitIsPinnedBitForBit) {
  // Pinned from the fit that built each design row as its own matrix,
  // multiplied every zero basis value and refactored the normal matrix
  // on every iteration.
  const Synth runs = make_runs(150, 23);
  GamRegressor model;
  model.fit(runs.x, runs.y);
  const std::vector<double> pred = model.predict(runs.x);
  EXPECT_EQ(model.iterations_used(), 6);
  EXPECT_EQ(bits_digest(model.beta()), 17260135789235317853ULL);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(pred.front()),
            std::bit_cast<std::uint64_t>(0x1.5fb53035ec329p+3))
      << std::hexfloat << pred.front();
  EXPECT_EQ(bits_digest(pred), 12751317027293100361ULL);
}

TEST(GamTest, RejectsNonPositiveTargets) {
  Matrix x(3, 1);
  GamRegressor model;
  EXPECT_THROW(model.fit(x, std::vector<double>{1.0, 0.0, 2.0}), Error);
}

TEST(GamTest, RejectsNonFiniteTargetsAndFeatures) {
  Matrix x(3, 1);
  GamRegressor model;
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(model.fit(x, std::vector<double>{1.0, inf, 2.0}), Error);
  x(1, 0) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(model.fit(x, std::vector<double>{1.0, 3.0, 2.0}), Error);
}

TEST(ForestTest, FitsAndIsDeterministic) {
  const Synth train = make_synth(500, 0.05, 11);
  const Synth test = make_synth(100, 0.0, 12);
  RandomForest a;
  RandomForest b;
  a.fit(train.x, train.y);
  b.fit(train.x, train.y);
  const auto pa = a.predict(test.x);
  const auto pb = b.predict(test.x);
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_DOUBLE_EQ(pa[i], pb[i]);
  }
  EXPECT_LT(mape(test.y, pa), 0.2);
}

TEST(ForestTest, FitIsPinnedBitForBit) {
  // Pinned from the tree build that copied each node's rows into two
  // fresh vectors. Bootstrap samples repeat rows, and the build must
  // keep every node's rows in their sampled order.
  const Synth s = make_synth(300, 0.05, 29);
  ForestParams params;
  params.num_trees = 25;
  RandomForest model(params);
  model.fit(s.x, s.y);
  const std::vector<double> pred = model.predict(s.x);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(pred.front()),
            std::bit_cast<std::uint64_t>(0x1.433ffa6ba33b4p+3))
      << std::hexfloat << pred.front();
  EXPECT_EQ(bits_digest(pred), 16636189386707265745ULL);
}

TEST(LinearTest, RecoversLogLinearModel) {
  support::Xoshiro256 rng(13);
  Matrix x(300, 2);
  std::vector<double> y(300);
  for (int i = 0; i < 300; ++i) {
    x(i, 0) = rng.uniform(0.0, 10.0);
    x(i, 1) = rng.uniform(0.0, 5.0);
    y[i] = std::exp(0.5 + 0.2 * x(i, 0) - 0.1 * x(i, 1));
  }
  LinearRegressor model;
  model.fit(x, y);
  EXPECT_NEAR(model.coefficients()[0], 0.5, 1e-6);
  EXPECT_NEAR(model.coefficients()[1], 0.2, 1e-6);
  EXPECT_NEAR(model.coefficients()[2], -0.1, 1e-6);
}

TEST(LinearTest, CannotFitNonlinearSurfaceWellButGbtCan) {
  // The paper's observation: linear regression fails on these surfaces.
  const Synth train = make_synth(800, 0.0, 14);
  const Synth test = make_synth(200, 0.0, 15);
  LinearRegressor lin;
  lin.fit(train.x, train.y);
  GradientBoostedTrees gbt;
  gbt.fit(train.x, train.y);
  const double lin_err = mape(test.y, lin.predict(test.x));
  const double gbt_err = mape(test.y, gbt.predict(test.x));
  EXPECT_LT(gbt_err, lin_err);
}

TEST(FactoryTest, AllLearnersConstructAndFit) {
  const Synth s = make_synth(150, 0.05, 17);
  for (const char* name : kLearnerNames) {
    auto model = make_regressor(name);
    model->fit(s.x, s.y);
    const double p = model->predict_one(s.x.row(0));
    EXPECT_GT(p, 0.0) << name;
    EXPECT_TRUE(std::isfinite(p)) << name;
  }
  EXPECT_THROW(make_regressor("nope"), InvalidArgument);
}

}  // namespace
}  // namespace mpicp::ml
