// Serialization round-trip tests: every learner and the full selector
// must predict identically after save/load.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "ml/learner.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "tune/selector.hpp"

namespace mpicp {
namespace {

struct Synth {
  ml::Matrix x;
  std::vector<double> y;
};

Synth make_synth(std::size_t n, std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  Synth s;
  s.x = ml::Matrix(n, 3);
  s.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.x(i, 0) = rng.uniform(0.0, 22.0);
    s.x(i, 1) = rng.uniform(1.0, 36.0);
    s.x(i, 2) = rng.uniform(1.0, 32.0);
    s.y[i] = std::exp(0.1 * s.x(i, 0) + 0.02 * s.x(i, 1) +
                      0.5 * std::sin(s.x(i, 2)));
  }
  return s;
}

class LearnerRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(LearnerRoundTrip, PredictionsIdenticalAfterSaveLoad) {
  const Synth train = make_synth(300, 1);
  const Synth probe = make_synth(50, 2);
  auto model = ml::make_regressor(GetParam());
  model->fit(train.x, train.y);
  EXPECT_EQ(model->name(), GetParam());

  std::stringstream stream;
  ml::save_regressor(stream, *model);
  const auto restored = ml::load_regressor(stream);
  EXPECT_EQ(restored->name(), model->name());
  for (std::size_t i = 0; i < probe.x.rows(); ++i) {
    EXPECT_DOUBLE_EQ(model->predict_one(probe.x.row(i)),
                     restored->predict_one(probe.x.row(i)))
        << GetParam() << " row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllLearners, LearnerRoundTrip,
                         ::testing::ValuesIn(ml::kLearnerNames));

TEST(SerializationErrors, CorruptHeaderRejected) {
  std::stringstream stream("regresso knn\n");
  EXPECT_THROW(ml::load_regressor(stream), Error);
  std::stringstream unknown("regressor warp9\n");
  EXPECT_THROW(ml::load_regressor(unknown), Error);
}

TEST(SelectorRoundTrip, DecisionsIdenticalAfterSaveLoad) {
  // Small synthetic dataset with two crossing algorithms.
  bench::Dataset ds("t", sim::MpiLib::kOpenMPI, sim::Collective::kBcast,
                    "Hydra");
  support::Xoshiro256 rng(7);
  for (const int n : {2, 4, 8, 16}) {
    for (const int ppn : {1, 4}) {
      for (const std::uint64_t m : {64u, 4096u, 262144u}) {
        const double t1 = 5.0 * n + 0.001 * static_cast<double>(m);
        const double t2 = 20.0 + 0.0004 * static_cast<double>(m) * ppn;
        for (int rep = 0; rep < 2; ++rep) {
          ds.add({1, n, ppn, m, rng.lognormal_median(t1, 0.05)});
          ds.add({2, n, ppn, m, rng.lognormal_median(t2, 0.05)});
        }
      }
    }
  }
  tune::Selector selector(tune::SelectorOptions{.learner = "gam"});
  ASSERT_FALSE(selector.fit(ds, {2, 4, 8, 16}).degraded());

  const auto path = std::filesystem::temp_directory_path() /
                    "mpicp_selector_roundtrip.model";
  selector.save(path);
  const tune::Selector restored = tune::Selector::load(path);
  EXPECT_EQ(restored.options().learner, "gam");
  EXPECT_EQ(restored.uids(), selector.uids());
  for (const int n : {3, 6, 12}) {
    for (const std::uint64_t m : {128u, 65536u}) {
      const bench::Instance inst{n, 2, m};
      EXPECT_EQ(restored.select_uid(inst), selector.select_uid(inst));
      for (const int uid : selector.uids()) {
        EXPECT_DOUBLE_EQ(restored.predicted_time_us(uid, inst),
                         selector.predicted_time_us(uid, inst));
      }
    }
  }
  std::filesystem::remove(path);
}

TEST(SelectorLoad, RejectsRepeatedAndNonPositiveUids) {
  const Synth train = make_synth(60, 3);
  const auto model = ml::make_regressor("linear");
  model->fit(train.x, train.y);
  const auto path =
      std::filesystem::temp_directory_path() / "mpicp_selector_uids.model";
  // A selector file holding the same fitted model under each uid.
  const auto write = [&](const std::vector<int>& uids) {
    std::ofstream os(path);
    os << "mpicp-selector 1\nlinear\n0\n" << uids.size() << '\n';
    for (const int uid : uids) {
      os << uid << '\n';
      ml::save_regressor(os, *model);
    }
  };
  write({1, 2});
  EXPECT_EQ(tune::Selector::load(path).uids(), (std::vector<int>{1, 2}));
  // A repeated uid would drop a model; a uid <= 0 can never be served.
  for (const std::vector<int>& uids : std::vector<std::vector<int>>{
           {1, 1}, {2, 1, 2}, {0, 2}, {-3, 2}, {1, -1}}) {
    write(uids);
    EXPECT_THROW((void)tune::Selector::load(path), ParseError)
        << ::testing::PrintToString(uids);
  }
  std::filesystem::remove(path);
}

TEST(SelectorRoundTrip, SavingUnfittedSelectorThrows) {
  tune::Selector selector;
  EXPECT_THROW(selector.save("/tmp/never_written.model"), Error);
}

}  // namespace
}  // namespace mpicp
