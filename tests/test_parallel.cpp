// Tests for the parallel execution layer: pool lifecycle, parallel_for
// semantics (exception propagation, nested-use guard), and the
// bit-identical determinism contract of the parallelized model-bank
// paths (Selector::fit / select_uid / predict_all, evaluate) across
// thread counts.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "collbench/dataset.hpp"
#include "collbench/defaults.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "tune/evaluator.hpp"
#include "tune/selector.hpp"

namespace mpicp::support {
namespace {

TEST(ThreadPool, StartStopAndDrain) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.workers(), 4);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  }  // destructor drains the queue and joins
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ZeroWorkerPoolIsValid) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 0);
}

TEST(ThreadPool, RejectsInvalidSize) {
  EXPECT_THROW(ThreadPool(-1), Error);
  EXPECT_THROW(ThreadPool(100000), Error);
}

TEST(Threads, ConfiguredThreadsHonorsScopedOverride) {
  {
    ScopedThreads serial(1);
    EXPECT_EQ(configured_threads(), 1);
    {
      ScopedThreads four(4);
      EXPECT_EQ(configured_threads(), 4);
      ScopedThreads hardware(0);
      EXPECT_EQ(configured_threads(), hardware_threads());
    }
    EXPECT_EQ(configured_threads(), 1);  // restored on scope exit
  }
  EXPECT_THROW(ScopedThreads(-2), Error);
}

class ParallelForThreads : public ::testing::TestWithParam<int> {};

TEST_P(ParallelForThreads, VisitsEveryIndexExactlyOnce) {
  ScopedThreads threads(GetParam());
  for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                              std::size_t{7}, std::size_t{1000}}) {
    for (const std::size_t chunk : {std::size_t{0}, std::size_t{1},
                                    std::size_t{3}, std::size_t{2000}}) {
      std::vector<std::atomic<int>> hits(n);
      parallel_for(n, chunk, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " chunk=" << chunk;
      }
    }
  }
}

TEST_P(ParallelForThreads, PropagatesBodyException) {
  ScopedThreads threads(GetParam());
  EXPECT_THROW(
      parallel_for(64, 1,
                   [](std::size_t i) {
                     if (i == 17) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // The pool must remain usable after an exception.
  std::atomic<int> counter{0};
  parallel_for(32, 4, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 32);
}

INSTANTIATE_TEST_SUITE_P(AtThreadCounts, ParallelForThreads,
                         ::testing::Values(1, 2, 4));

TEST(ParallelFor, NestedCallFallsBackToSerial) {
  ScopedThreads threads(4);
  EXPECT_FALSE(in_parallel_region());
  std::atomic<int> inner_total{0};
  parallel_for(8, 1, [&](std::size_t) {
    EXPECT_TRUE(in_parallel_region());
    // The nested region must complete serially instead of deadlocking
    // on the shared pool.
    parallel_for(16, 1, [&](std::size_t) {
      EXPECT_TRUE(in_parallel_region());
      inner_total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_FALSE(in_parallel_region());
  EXPECT_EQ(inner_total.load(), 8 * 16);
}

/// Synthetic crossover dataset (mirrors test_tune) exercising a
/// three-model bank with measurement noise.
bench::Dataset make_synthetic(const std::vector<int>& nodes,
                              std::uint64_t seed) {
  bench::Dataset ds("synth", sim::MpiLib::kIntelMPI,
                    sim::Collective::kAllreduce, "Hydra");
  Xoshiro256 rng(seed);
  for (const int n : nodes) {
    for (const int ppn : {1, 2, 4, 8}) {
      const double p = n * ppn;
      for (const std::uint64_t m :
           {std::uint64_t{16}, std::uint64_t{4096}, std::uint64_t{262144},
            std::uint64_t{1048576}}) {
        const double md = static_cast<double>(m);
        const double t1 = 10.0 * std::log2(p + 1) + 0.01 * md;
        const double t2 = 2.0 * p + 0.001 * md;
        const double t3 = 50.0 + 0.01 * md + p;
        for (int rep = 0; rep < 3; ++rep) {
          ds.add({1, n, ppn, m, rng.lognormal_median(t1, 0.05)});
          ds.add({2, n, ppn, m, rng.lognormal_median(t2, 0.05)});
          ds.add({3, n, ppn, m, rng.lognormal_median(t3, 0.05)});
        }
      }
    }
  }
  return ds;
}

class ParallelDeterminism : public ::testing::TestWithParam<const char*> {};

TEST_P(ParallelDeterminism, SelectorIsBitIdenticalAcrossThreadCounts) {
  const bench::Dataset ds = make_synthetic({2, 4, 8, 16, 32}, 11);
  const std::vector<int> train = {2, 4, 16, 32};
  const std::vector<bench::Instance> queries = {
      {3, 2, 64}, {6, 4, 4096}, {12, 8, 262144}, {24, 1, 1048576}};

  tune::Selector serial(tune::SelectorOptions{.learner = GetParam()});
  tune::Selector parallel(tune::SelectorOptions{.learner = GetParam()});
  {
    ScopedThreads one(1);
    ASSERT_FALSE(serial.fit(ds, train).degraded());
  }
  {
    ScopedThreads four(4);
    ASSERT_FALSE(parallel.fit(ds, train).degraded());
  }
  ASSERT_EQ(serial.uids(), parallel.uids());
  for (const bench::Instance& inst : queries) {
    ScopedThreads four(4);
    const auto parallel_preds = parallel.predict_all(inst);
    ScopedThreads one(1);
    const auto serial_preds = serial.predict_all(inst);
    ASSERT_EQ(serial_preds.size(), parallel_preds.size());
    for (std::size_t i = 0; i < serial_preds.size(); ++i) {
      EXPECT_EQ(serial_preds[i].uid, parallel_preds[i].uid);
      // Bit-identical, not merely close: the parallel schedule must not
      // change any floating-point result.
      EXPECT_EQ(serial_preds[i].time_us, parallel_preds[i].time_us);
    }
    EXPECT_EQ(serial.select_uid(inst), parallel.select_uid(inst));
  }
}

INSTANTIATE_TEST_SUITE_P(Learners, ParallelDeterminism,
                         ::testing::Values("xgboost", "knn", "gam", "rf",
                                           "linear"));

TEST(ParallelDeterminismSuite, EvaluationIsBitIdenticalAcrossThreadCounts) {
  const bench::Dataset ds = make_synthetic({2, 4, 8, 16}, 12);
  struct FixedDefault final : bench::DefaultLogic {
    std::string name() const override { return "fixed"; }
    int select_uid(const bench::Instance&) const override { return 1; }
  };
  tune::Selector selector(tune::SelectorOptions{.learner = "gam"});
  ASSERT_FALSE(selector.fit(ds, {2, 4, 16}).degraded());

  ScopedThreads one(1);
  const tune::Evaluation a = evaluate(ds, selector, FixedDefault{}, {8});
  ScopedThreads four(4);
  const tune::Evaluation b = evaluate(ds, selector, FixedDefault{}, {8});
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(a.rows[i].inst, b.rows[i].inst);
    EXPECT_EQ(a.rows[i].predicted_uid, b.rows[i].predicted_uid);
    EXPECT_EQ(a.rows[i].t_predicted_us, b.rows[i].t_predicted_us);
    EXPECT_EQ(a.rows[i].best_uid, b.rows[i].best_uid);
    EXPECT_EQ(a.rows[i].t_best_us, b.rows[i].t_best_us);
  }
  EXPECT_EQ(a.summary.mean_speedup, b.summary.mean_speedup);
  EXPECT_EQ(a.summary.fraction_optimal, b.summary.fraction_optimal);
}

}  // namespace
}  // namespace mpicp::support
