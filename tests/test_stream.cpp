// Continuous retraining pipeline: drift detection, windowed refit and
// self-healing hot swap (DESIGN.md §13).
//
// Property tests pin the detector's operating characteristic (never
// fires on a stationary stream, always fires within K observations of
// an injected regime shift) over seeded noise; pipeline tests drive a
// full corrupted drifting campaign through StreamPipeline against a
// live BankRegistry and check exact accounting, bounded memory,
// bit-identity across MPICP_THREADS, fault-injected refit rejection
// with recovery, and serving continuity while refits swap banks
// underneath concurrent readers.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <vector>

#include "collbench/dataset.hpp"
#include "collbench/streamgen.hpp"
#include "support/faultinject.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "tune/drift.hpp"
#include "tune/registry.hpp"
#include "tune/stream.hpp"

namespace mpicp {
namespace {

namespace fi = support::faultinject;

tune::BankKey stream_key() {
  return {"Hydra", sim::Collective::kBcast};
}

/// The fixed drifting campaign shared by the pipeline tests (and, with
/// the same constants, the golden snapshot): one mid-stream machine
/// regime swap plus seeded row corruption.
bench::StreamSpec drifting_spec() {
  bench::StreamSpec spec;
  // A compact instance grid: the pipeline's windowed refits train KNN
  // banks (k = 5), so every (uid, configuration) pair needs a handful
  // of window rows before the bank memorizes that configuration's
  // systematic factor.
  spec.uids = {1, 2, 3, 4};
  spec.nodes = {2, 8, 16};
  spec.ppns = {4};
  spec.msizes = {64, 1048576};
  spec.machine_seed = 101;
  spec.shifts = {{600, 202}};
  spec.fault_rate = 0.08;
  spec.seed = 7;
  return spec;
}

tune::StreamOptions pipeline_options() {
  tune::StreamOptions opts;
  // KNN memorizes the per-configuration systematic factors the stream's
  // cost surface carries, so the served bank's stationary error is pure
  // measurement jitter and a regime shift stands out crisply. (A smooth
  // additive learner would fold the factors into its residual and blur
  // the drift signal.)
  opts.selector.learner = "knn";
  return opts;
}

// ---- drift detector properties ------------------------------------------

// A stationary error stream — relative errors that are pure noise
// around zero — must never raise the alarm, at any tested seed: a
// false positive here would trigger refit churn in production.
TEST(DriftDetector, StationaryStreamNeverFires) {
  for (const std::uint64_t seed : {1, 2, 3, 4, 5, 6, 7, 8}) {
    tune::DriftDetector detector;
    support::Xoshiro256 rng(seed);
    for (int i = 0; i < 2000; ++i) {
      const int uid = 1 + i % 4;
      // Multiplicative noise of a well-fit bank: median 1, sigma 0.25,
      // plus a rare straggler-style spike.
      double factor = rng.lognormal_median(1.0, 0.25);
      if (rng.uniform() < 0.01) factor *= 2.0;
      const auto signal = detector.observe(uid, factor - 1.0);
      ASSERT_EQ(signal, tune::DriftSignal::kNone)
          << "seed " << seed << " obs " << i << " max_ewma "
          << detector.max_abs_ewma() << " ph " << detector.ph_statistic();
    }
    EXPECT_FALSE(detector.drifted()) << "seed " << seed;
  }
}

// After an injected shift — the served bank's predictions suddenly run
// a constant factor hot — the alarm must come within K observations,
// at every tested seed. K bounds the pipeline's detection latency.
TEST(DriftDetector, FiresWithinKOfInjectedShift) {
  constexpr int kShiftAt = 600;
  constexpr int kMaxLatency = 200;
  for (const std::uint64_t seed : {11, 12, 13, 14, 15}) {
    tune::DriftDetector detector;
    support::Xoshiro256 rng(seed);
    int fired_at = -1;
    for (int i = 0; i < kShiftAt + kMaxLatency; ++i) {
      const int uid = 1 + i % 4;
      const double median = i < kShiftAt ? 1.0 : 1.6;
      const double rel = rng.lognormal_median(median, 0.25) - 1.0;
      if (detector.observe(uid, rel) != tune::DriftSignal::kNone) {
        fired_at = i;
        break;
      }
    }
    ASSERT_GE(fired_at, kShiftAt) << "seed " << seed;
    EXPECT_LT(fired_at, kShiftAt + kMaxLatency) << "seed " << seed;
    EXPECT_TRUE(detector.drifted());
  }
}

TEST(DriftDetector, ResetClearsAlarmAndStatistics) {
  tune::DriftDetector detector;
  for (int i = 0; i < 300; ++i) {
    (void)detector.observe(1 + i % 2, 1.5);
  }
  ASSERT_TRUE(detector.drifted());
  detector.reset();
  EXPECT_FALSE(detector.drifted());
  EXPECT_EQ(detector.samples(), 0u);
  EXPECT_EQ(detector.max_abs_ewma(), 0.0);
  EXPECT_EQ(detector.ph_statistic(), 0.0);
}

// ---- stream generator ----------------------------------------------------

TEST(MeasurementStream, RegimeScheduleAndFaultAccounting) {
  bench::StreamSpec spec = drifting_spec();
  spec.fault_rate = 0.15;
  bench::MeasurementStream stream(spec);
  EXPECT_EQ(stream.regime_seed_at(0), 101u);
  EXPECT_EQ(stream.regime_seed_at(599), 101u);
  EXPECT_EQ(stream.regime_seed_at(600), 202u);

  std::size_t produced = 0;
  std::size_t faulted = 0;
  for (int i = 0; i < 500; ++i) {
    const auto row = stream.next();
    EXPECT_EQ(row.index, static_cast<std::size_t>(i));
    ++produced;
    if (row.faulted) ++faulted;
    if (row.dropped) {
      EXPECT_TRUE(row.text.empty());
    }
  }
  EXPECT_EQ(stream.rows_produced(), produced);
  EXPECT_EQ(stream.rows_faulted(), faulted);
  EXPECT_GT(faulted, 0u);
  EXPECT_GT(stream.rows_dropped(), 0u);
  EXPECT_LT(stream.rows_dropped(), faulted);

  // The true cost surface moves with the regime: at least one
  // configuration changes its per-uid cost across the shift.
  const bench::Instance inst{8, 4, 65536};
  bool moved = false;
  for (const int uid : spec.uids) {
    if (std::abs(stream.true_time_us(0, uid, inst) -
                 stream.true_time_us(600, uid, inst)) > 1e-9) {
      moved = true;
    }
  }
  EXPECT_TRUE(moved);
}

// ---- pipeline: quarantine accounting ------------------------------------

// Every corrupted row the generator emits must land in quarantine (or
// vanish as a dropped row) — and nothing else may: the stream's fault
// log and the pipeline's ingest accounting reconcile exactly, the same
// contract the file-based tolerant ingest pins in test_faults. Refits
// run alongside (the bootstrap publishes mid-stream) and must not
// disturb the ingest ledger.
TEST(StreamPipeline, QuarantineReconcilesWithFaultLog) {
  bench::StreamSpec spec = drifting_spec();
  spec.shifts.clear();
  spec.fault_rate = 0.15;
  bench::MeasurementStream stream(spec);

  tune::BankRegistry registry;
  tune::StreamPipeline pipeline(registry, pipeline_options());

  for (int i = 0; i < 800; ++i) {
    const auto row = stream.next();
    (void)pipeline.push_row(stream_key(), row.text);
  }

  const tune::StreamPipeline::Stats& stats = pipeline.stats();
  // Dropped rows never reach the pipeline; every other faulted row must
  // be quarantined, every clean row ingested.
  EXPECT_EQ(stats.rows_seen, stream.rows_produced() - stream.rows_dropped());
  EXPECT_EQ(stats.rows_quarantined,
            stream.rows_faulted() - stream.rows_dropped());
  EXPECT_EQ(stats.rows_ingested, stats.rows_seen - stats.rows_quarantined);
  // The reasons are exactly the tolerant-ingest vocabulary.
  for (const auto& [reason, count] : stats.quarantine_reasons) {
    EXPECT_TRUE(reason == "row width mismatch" ||
                reason == "unparseable field" ||
                reason == "non-finite time" ||
                reason == "non-positive time" ||
                reason == "implausible time" ||
                reason == "bad configuration key")
        << reason;
    EXPECT_GT(count, 0u);
  }
}

// Keys that do not fit their fields are quarantined, not wrapped: -5
// would become msize 2^64 - 5 and 4294967297 would become uid 1.
TEST(StreamPipeline, OutOfRangeKeysAreQuarantined) {
  tune::BankRegistry registry;
  tune::StreamPipeline pipeline(registry, pipeline_options());
  for (const char* row :
       {"1,2,4,-5,10.0", "4294967297,2,4,64,10.0", "1,-4294967295,4,64,10.0",
        "1,2,4294967300,64,10.0"}) {
    const auto out = pipeline.push_row(stream_key(), row);
    EXPECT_FALSE(out.ingested) << row;
    EXPECT_EQ(out.quarantine_reason, "bad configuration key") << row;
  }
  const auto out = pipeline.push_row(stream_key(), "1,2,4,64,10.0");
  EXPECT_TRUE(out.ingested);
  const auto stats = pipeline.stats();
  EXPECT_EQ(stats.rows_quarantined, 4u);
  EXPECT_EQ(stats.quarantine_reasons.at("bad configuration key"), 4u);
  EXPECT_EQ(stats.rows_ingested, 1u);
}

// ---- pipeline: bounded memory -------------------------------------------

TEST(StreamPipeline, WindowStaysBounded) {
  bench::StreamSpec spec = drifting_spec();
  spec.shifts.clear();
  spec.fault_rate = 0.0;
  bench::MeasurementStream stream(spec);

  tune::BankRegistry registry;
  tune::StreamPipeline pipeline(registry, pipeline_options());

  // Three times the window plus its holdout slice, so both evict.
  constexpr std::size_t kRows =
      3 * (tune::StreamPipeline::kWindowCapacity +
           tune::StreamPipeline::kWindowCapacity /
               tune::StreamPipeline::kHoldoutEvery);
  for (std::size_t i = 0; i < kRows; ++i) {
    (void)pipeline.push_row(stream_key(), stream.next().text);
  }
  const auto stats = pipeline.stats();
  EXPECT_LE(pipeline.window_size(stream_key()),
            tune::StreamPipeline::kWindowCapacity);
  EXPECT_LE(pipeline.holdout_size(stream_key()),
            tune::StreamPipeline::kWindowCapacity /
                tune::StreamPipeline::kHoldoutEvery);
  EXPECT_EQ(stats.rows_ingested, kRows);
  EXPECT_GT(stats.window_evictions, 0u);
  // Every ingested row is windowed, held out, evicted, or discarded by
  // a drift alarm — exactly one of them.
  EXPECT_EQ(stats.window_evictions,
            stats.rows_ingested - pipeline.window_size(stream_key()) -
                pipeline.holdout_size(stream_key()) -
                stats.rows_discarded_on_drift);
}

// ---- pipeline: detect -> refit -> validate -> swap ----------------------

TEST(StreamPipeline, DriftTriggersExactlyOneAcceptedSwap) {
  bench::MeasurementStream stream(drifting_spec());
  tune::BankRegistry registry;
  tune::StreamPipeline pipeline(registry, pipeline_options());
  const tune::BankKey key = stream_key();

  std::uint64_t bootstrap_version = 0;
  for (int i = 0; i < 1200; ++i) {
    const auto out = pipeline.push_row(key, stream.next().text);
    if (out.published && bootstrap_version == 0) {
      bootstrap_version = registry.version(key);
    }
  }
  const auto& stats = pipeline.stats();

  // One bootstrap publish, one drift detection, one accepted refit.
  ASSERT_GT(bootstrap_version, 0u) << "bootstrap refit never published";
  EXPECT_EQ(stats.drift_detections, 1u);
  EXPECT_EQ(stats.refits_published, 2u);
  EXPECT_EQ(stats.refits_rejected, 0u);
  EXPECT_EQ(stats.refits_failed, 0u);
  EXPECT_EQ(stats.refits_attempted, 2u);

  // Detection must come after the shift at row 600 and within a bounded
  // latency window.
  ASSERT_EQ(stats.detection_rows.size(), 1u);
  EXPECT_GT(stats.detection_rows[0], 600u);
  EXPECT_LT(stats.detection_rows[0], 1000u);

  // The serving version moved on from the bootstrap bank exactly once.
  EXPECT_NE(registry.version(key), bootstrap_version);

  // Post-swap selections come bit-identically from the refit bank.
  const auto bank = registry.lookup(key);
  ASSERT_NE(bank, nullptr);
  std::vector<bench::Instance> grid;
  for (const int n : {2, 4, 8, 16}) {
    for (const int ppn : {1, 4}) {
      for (const std::uint64_t m : {std::uint64_t{64}, std::uint64_t{65536},
                                    std::uint64_t{1048576}}) {
        grid.push_back({n, ppn, m});
      }
    }
  }
  const std::vector<int> via_registry = registry.select_grid(key, grid);
  const std::vector<int> via_bank = bank->select_grid(grid);
  EXPECT_EQ(via_registry, via_bank);
}

// The whole campaign — ingest accounting, detection offsets, refit
// decisions, final selections — must agree bit-for-bit at any
// MPICP_THREADS: refits parallelize inside, but every merge is
// deterministic.
TEST(StreamPipeline, CampaignIsBitIdenticalAcrossThreadCounts) {
  struct Outcome {
    tune::StreamPipeline::Stats stats;
    std::vector<int> selections;
  };
  const auto run = [](int threads) {
    support::ScopedThreads scoped(threads);
    bench::MeasurementStream stream(drifting_spec());
    tune::BankRegistry registry;
    tune::StreamPipeline pipeline(registry, pipeline_options());
    for (int i = 0; i < 1200; ++i) {
      (void)pipeline.push_row(stream_key(), stream.next().text);
    }
    Outcome out;
    out.stats = pipeline.stats();
    for (const int n : {3, 6, 12}) {
      for (const std::uint64_t m :
           {std::uint64_t{64}, std::uint64_t{65536}}) {
        out.selections.push_back(registry.select_uid_or_default(
            stream_key(), {n, 2, m}, sim::MpiLib::kOpenMPI));
      }
    }
    return out;
  };
  const Outcome a = run(1);
  const Outcome b = run(4);
  EXPECT_EQ(a.stats.rows_seen, b.stats.rows_seen);
  EXPECT_EQ(a.stats.rows_ingested, b.stats.rows_ingested);
  EXPECT_EQ(a.stats.rows_quarantined, b.stats.rows_quarantined);
  EXPECT_EQ(a.stats.quarantine_reasons, b.stats.quarantine_reasons);
  EXPECT_EQ(a.stats.drift_detections, b.stats.drift_detections);
  EXPECT_EQ(a.stats.detection_rows, b.stats.detection_rows);
  EXPECT_EQ(a.stats.refits_attempted, b.stats.refits_attempted);
  EXPECT_EQ(a.stats.refits_published, b.stats.refits_published);
  EXPECT_EQ(a.stats.refits_rejected, b.stats.refits_rejected);
  EXPECT_EQ(a.stats.refits_failed, b.stats.refits_failed);
  EXPECT_EQ(a.stats.backoff_skips, b.stats.backoff_skips);
  EXPECT_EQ(a.stats.window_evictions, b.stats.window_evictions);
  EXPECT_EQ(a.selections, b.selections);
}

// ---- pipeline: rejection, backoff and self-healing ----------------------

// While fit faults are armed, every drift-triggered refit fails — the
// incumbent bank must keep serving, attempts must back off
// exponentially (bounded attempt count), and once the faults clear the
// next refit heals the pipeline.
TEST(StreamPipeline, FaultedRefitKeepsIncumbentThenHeals) {
  bench::MeasurementStream stream(drifting_spec());
  tune::BankRegistry registry;
  tune::StreamPipeline pipeline(registry, pipeline_options());
  const tune::BankKey key = stream_key();

  // Phase 1: clean pre-shift stream bootstraps the first bank.
  for (int i = 0; i < 600; ++i) {
    (void)pipeline.push_row(key, stream.next().text);
  }
  const std::uint64_t bootstrap_version = registry.version(key);
  ASSERT_GT(bootstrap_version, 0u);
  ASSERT_EQ(pipeline.stats().refits_published, 1u);

  // Phase 2: the regime shifts while every fit is forced to fail
  // through the whole fallback chain.
  {
    fi::ScopedFaults faults({.fit_failures = {
        {1, 1000}, {2, 1000}, {3, 1000}, {4, 1000}}});
    for (int i = 0; i < 1200; ++i) {
      (void)pipeline.push_row(key, stream.next().text);
    }
  }
  const auto mid = pipeline.stats();
  EXPECT_EQ(mid.drift_detections, 1u);
  EXPECT_GE(mid.refits_failed, 1u);
  EXPECT_EQ(mid.refits_published, 1u);  // still only the bootstrap
  EXPECT_EQ(registry.version(key), bootstrap_version)
      << "a faulted refit must never replace the incumbent";
  EXPECT_GT(mid.backoff_skips, 0u) << "failed refits must back off";
  // Exponential backoff bounds the attempt storm: 1200 faulted rows at
  // backoff 64 -> 128 -> 256 -> ... (kBackoffInitial, doubling) allow
  // only a handful of attempts.
  EXPECT_LE(mid.refits_failed, 6u);

  // Phase 3: faults cleared — the next due refit publishes and serving
  // moves to the recovered bank.
  for (int i = 0; i < 1200; ++i) {
    (void)pipeline.push_row(key, stream.next().text);
  }
  const auto end = pipeline.stats();
  EXPECT_EQ(end.refits_published, 2u) << "pipeline failed to self-heal";
  EXPECT_NE(registry.version(key), bootstrap_version);
  // Attempt ledger reconciles exactly.
  EXPECT_EQ(end.refits_attempted,
            end.refits_published + end.refits_rejected + end.refits_failed);
}

// A validator that always rejects exercises the registry-level gate
// directly: clean fit, rejected publish, incumbent untouched.
TEST(StreamPipeline, RegistryValidatorRejectionKeepsIncumbent) {
  bench::Dataset ds("stream-reject", sim::MpiLib::kOpenMPI,
                    sim::Collective::kBcast, "Hydra");
  support::Xoshiro256 rng(3);
  for (int i = 0; i < 400; ++i) {
    const int uid = 1 + i % 3;
    const int nodes = 2 << (i % 3);
    const double t = 10.0 + uid * nodes + rng.uniform(0.0, 1.0);
    ds.add({uid, nodes, 2, 4096, t});
  }
  tune::BankRegistry registry;
  const tune::BankKey key{"Hydra", sim::Collective::kBcast};

  const auto first =
      registry.refit_and_publish(key, ds, ds.node_counts(), {});
  ASSERT_TRUE(first.published);
  const std::uint64_t v1 = registry.version(key);

  const auto rejected = registry.refit_and_publish(
      key, ds, ds.node_counts(), {},
      [](const tune::CompiledBank&,
         const std::shared_ptr<const tune::CompiledBank>& incumbent) {
        EXPECT_NE(incumbent, nullptr);
        return std::string("candidate loses to incumbent");
      });
  EXPECT_FALSE(rejected.published);
  EXPECT_TRUE(rejected.rejected);
  EXPECT_EQ(rejected.error, "candidate loses to incumbent");
  EXPECT_EQ(registry.version(key), v1);
}

// ---- pipeline: serving continuity under concurrent pump -----------------

// The soak-bench shape at test scale (and the TSan target): one lane
// pumps the drifting stream — including the hot swap — while the other
// lanes serve selections continuously. No selection may ever fail.
TEST(StreamPipeline, ServesConcurrentlyThroughSwaps) {
  support::ScopedThreads scoped(4);
  bench::MeasurementStream stream(drifting_spec());
  tune::BankRegistry registry;
  tune::StreamPipeline pipeline(registry, pipeline_options());
  const tune::BankKey key = stream_key();

  // Bootstrap first so every serving lane finds a bank.
  int warm = 0;
  while (registry.version(key) == 0 && warm < 600) {
    (void)pipeline.push_row(key, stream.next().text);
    ++warm;
  }
  ASSERT_GT(registry.version(key), 0u);

  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> served{0};
  support::parallel_for(4, 1, [&](std::size_t lane) {
    if (lane == 0) {
      for (int i = 0; i < 900; ++i) {
        (void)pipeline.push_row(key, stream.next().text);
      }
      return;
    }
    for (int i = 0; i < 3000; ++i) {
      const bench::Instance inst{2 << (i % 4), (i % 2) ? 4 : 1,
                                 std::uint64_t{64} << (i % 3) * 5};
      const int uid = registry.select_uid_or_default(
          key, inst, sim::MpiLib::kOpenMPI);
      if (uid <= 0) failed.fetch_add(1, std::memory_order_relaxed);
      served.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_EQ(served.load(), 3u * 3000u);
  EXPECT_GE(pipeline.stats().refits_published, 1u);
}

}  // namespace
}  // namespace mpicp
