// Fault-injection tests for the ingest → fit → select degradation paths.
//
// Every test follows the same contract: faults are injected with the
// seeded harness (support/faultinject), the pipeline must complete
// without throwing, and the health reports (IngestReport / FitReport)
// must account for every injected fault *exactly* — nothing silently
// dropped, nothing double-counted.
//
// Poisoned predictions are not injected: real models that predict
// NaN, +inf or a negative time are served from a selector file
// (hand_models.hpp), so the sanitize cases run the production argmin.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "collbench/dataset.hpp"
#include "ml/io.hpp"
#include "ml/learner.hpp"
#include "simmpi/coll/decision.hpp"
#include "support/error.hpp"
#include "support/faultinject.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "tune/compiled_bank.hpp"
#include "tune/config_writer.hpp"
#include "tune/selector.hpp"

#include "hand_models.hpp"

namespace mpicp {
namespace {

namespace fi = support::faultinject;

/// Synthetic Bcast-shaped dataset with three crossing algorithms
/// (latency-optimal, bandwidth-optimal, dominated).
bench::Dataset make_synthetic(std::uint64_t seed = 1) {
  bench::Dataset ds("synth", sim::MpiLib::kOpenMPI,
                    sim::Collective::kBcast, "Hydra");
  support::Xoshiro256 rng(seed);
  for (const int n : {2, 4, 8, 16, 32}) {
    for (const int ppn : {1, 4, 8}) {
      const double p = n * ppn;
      for (const std::uint64_t m :
           {std::uint64_t{64}, std::uint64_t{4096}, std::uint64_t{65536},
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

const std::vector<int> kTrainNodes = {2, 4, 8, 16, 32};

std::filesystem::path temp_csv(const std::string& stem) {
  return std::filesystem::temp_directory_path() / (stem + ".csv");
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void spit(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
}

// ---- CSV ingest quarantine ----------------------------------------------

/// Injected fault kind -> the quarantine reason ingest must book it
/// under (dropped rows are invisible to ingest and map to nothing).
struct KindMapping {
  const char* injected;
  const char* reason;
};
constexpr KindMapping kKindMap[] = {
    {"nan-value", "non-finite time"},
    {"negative-value", "non-positive time"},
    {"outlier-value", "implausible time"},
    {"malformed-token", "unparseable field"},
    {"truncated-row", "row width mismatch"},
};

struct QuarantineCase {
  double fault_rate;
  std::uint64_t seed;
};

class CsvQuarantine : public ::testing::TestWithParam<QuarantineCase> {};

TEST_P(CsvQuarantine, InjectedFaultsExactlyAccounted) {
  const auto [fault_rate, seed] = GetParam();
  const bench::Dataset ds = make_synthetic();
  const auto path = temp_csv("mpicp_faults_quarantine");
  ds.save_csv(path);

  fi::CsvFaultLog log;
  const std::string corrupted = fi::corrupt_csv(
      slurp(path),
      {.fault_rate = fault_rate, .value_column = 4, .seed = seed}, &log);
  spit(path, corrupted);

  bench::IngestReport report;
  const bench::Dataset loaded = bench::Dataset::load_csv_tolerant(
      path, "synth", sim::MpiLib::kOpenMPI, sim::Collective::kBcast,
      "Hydra", &report);
  std::filesystem::remove(path);

  EXPECT_EQ(log.rows_total, ds.num_records());
  // Dropped rows never reach ingest; every other line must be seen.
  EXPECT_EQ(report.rows_seen, log.rows_total - log.rows_dropped);
  // Every surviving faulted row is quarantined, every clean row kept.
  EXPECT_EQ(report.rows_quarantined, log.rows_faulted - log.rows_dropped);
  EXPECT_EQ(report.rows_ingested, log.rows_total - log.rows_faulted);
  EXPECT_EQ(report.rows_seen,
            report.rows_ingested + report.rows_quarantined);
  EXPECT_EQ(loaded.num_records(), report.rows_ingested);
  // Per-kind accounting: each injected kind books under its one reason.
  for (const KindMapping& map : kKindMap) {
    const auto injected = log.by_kind.find(map.injected);
    const auto booked = report.reasons.find(map.reason);
    const std::size_t want =
        injected == log.by_kind.end() ? 0 : injected->second;
    const std::size_t got =
        booked == report.reasons.end() ? 0 : booked->second;
    EXPECT_EQ(got, want) << map.injected << " -> " << map.reason;
  }
  // mpicp-lint: allow(no-float-eq) — test parameter, not computed
  if (fault_rate == 0.0) {
    EXPECT_TRUE(report.clean());
    EXPECT_EQ(loaded.num_records(), ds.num_records());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rates, CsvQuarantine,
    ::testing::Values(QuarantineCase{0.0, 1}, QuarantineCase{0.1, 7},
                      QuarantineCase{0.3, 42}, QuarantineCase{1.0, 3}));

TEST(CsvQuarantine, CleanFileMatchesStrictLoad) {
  const bench::Dataset ds = make_synthetic();
  const auto path = temp_csv("mpicp_faults_clean");
  ds.save_csv(path);
  bench::IngestReport report;
  const bench::Dataset tolerant = bench::Dataset::load_csv_tolerant(
      path, "synth", sim::MpiLib::kOpenMPI, sim::Collective::kBcast,
      "Hydra", &report);
  const bench::Dataset strict = bench::Dataset::load_csv(
      path, "synth", sim::MpiLib::kOpenMPI, sim::Collective::kBcast,
      "Hydra");
  std::filesystem::remove(path);
  EXPECT_TRUE(report.clean());
  ASSERT_EQ(tolerant.num_records(), strict.num_records());
  for (std::size_t i = 0; i < strict.num_records(); ++i) {
    EXPECT_EQ(tolerant.records()[i].uid, strict.records()[i].uid);
    EXPECT_DOUBLE_EQ(tolerant.records()[i].time_us,
                     strict.records()[i].time_us);
  }
}

// Keys that do not fit their fields must not wrap into valid-looking
// ones (-5 would become msize 2^64 - 5, 4294967297 would become uid 1):
// the tolerant loader quarantines each such row, the strict one raises.
TEST(CsvQuarantine, OutOfRangeKeysAreRejectedNotWrapped) {
  const char* header = "uid,nodes,ppn,msize,time_us\n";
  const char* good = "1,2,4,64,10.5\n";
  const char* bad_rows[] = {
      "1,2,4,-5,10.5\n",            // negative msize
      "4294967297,2,4,64,10.5\n",   // uid past int
      "1,-4294967295,4,64,10.5\n",  // nodes below int
      "1,2,4294967300,64,10.5\n",   // ppn past int
  };
  const auto path = temp_csv("mpicp_faults_key_range");

  std::string all = header;
  all += good;
  for (const char* row : bad_rows) all += row;
  spit(path, all);
  bench::IngestReport report;
  const bench::Dataset tolerant = bench::Dataset::load_csv_tolerant(
      path, "range", sim::MpiLib::kOpenMPI, sim::Collective::kBcast,
      "Hydra", &report);
  EXPECT_EQ(report.rows_seen, 5u);
  EXPECT_EQ(report.rows_ingested, 1u);
  EXPECT_EQ(report.rows_quarantined, 4u);
  EXPECT_EQ(report.reasons.at("bad configuration key"), 4u);
  ASSERT_EQ(tolerant.num_records(), 1u);
  EXPECT_EQ(tolerant.records()[0].msize, 64u);

  for (const char* row : bad_rows) {
    spit(path, std::string(header) + good + row);
    EXPECT_THROW((void)bench::Dataset::load_csv(path, "range",
                                                sim::MpiLib::kOpenMPI,
                                                sim::Collective::kBcast,
                                                "Hydra"),
                 ParseError)
        << row;
  }
  std::filesystem::remove(path);
}

// The strict loader holds every row to the rule the tolerant one
// quarantines by: a timing that is not finite, not positive or past
// kMaxTimeUs raises ParseError naming the file and line.
TEST(CsvQuarantine, StrictLoadRejectsBadTimingsAtTheirLine) {
  const auto path = temp_csv("mpicp_faults_strict_time");
  for (const char* time : {"inf", "nan", "1e300", "0", "-2"}) {
    SCOPED_TRACE(time);
    spit(path, std::string("uid,nodes,ppn,msize,time_us\n1,2,4,64,10.5\n"
                           "1,2,4,64,") + time + "\n");
    bench::IngestReport report;
    (void)bench::Dataset::load_csv_tolerant(
        path, "time", sim::MpiLib::kOpenMPI, sim::Collective::kBcast,
        "Hydra", &report);
    ASSERT_EQ(report.samples.size(), 1u);
    EXPECT_EQ(report.samples[0].lineno, 3u);
    try {
      (void)bench::Dataset::load_csv(path, "time", sim::MpiLib::kOpenMPI,
                                     sim::Collective::kBcast, "Hydra");
      ADD_FAILURE() << "load_csv accepted time_us " << time;
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find(path.string() + ":3: " +
                                           report.samples[0].reason),
                std::string::npos)
          << e.what();
    }
  }
  std::filesystem::remove(path);
}

// ---- fit fallback chain ---------------------------------------------------

TEST(FitFallback, ForcedFailureFallsBackToKnn) {
  const bench::Dataset ds = make_synthetic();
  tune::Selector selector(tune::SelectorOptions{.learner = "gam"});
  {
    fi::ScopedFaults faults({.fit_failures = {{2, 1}}});
    ASSERT_EQ(selector.fit(ds, kTrainNodes).uids_total(), 3u);
  }
  ASSERT_EQ(selector.uids(), (std::vector<int>{1, 2, 3}));
  const tune::FitReport& report = selector.fit_report();
  ASSERT_EQ(report.uids_total(), 3u);
  EXPECT_EQ(report.uids_clean(), 2u);
  EXPECT_EQ(report.uids_fallback(), 1u);
  EXPECT_EQ(report.uids_unusable(), 0u);
  const tune::FitOutcome& o = report.outcomes[1];
  EXPECT_EQ(o.uid, 2);
  EXPECT_EQ(o.learner, "knn");
  EXPECT_EQ(o.fallback_depth, 1);
  EXPECT_NE(o.error.find("fault injection"), std::string::npos);
  // The degraded bank still selects sensibly on every instance.
  EXPECT_GT(selector.select_uid({6, 2, 65536}), 0);
}

TEST(FitFallback, DoubleFailureLandsOnMedian) {
  const bench::Dataset ds = make_synthetic();
  tune::Selector selector(tune::SelectorOptions{.learner = "gam"});
  {
    fi::ScopedFaults faults({.fit_failures = {{2, 2}}});
    ASSERT_EQ(selector.fit(ds, kTrainNodes).uids_total(), 3u);
  }
  const tune::FitOutcome& o = selector.fit_report().outcomes[1];
  EXPECT_EQ(o.learner, "median");
  EXPECT_EQ(o.fallback_depth, 2);
  // The median model predicts a constant, finite, positive time.
  const double t = selector.predicted_time_us(2, {6, 2, 65536});
  EXPECT_TRUE(std::isfinite(t));
  EXPECT_GT(t, 0.0);
  EXPECT_DOUBLE_EQ(t, selector.predicted_time_us(2, {32, 8, 64}));
}

TEST(FitFallback, WholeChainFailureExcludesUid) {
  const bench::Dataset ds = make_synthetic();
  tune::Selector selector(tune::SelectorOptions{.learner = "gam"});
  {
    fi::ScopedFaults faults({.fit_failures = {{2, 3}}});
    ASSERT_EQ(selector.fit(ds, kTrainNodes).uids_total(), 3u);
  }
  EXPECT_EQ(selector.uids(), (std::vector<int>{1, 3}));
  const tune::FitReport& report = selector.fit_report();
  EXPECT_EQ(report.uids_unusable(), 1u);
  EXPECT_FALSE(report.outcomes[1].usable());
  // Selection proceeds over the remaining uids.
  const int uid = selector.select_uid({6, 2, 65536});
  EXPECT_TRUE(uid == 1 || uid == 3);
}

TEST(FitFallback, AllUidsUnfittableThrows) {
  const bench::Dataset ds = make_synthetic();
  tune::Selector selector(tune::SelectorOptions{.learner = "gam"});
  fi::ScopedFaults faults(
      {.fit_failures = {{1, 3}, {2, 3}, {3, 3}}});
  EXPECT_THROW((void)selector.fit(ds, kTrainNodes), Error);
}

TEST(FitFallback, CorruptRowsScreenedPerUid) {
  bench::Dataset ds = make_synthetic();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Plant corrupt in-memory observations on uid 1 only (the boundary a
  // fault-injecting generator would hit).
  ds.add_unchecked({1, 4, 4, 4096, nan});
  ds.add_unchecked({1, 8, 4, 4096, -5.0});
  ds.add_unchecked({1, 16, 4, 4096, 0.0});
  tune::Selector selector(tune::SelectorOptions{.learner = "gam"});
  const tune::FitReport& report = selector.fit(ds, kTrainNodes);
  ASSERT_EQ(report.uids_total(), 3u);
  EXPECT_EQ(report.outcomes[0].rows_dropped, 3u);
  EXPECT_EQ(report.outcomes[1].rows_dropped, 0u);
  EXPECT_EQ(report.outcomes[2].rows_dropped, 0u);
  EXPECT_EQ(report.rows_dropped(), 3u);
  // uid 1 still fits (on its clean rows) with the configured learner.
  EXPECT_EQ(report.outcomes[0].learner, "gam");
  EXPECT_TRUE(report.degraded());
}

TEST(FitFallback, UidWithNoValidRowsIsUnusable) {
  bench::Dataset ds = make_synthetic();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // A uid whose every observation is corrupt: all rows screened, no fit.
  for (const int n : kTrainNodes) {
    ds.add_unchecked({9, n, 4, 4096, nan});
  }
  tune::Selector selector(tune::SelectorOptions{.learner = "gam"});
  const tune::FitReport& report = selector.fit(ds, kTrainNodes);
  EXPECT_EQ(selector.uids(), (std::vector<int>{1, 2, 3}));
  const tune::FitOutcome& o = report.outcomes.back();
  EXPECT_EQ(o.uid, 9);
  EXPECT_FALSE(o.usable());
  EXPECT_EQ(o.error, "no valid training rows");
}

TEST(FitFallback, ZeroFaultFitIsCleanAndUnchanged) {
  const bench::Dataset ds = make_synthetic();
  tune::Selector hardened(tune::SelectorOptions{.learner = "gam"});
  const tune::FitReport& report = hardened.fit(ds, kTrainNodes);
  EXPECT_FALSE(report.degraded());
  EXPECT_EQ(report.uids_clean(), 3u);
  // And the report totals are internally consistent.
  EXPECT_EQ(report.uids_clean() + report.uids_fallback() +
                report.uids_unusable(),
            report.uids_total());
}

TEST(FitFallback, ArmedFitFaultsLeaveServingOnTheBankArgmin) {
  // A fault table arms fits only: with one armed, a table-backed tree
  // bank still serves every selection from its argmin table and picks
  // as it does unarmed.
  const bench::Dataset ds = make_synthetic();
  tune::Selector selector(tune::SelectorOptions{.learner = "xgboost"});
  ASSERT_FALSE(selector.fit(ds, kTrainNodes).degraded());
  const tune::CompiledBank& bank = selector.compile();
  ASSERT_TRUE(bank.flat().has_argmin_table());
  std::vector<bench::Instance> grid;
  for (const int n : {3, 6, 12, 24}) {
    for (const int ppn : {1, 4, 8}) {
      for (const std::uint64_t m :
           {std::uint64_t{64}, std::uint64_t{65536},
            std::uint64_t{1048576}}) {
        grid.push_back({n, ppn, m});
      }
    }
  }
  const std::vector<int> unarmed = bank.select_grid(grid);
  support::metrics::Registry::instance().reset();
  {
    fi::ScopedFaults faults({.fit_failures = {{2, 1}}});
    for (std::size_t i = 0; i < grid.size(); ++i) {
      EXPECT_EQ(bank.select_uid(grid[i]), unarmed[i]) << "instance " << i;
    }
    EXPECT_EQ(bank.select_grid(grid), unarmed);
  }
  EXPECT_EQ(support::metrics::counter("compiled.select.requests").value(),
            grid.size());
}

// ---- prediction sanitization ---------------------------------------------

TEST(PredictSanitize, NonFinitePredictionExcludedFromArgmin) {
  const bench::Dataset ds = make_synthetic();
  tune::Selector selector(tune::SelectorOptions{.learner = "gam"});
  ASSERT_FALSE(selector.fit(ds, kTrainNodes).degraded());

  const bench::Instance inst{6, 2, 65536};
  std::size_t excluded = 0;
  const int honest = tune::argmin_usable(selector.predict_all(inst), excluded);
  EXPECT_EQ(selector.select_uid(inst), honest);

  // Swap the honest winner's model for a linear one that predicts NaN,
  // +inf or -1; the served argmin (the fused GAM screen, then the
  // linear model on its own) must move on, to the interpreted
  // reference's pick among the usable rest.
  auto [uids, models] = hand_models::selector_models(selector, "sanitize");
  const auto at = static_cast<std::size_t>(
      std::find(uids.begin(), uids.end(), honest) - uids.begin());
  ASSERT_LT(at, uids.size());
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::pair<hand_models::LinearBeta, double> poisons[] = {
      {hand_models::kNanBeta, std::numeric_limits<double>::quiet_NaN()},
      {hand_models::kInfBeta, kInf},
      {{-1.0, 0.0, 0.0, 0.0, 0.0}, -1.0}};
  for (const auto& [beta, poison] : poisons) {
    models[at] = hand_models::hand_linear(beta);
    const hand_models::ServedBank served =
        hand_models::serve("sanitize_poisoned", "gam", uids, models);
    const auto predictions = served.selector.predict_all(inst);
    for (const auto& p : predictions) {
      EXPECT_EQ(p.usable, p.uid != honest);
    }
    const double t = predictions[at].time_us;
    EXPECT_TRUE(std::isnan(poison) ? std::isnan(t) : t == poison) << t;
    const int chosen = served.selector.select_uid(inst);
    EXPECT_EQ(chosen, tune::argmin_usable(predictions, excluded));
    EXPECT_EQ(excluded, 1u);
    EXPECT_NE(chosen, honest);
    EXPECT_GT(chosen, 0);
  }
}

TEST(PredictSanitize, AllPredictionsPoisonedFallsBackToDefault) {
  // Three linear models that all predict NaN on the instance.
  hand_models::Models models;
  for (int i = 0; i < 3; ++i) {
    models.push_back(hand_models::hand_linear(hand_models::kNanBeta));
  }
  const hand_models::ServedBank served =
      hand_models::serve("all_poisoned", "linear", {1, 2, 3}, models);
  const bench::Instance inst{6, 2, 65536};
  for (const auto& p : served.selector.predict_all(inst)) {
    EXPECT_TRUE(std::isnan(p.time_us));
  }
  EXPECT_THROW((void)served.selector.select_uid(inst), Error);
  const int uid = served.selector.select_uid_or_default(
      inst, sim::MpiLib::kOpenMPI, sim::Collective::kBcast);
  EXPECT_EQ(uid, sim::library_default_uid(sim::MpiLib::kOpenMPI,
                                          sim::Collective::kBcast,
                                          inst.nodes * inst.ppn,
                                          inst.msize));
  // The fallback uid is a real registry configuration.
  EXPECT_NO_THROW(sim::config_by_uid(sim::MpiLib::kOpenMPI,
                                     sim::Collective::kBcast, uid));
}

TEST(PredictSanitize, LibraryDefaultValidForEveryLibAndCollective) {
  for (const auto lib : {sim::MpiLib::kOpenMPI, sim::MpiLib::kIntelMPI}) {
    for (const auto coll :
         {sim::Collective::kBcast, sim::Collective::kAllreduce,
          sim::Collective::kAlltoall}) {
      for (const int p : {2, 8, 64, 512}) {
        for (const std::size_t m :
             {std::size_t{8}, std::size_t{65536}, std::size_t{8u << 20}}) {
          const int uid = sim::library_default_uid(lib, coll, p, m);
          EXPECT_NO_THROW(sim::config_by_uid(lib, coll, uid))
              << to_string(lib) << "/" << to_string(coll) << " p=" << p
              << " m=" << m;
        }
      }
    }
  }
}

// ---- model stream corruption ---------------------------------------------

class ModelCorruption : public ::testing::TestWithParam<const char*> {};

TEST_P(ModelCorruption, TruncatedAndBitFlippedStreamsRejected) {
  // Fit the learner on a small synthetic problem and serialize it.
  support::Xoshiro256 rng(11);
  ml::Matrix x(120, 3);
  std::vector<double> y(120);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    x(i, 0) = rng.uniform(0.0, 20.0);
    x(i, 1) = rng.uniform(1.0, 32.0);
    x(i, 2) = rng.uniform(1.0, 16.0);
    y[i] = std::exp(0.1 * x(i, 0)) + 0.5 * x(i, 1);
  }
  auto model = ml::make_regressor(GetParam());
  model->fit(x, y);
  std::ostringstream os;
  ml::save_regressor(os, *model);
  const std::string clean = os.str();

  // Clean stream loads and predicts identically.
  {
    std::istringstream is(clean);
    const auto restored = ml::load_regressor(is);
    EXPECT_DOUBLE_EQ(restored->predict_one(x.row(0)),
                     model->predict_one(x.row(0)));
  }

  // Truncation at several depths: always a ParseError, never a silently
  // wrong model.
  for (const double frac : {0.2, 0.5, 0.9}) {
    const std::string cut = fi::corrupt_stream(
        clean, {.truncate_at = static_cast<std::ptrdiff_t>(
                    static_cast<double>(clean.size()) * frac)});
    std::istringstream is(cut);
    EXPECT_THROW(ml::load_regressor(is), ParseError)
        << GetParam() << " truncated at " << frac;
  }

  // Bit-flips in the payload: the checksum must catch them.
  const std::size_t header_end = clean.find('\n') + 1;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const std::string body = fi::corrupt_stream(
        clean.substr(header_end), {.char_flips = 1, .seed = seed});
    std::istringstream is(clean.substr(0, header_end) + body);
    EXPECT_THROW(ml::load_regressor(is), ParseError)
        << GetParam() << " flip seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(AllLearners, ModelCorruption,
                         ::testing::ValuesIn(ml::kLearnerNames));

TEST(ModelCorruption, LegacyV1EnvelopeStillLoads) {
  // Pre-checksum banks must keep loading (the deployment split caches
  // model files on disk).
  std::stringstream os;
  os << "regressor median\n";
  os << "median\n42.5\n";
  const auto model = ml::load_regressor(os);
  EXPECT_EQ(model->name(), "median");
  EXPECT_DOUBLE_EQ(model->predict_one(std::vector<double>{1.0, 2.0}),
                   42.5);
}

// ---- io token readers (satellite) ----------------------------------------

TEST(IoReaders, ExpectTagDistinguishesEofFromMismatch) {
  std::istringstream empty("");
  try {
    ml::io::expect_tag(empty, "header");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("unexpected end of stream"),
              std::string::npos);
  }
  std::istringstream wrong("footer");
  try {
    ml::io::expect_tag(wrong, "header");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("got 'footer'"),
              std::string::npos);
  }
}

TEST(IoReaders, ReadValueReportsTruncationAndFailedStreams) {
  std::istringstream empty("");
  EXPECT_THROW(ml::io::read_value<int>(empty), ParseError);
  std::istringstream garbage("not-a-number");
  EXPECT_THROW(ml::io::read_value<int>(garbage), ParseError);
  // A stream that already failed must not hand back defaults.
  std::istringstream dead("x y");
  int sink = 0;
  dead >> sink;  // fails, leaves failbit
  EXPECT_THROW(ml::io::read_value<int>(dead), ParseError);
}

TEST(IoReaders, CheckParseMacroThrowsParseError) {
  EXPECT_NO_THROW(MPICP_CHECK_PARSE(1 + 1 == 2, "fine"));
  try {
    MPICP_CHECK_PARSE(false, "bad input");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("bad input"), std::string::npos);
  }
}

// ---- end-to-end acceptance ------------------------------------------------

TEST(EndToEnd, CorruptedCampaignCompletesAndAccounts) {
  // The acceptance criterion: 10% row corruption + one uid's fit forced
  // to fail; the full Bcast train -> select run completes, the argmin
  // never returns a uid with an unusable prediction, and the reports
  // account for every injected fault.
  const bench::Dataset pristine = make_synthetic();
  const auto path = temp_csv("mpicp_faults_e2e");
  pristine.save_csv(path);

  fi::CsvFaultLog log;
  const std::string corrupted = fi::corrupt_csv(
      slurp(path), {.fault_rate = 0.1, .value_column = 4, .seed = 2026},
      &log);
  spit(path, corrupted);
  ASSERT_GT(log.rows_faulted, 0u);

  bench::IngestReport ingest;
  const bench::Dataset ds = bench::Dataset::load_csv_tolerant(
      path, "synth", sim::MpiLib::kOpenMPI, sim::Collective::kBcast,
      "Hydra", &ingest);
  std::filesystem::remove(path);
  EXPECT_EQ(ingest.rows_quarantined, log.rows_faulted - log.rows_dropped);
  EXPECT_EQ(ingest.rows_ingested, log.rows_total - log.rows_faulted);

  tune::Selector selector(tune::SelectorOptions{.learner = "gam"});
  fi::ScopedFaults faults({.fit_failures = {{1, 1}}});
  const tune::FitReport& fit = selector.fit(ds, kTrainNodes);

  EXPECT_TRUE(fit.degraded());
  EXPECT_EQ(fit.uids_fallback(), 1u);
  EXPECT_EQ(fit.outcomes[0].uid, 1);
  EXPECT_EQ(fit.outcomes[0].learner, "knn");
  // The report must cover *every* uid the dataset contains — no uid can
  // vanish from the accounting — and the three outcome classes must
  // partition that total exactly.
  EXPECT_EQ(fit.uids_total(), ds.uids().size());
  EXPECT_EQ(fit.uids_clean() + fit.uids_fallback() + fit.uids_unusable(),
            fit.uids_total());

  // Select across the whole instance grid; every decision must be a
  // usable (finite, non-negative) prediction from the bank.
  for (const int n : {3, 6, 12, 24}) {
    for (const int ppn : {1, 4, 8}) {
      for (const std::uint64_t m :
           {std::uint64_t{64}, std::uint64_t{65536},
            std::uint64_t{1048576}}) {
        const bench::Instance inst{n, ppn, m};
        const int uid = selector.select_uid_or_default(
            inst, sim::MpiLib::kOpenMPI, sim::Collective::kBcast);
        ASSERT_GT(uid, 0);
        const auto predictions = selector.predict_all(inst);
        for (const auto& p : predictions) {
          if (p.uid != uid) continue;
          EXPECT_TRUE(p.usable);
          EXPECT_TRUE(std::isfinite(p.time_us));
          EXPECT_GE(p.time_us, 0.0);
        }
      }
    }
  }

  // The tuning-file path (the deployment artifact) also survives.
  const tune::TuningConfig config = tune::build_tuning_config(
      selector, sim::MpiLib::kOpenMPI, sim::Collective::kBcast, 12, 8,
      {64, 4096, 65536, 1048576});
  EXPECT_FALSE(config.rules.empty());
}

TEST(EndToEnd, ZeroFaultRunMatchesPrePipelineBehaviour) {
  // With no faults armed, the hardened pipeline must make exactly the
  // selections the pre-robustness code made (the screening is a no-op on
  // valid data and the fallback chain never engages).
  const bench::Dataset ds = make_synthetic();
  tune::Selector selector(tune::SelectorOptions{.learner = "gam"});
  EXPECT_FALSE(selector.fit(ds, kTrainNodes).degraded());
  for (const int n : {3, 6, 12}) {
    for (const std::uint64_t m : {std::uint64_t{64}, std::uint64_t{65536}}) {
      const bench::Instance inst{n, 2, m};
      const int strict = selector.select_uid(inst);
      EXPECT_EQ(strict,
                selector.select_uid_or_default(
                    inst, sim::MpiLib::kOpenMPI, sim::Collective::kBcast));
      const auto predictions = selector.predict_all(inst);
      for (const auto& p : predictions) {
        EXPECT_TRUE(p.usable);
      }
      std::size_t excluded = 0;
      EXPECT_EQ(strict, tune::argmin_usable(predictions, excluded));
    }
  }
}

}  // namespace
}  // namespace mpicp
