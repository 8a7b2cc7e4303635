// Tests of the observability layer itself (support/trace +
// support/metrics): span nesting and cross-thread merging, counter
// atomicity under parallel_for, histogram aggregation, exporter
// schemas, and the disabled-mode no-op guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "collbench/dataset.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/trace.hpp"
#include "tune/selector.hpp"

#include "rss.hpp"

namespace mpicp {
namespace {

namespace trace = support::trace;
namespace metrics = support::metrics;

/// Aggregated profile entry for one path, or nullptr.
const trace::ProfileEntry* find_path(
    const std::vector<trace::ProfileEntry>& profile,
    const std::string& path) {
  for (const trace::ProfileEntry& e : profile) {
    if (e.path == path) return &e;
  }
  return nullptr;
}

// ---- spans ----------------------------------------------------------------

TEST(TraceSpans, NestedSpansRecordHierarchicalPaths) {
  const trace::ScopedEnabled on(true);
  trace::reset();
  {
    MPICP_SPAN("outer");
    {
      MPICP_SPAN("inner");
      { MPICP_SPAN("leaf"); }
    }
    { MPICP_SPAN("inner"); }
  }
  const auto profile = trace::profile();
  ASSERT_NE(find_path(profile, "outer"), nullptr);
  ASSERT_NE(find_path(profile, "outer/inner"), nullptr);
  ASSERT_NE(find_path(profile, "outer/inner/leaf"), nullptr);
  EXPECT_EQ(find_path(profile, "outer")->count, 1u);
  EXPECT_EQ(find_path(profile, "outer/inner")->count, 2u);
  EXPECT_EQ(find_path(profile, "outer/inner/leaf")->count, 1u);
  // A parent's wall-clock covers each of its children individually.
  EXPECT_GE(find_path(profile, "outer")->total_ns,
            find_path(profile, "outer/inner")->max_ns);
}

TEST(TraceSpans, SequentialRootsDoNotNest) {
  const trace::ScopedEnabled on(true);
  trace::reset();
  { MPICP_SPAN("first"); }
  { MPICP_SPAN("second"); }
  const auto profile = trace::profile();
  EXPECT_NE(find_path(profile, "first"), nullptr);
  EXPECT_NE(find_path(profile, "second"), nullptr);
  EXPECT_EQ(find_path(profile, "first/second"), nullptr);
}

class TraceThreads : public ::testing::TestWithParam<int> {};

TEST_P(TraceThreads, ParallelSpansMergeUnderCallerPath) {
  const support::ScopedThreads threads(GetParam());
  const trace::ScopedEnabled on(true);
  trace::reset();
  constexpr std::size_t kTasks = 64;
  {
    MPICP_SPAN("stage");
    support::parallel_for(kTasks, 1,
                          [&](std::size_t) { MPICP_SPAN("task"); });
  }
  const auto profile = trace::profile();
  // Pool threads inherit the caller's span path: every task span merges
  // under "stage/task" regardless of which thread ran it, and no
  // orphaned root "task" appears.
  const auto* tasks = find_path(profile, "stage/task");
  ASSERT_NE(tasks, nullptr);
  EXPECT_EQ(tasks->count, kTasks);
  EXPECT_EQ(find_path(profile, "task"), nullptr);
  EXPECT_EQ(find_path(profile, "stage")->count, 1u);
}

TEST_P(TraceThreads, FitSpansAggregatePerUid) {
  const support::ScopedThreads threads(GetParam());
  const trace::ScopedEnabled on(true);
  trace::reset();

  bench::Dataset ds("synth", sim::MpiLib::kOpenMPI,
                    sim::Collective::kBcast, "Hydra");
  support::Xoshiro256 rng(7);
  for (const int n : {2, 4, 8, 16}) {
    for (const std::uint64_t m : {std::uint64_t{64}, std::uint64_t{4096}}) {
      for (int rep = 0; rep < 3; ++rep) {
        for (const int uid : {1, 2, 3, 4}) {
          ds.add({uid, n, 2, m,
                  rng.lognormal_median(10.0 * uid + 0.01 * m, 0.05)});
        }
      }
    }
  }
  tune::Selector selector(tune::SelectorOptions{.learner = "knn"});
  ASSERT_FALSE(selector.fit(ds, {2, 4, 8, 16}).degraded());

  const auto profile = trace::profile();
  const auto* fit = find_path(profile, "selector.fit");
  const auto* uid_fits = find_path(profile, "selector.fit/fit.uid");
  ASSERT_NE(fit, nullptr);
  ASSERT_NE(uid_fits, nullptr);
  EXPECT_EQ(fit->count, 1u);
  EXPECT_EQ(uid_fits->count, 4u);  // one span per uid, any thread count
}

TEST_P(TraceThreads, SpanStoreStaysBoundedUnderMillionsOfSpans) {
  const support::ScopedThreads threads(GetParam());
  const trace::ScopedEnabled on(true);
  constexpr std::size_t kTasks = 1'000'000;
  const auto run = [](std::size_t tasks) {
    MPICP_SPAN("bounded.stage");
    support::parallel_for(tasks, 1024, [](std::size_t) {
      MPICP_SPAN("bounded.task");
      MPICP_SPAN("bounded.leaf");
    });
  };
  run(64 * 1024);  // every thread has opened the paths once
  trace::reset();
  const long before = rss::kb();
  ASSERT_GT(before, 0);
  run(kTasks);
  const long grown_kb = rss::kb() - before;

  // Each span adds into its path's entry: the store holds three entries
  // however many spans close, so 2 M spans leave memory flat.
  const auto profile = trace::profile();
  EXPECT_EQ(profile.size(), 3u);
  const auto* leaf =
      find_path(profile, "bounded.stage/bounded.task/bounded.leaf");
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(leaf->count, kTasks);
  EXPECT_EQ(find_path(profile, "bounded.stage/bounded.task")->count, kTasks);
  EXPECT_LT(grown_kb, 16 * 1024) << "VmRSS grew by " << grown_kb << " kB";
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, TraceThreads,
                         ::testing::Values(1, 4));

TEST(TraceDisabled, DisabledSpansRecordNothing) {
  trace::reset();
  const trace::ScopedEnabled off(false);
  {
    MPICP_SPAN("ghost");
    { MPICP_SPAN("nested-ghost"); }
  }
  EXPECT_TRUE(trace::profile().empty());
  EXPECT_EQ(trace::current_path(), "");
}

TEST(TraceDisabled, ReenablingResumesCleanly) {
  const trace::ScopedEnabled on(true);
  trace::reset();
  {
    const trace::ScopedEnabled off(false);
    MPICP_SPAN("ghost");
  }
  { MPICP_SPAN("real"); }
  const auto profile = trace::profile();
  EXPECT_EQ(profile.size(), 1u);
  EXPECT_EQ(profile[0].path, "real");
}

TEST(TraceExport, ProfileTableListsEveryPath) {
  const trace::ScopedEnabled on(true);
  trace::reset();
  {
    MPICP_SPAN("table.outer");
    { MPICP_SPAN("table.inner"); }
  }
  std::ostringstream os;
  trace::print_profile(os);
  EXPECT_NE(os.str().find("table.outer"), std::string::npos);
  EXPECT_NE(os.str().find("table.outer/table.inner"), std::string::npos);
}

// ---- metrics --------------------------------------------------------------

TEST(Metrics, CounterExactUnderParallelIncrements) {
  const support::ScopedThreads threads(4);
  metrics::Counter& c = metrics::counter("test.atomic_counter");
  c.reset();
  constexpr std::size_t kIncrements = 100000;
  support::parallel_for(kIncrements, 64, [&](std::size_t) { c.inc(); });
  EXPECT_EQ(c.value(), kIncrements);
}

TEST(Metrics, HistogramExactUnderParallelObserves) {
  const support::ScopedThreads threads(4);
  metrics::Histogram& h = metrics::histogram("test.atomic_histogram");
  h.reset();
  constexpr std::size_t kObserves = 10000;
  support::parallel_for(kObserves, 64, [&](std::size_t i) {
    h.observe(static_cast<double>(i % 100) + 1.0);
  });
  const auto s = h.summary();
  EXPECT_EQ(s.count, kObserves);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  // Sum of integers in doubles is exact regardless of addition order.
  EXPECT_DOUBLE_EQ(s.sum, 10000.0 * (0.0 + 99.0) / 2.0 + 10000.0);
  std::uint64_t bucketed = 0;
  double prev_bound = 0.0;
  for (const auto& [le, count] : s.buckets) {
    EXPECT_GT(le, prev_bound);  // ascending bucket bounds
    prev_bound = le;
    bucketed += count;
  }
  EXPECT_EQ(bucketed, s.count);
}

TEST(Metrics, GaugeKeepsLastValue) {
  metrics::Gauge& g = metrics::gauge("test.gauge");
  g.set(1.5);
  g.set(-3.25);
  EXPECT_DOUBLE_EQ(g.value(), -3.25);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Metrics, EmptyHistogramSummaryIsZero) {
  metrics::Histogram& h = metrics::histogram("test.empty_histogram");
  h.reset();
  const auto s = h.summary();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
  EXPECT_TRUE(s.buckets.empty());
}

TEST(Metrics, ResetZeroesButKeepsReferencesValid) {
  metrics::Counter& c = metrics::counter("test.reset_counter");
  c.inc(5);
  metrics::Registry::instance().reset();
  EXPECT_EQ(c.value(), 0u);
  c.inc(2);  // the pre-reset reference still reaches the live metric
  EXPECT_EQ(metrics::counter("test.reset_counter").value(), 2u);
}

TEST(Metrics, JsonExporterSchema) {
  metrics::Snapshot snap;
  snap.counters["alpha.count"] = 42;
  snap.gauges["beta.level"] = 1.5;
  metrics::Histogram h;
  h.observe(3.0);
  h.observe(10.0);
  snap.histograms["gamma.dist"] = h.summary();

  std::ostringstream os;
  metrics::write_json(os, snap);
  const std::string json = os.str();

  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"alpha.count\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"beta.level\": 1.5"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\": ["), std::string::npos);
  EXPECT_NE(json.find("\"le\": "), std::string::npos);
  // Structural sanity: balanced braces/brackets, no bare non-finite
  // tokens (they would break every JSON consumer).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
}

TEST(Metrics, JsonEscapesAndNonFiniteValues) {
  metrics::Snapshot snap;
  snap.gauges["quote\"name"] = std::nan("");
  std::ostringstream os;
  metrics::write_json(os, snap);
  EXPECT_NE(os.str().find("\"quote\\\"name\": null"), std::string::npos);
}

TEST(Metrics, PrintMetricsRendersAllSections) {
  metrics::Snapshot snap;
  snap.counters["c.one"] = 1;
  snap.gauges["g.two"] = 2.0;
  metrics::Histogram h;
  h.observe(4.0);
  snap.histograms["h.three"] = h.summary();
  std::ostringstream os;
  metrics::print_metrics(os, snap);
  EXPECT_NE(os.str().find("c.one"), std::string::npos);
  EXPECT_NE(os.str().find("g.two"), std::string::npos);
  EXPECT_NE(os.str().find("h.three"), std::string::npos);
}

// ---- instrumented pipeline counters ---------------------------------------

class PipelineCounters : public ::testing::TestWithParam<int> {};

TEST_P(PipelineCounters, FitCountersMatchReportAtEveryThreadCount) {
  const support::ScopedThreads threads(GetParam());
  metrics::Registry::instance().reset();

  bench::Dataset ds("synth", sim::MpiLib::kOpenMPI,
                    sim::Collective::kBcast, "Hydra");
  support::Xoshiro256 rng(3);
  for (const int n : {2, 4, 8, 16}) {
    for (const std::uint64_t m : {std::uint64_t{64}, std::uint64_t{4096}}) {
      for (int rep = 0; rep < 3; ++rep) {
        for (const int uid : {1, 2, 3}) {
          ds.add({uid, n, 2, m,
                  rng.lognormal_median(5.0 * uid + 0.02 * m, 0.05)});
        }
      }
    }
  }
  tune::Selector selector(tune::SelectorOptions{.learner = "linear"});
  ASSERT_FALSE(selector.fit(ds, {2, 4, 8, 16}).degraded());
  const int uid = selector.select_uid({6, 2, 4096});
  EXPECT_GT(uid, 0);

  // The registry must mirror the FitReport exactly, and the totals must
  // be identical under serial and parallel execution.
  const tune::FitReport& report = selector.fit_report();
  EXPECT_EQ(metrics::counter("fit.calls").value(), 1u);
  EXPECT_EQ(metrics::counter("fit.uids_total").value(),
            report.uids_total());
  EXPECT_EQ(metrics::counter("fit.uids_clean").value(),
            report.uids_clean());
  EXPECT_EQ(metrics::counter("fit.uids_fallback").value(),
            report.uids_fallback());
  EXPECT_EQ(metrics::counter("fit.uids_unusable").value(),
            report.uids_unusable());
  EXPECT_EQ(metrics::counter("fit.rows_dropped").value(),
            report.rows_dropped());
  EXPECT_EQ(metrics::counter("compiled.compile.calls").value(), 1u);
  EXPECT_EQ(metrics::counter("compiled.compile.models").value(), 3u);
  EXPECT_EQ(metrics::counter("compiled.select.requests").value(), 1u);
  EXPECT_EQ(metrics::counter("compiled.select.argmin_excluded").value(), 0u);
  EXPECT_EQ(metrics::histogram("fit.time_us.linear").count(), 3u);
  EXPECT_EQ(metrics::histogram("fit.fallback_depth").count(), 3u);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, PipelineCounters,
                         ::testing::Values(1, 4));

}  // namespace
}  // namespace mpicp
