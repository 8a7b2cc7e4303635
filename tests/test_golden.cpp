// Golden regression test of the full ingest -> fit -> select pipeline.
//
// One fixed-seed Bcast campaign (synthetic data, 10% injected CSV
// corruption, one forced fit fallback) runs end to end; its observable
// outcome — ingest accounting, fit report, every selection over a fixed
// instance grid, and the metrics-registry counters — is rendered as
// canonical JSON and compared *byte for byte* against the committed
// snapshot in tests/golden/. Any behavioural drift in ingest screening,
// the fallback chain, feature encoding, a learner, or the argmin shows
// up as a diff against a reviewable artifact.
//
// Refresh path: MPICP_UPDATE_GOLDEN=1 ctest -R test_golden rewrites the
// snapshot in the source tree; commit the diff deliberately.
//
// Timing metrics (span durations, fit-time histograms) are excluded —
// only deterministic counters are snapshotted, so the comparison holds
// at any MPICP_THREADS and on any machine.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "collbench/dataset.hpp"
#include "collbench/specs.hpp"
#include "collbench/streamgen.hpp"
#include "ml/io.hpp"
#include "support/faultinject.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "support/trace.hpp"
#include "tune/registry.hpp"
#include "tune/ruletable.hpp"
#include "tune/evaluator.hpp"
#include "tune/selector.hpp"
#include "tune/stream.hpp"

#include "rule_voices.hpp"

#ifndef MPICP_GOLDEN_DIR
#error "build must define MPICP_GOLDEN_DIR (see tests/CMakeLists.txt)"
#endif
#ifndef MPICP_DATA_DIR
#error "build must define MPICP_DATA_DIR (see tests/CMakeLists.txt)"
#endif

namespace mpicp {
namespace {

namespace fi = support::faultinject;
namespace metrics = support::metrics;

/// Same three-algorithm Bcast shape the fault tests train on; fully
/// determined by the seed.
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

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

struct PipelineRun {
  bench::IngestReport ingest;
  tune::FitReport fit;
  std::string json;  ///< canonical rendering of the whole outcome
  metrics::Snapshot snapshot;
};

/// The one fixed-seed campaign this test snapshots. Resets the metrics
/// registry first, so the counters in the rendering cover exactly this
/// run.
PipelineRun run_pipeline() {
  metrics::Registry::instance().reset();
  support::trace::reset();
  PipelineRun run;

  // Ingest: save a pristine campaign, corrupt 10% of the rows with the
  // seeded injector, re-load through the tolerant path.
  const bench::Dataset pristine = make_synthetic(1);
  const auto path = std::filesystem::temp_directory_path() /
                    "mpicp_golden_bcast.csv";
  pristine.save_csv(path);
  std::string text;
  {
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    text = os.str();
  }
  const std::string corrupted = fi::corrupt_csv(
      text, {.fault_rate = 0.1, .value_column = 4, .seed = 2026}, nullptr);
  {
    std::ofstream out(path);
    out << corrupted;
  }
  const bench::Dataset ds = bench::Dataset::load_csv_tolerant(
      path, "synth", sim::MpiLib::kOpenMPI, sim::Collective::kBcast,
      "Hydra", &run.ingest);
  std::filesystem::remove(path);

  // Fit: gam bank with uid 2's configured fit forced to fail once, so
  // the snapshot pins the fallback chain's behaviour too.
  tune::Selector selector(tune::SelectorOptions{.learner = "gam"});
  {
    fi::ScopedFaults faults({.fit_failures = {{2, 1}}});
    run.fit = selector.fit(ds, {2, 4, 8, 16, 32});
  }

  // Select over a fixed grid of unseen instances.
  std::ostringstream sel;
  bool first = true;
  for (const int n : {3, 6, 12, 24}) {
    for (const int ppn : {1, 4, 8}) {
      for (const std::uint64_t m :
           {std::uint64_t{64}, std::uint64_t{65536},
            std::uint64_t{1048576}}) {
        const int uid = selector.select_uid_or_default(
            {n, ppn, m}, sim::MpiLib::kOpenMPI, sim::Collective::kBcast);
        sel << (first ? "" : ",") << "\n    {\"nodes\": " << n
            << ", \"ppn\": " << ppn << ", \"msize\": " << m
            << ", \"uid\": " << uid << "}";
        first = false;
      }
    }
  }

  run.snapshot = metrics::Registry::instance().snapshot();

  std::ostringstream os;
  os << "{\n";
  os << "  \"ingest\": {\n";
  os << "    \"rows_seen\": " << run.ingest.rows_seen << ",\n";
  os << "    \"rows_ingested\": " << run.ingest.rows_ingested << ",\n";
  os << "    \"rows_quarantined\": " << run.ingest.rows_quarantined
     << ",\n";
  os << "    \"reasons\": {";
  first = true;
  for (const auto& [reason, count] : run.ingest.reasons) {
    os << (first ? "" : ",") << "\n      \"" << json_escape(reason)
       << "\": " << count;
    first = false;
  }
  os << "\n    }\n  },\n";
  os << "  \"fit\": {\n";
  os << "    \"uids_total\": " << run.fit.uids_total() << ",\n";
  os << "    \"uids_clean\": " << run.fit.uids_clean() << ",\n";
  os << "    \"uids_fallback\": " << run.fit.uids_fallback() << ",\n";
  os << "    \"uids_unusable\": " << run.fit.uids_unusable() << ",\n";
  os << "    \"rows_dropped\": " << run.fit.rows_dropped() << ",\n";
  os << "    \"outcomes\": [";
  first = true;
  for (const auto& o : run.fit.outcomes) {
    os << (first ? "" : ",") << "\n      {\"uid\": " << o.uid
       << ", \"learner\": \"" << json_escape(o.learner)
       << "\", \"fallback_depth\": " << o.fallback_depth
       << ", \"rows_total\": " << o.rows_total
       << ", \"rows_dropped\": " << o.rows_dropped << "}";
    first = false;
  }
  os << "\n    ]\n  },\n";
  os << "  \"selections\": [" << sel.str() << "\n  ],\n";
  // Deterministic counters only (prefix-filtered, nonzero): histograms
  // and span timings vary run to run and are deliberately left out.
  os << "  \"counters\": {";
  first = true;
  for (const auto& [name, value] : run.snapshot.counters) {
    const bool pipeline_counter =
        name.starts_with("ingest.") || name.starts_with("fit.") ||
        name.starts_with("compiled.");
    if (!pipeline_counter || value == 0) continue;
    os << (first ? "" : ",") << "\n    \"" << json_escape(name)
       << "\": " << value;
    first = false;
  }
  os << "\n  }\n}\n";
  run.json = os.str();
  return run;
}

std::filesystem::path golden_path() {
  return std::filesystem::path(MPICP_GOLDEN_DIR) / "bcast_pipeline.json";
}

std::uint64_t counter_or_zero(const metrics::Snapshot& snap,
                              const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

// The acceptance reconciliation: the process-wide counters must mirror
// the per-call health reports *exactly* — same totals, same per-reason
// quarantine split — or the observability layer is lying about the run.
TEST(Golden, CountersReconcileWithReports) {
  const PipelineRun run = run_pipeline();
  const metrics::Snapshot& snap = run.snapshot;

  EXPECT_EQ(counter_or_zero(snap, "ingest.files"), 1u);
  EXPECT_EQ(counter_or_zero(snap, "ingest.rows_seen"),
            run.ingest.rows_seen);
  EXPECT_EQ(counter_or_zero(snap, "ingest.rows_ingested"),
            run.ingest.rows_ingested);
  EXPECT_EQ(counter_or_zero(snap, "ingest.rows_quarantined"),
            run.ingest.rows_quarantined);
  for (const auto& [reason, count] : run.ingest.reasons) {
    EXPECT_EQ(counter_or_zero(snap, "ingest.quarantine." + reason), count)
        << reason;
  }

  EXPECT_EQ(counter_or_zero(snap, "fit.calls"), 1u);
  EXPECT_EQ(counter_or_zero(snap, "fit.uids_total"),
            run.fit.uids_total());
  EXPECT_EQ(counter_or_zero(snap, "fit.uids_clean"),
            run.fit.uids_clean());
  EXPECT_EQ(counter_or_zero(snap, "fit.uids_fallback"),
            run.fit.uids_fallback());
  EXPECT_EQ(counter_or_zero(snap, "fit.uids_unusable"),
            run.fit.uids_unusable());
  EXPECT_EQ(counter_or_zero(snap, "fit.rows_dropped"),
            run.fit.rows_dropped());

  // One lowering, at the end of the fit, then 4 node counts x 3 ppns x
  // 3 msizes selections served by the compiled bank's argmin.
  EXPECT_EQ(counter_or_zero(snap, "compiled.compile.calls"), 1u);
  EXPECT_EQ(counter_or_zero(snap, "compiled.compile.models"),
            run.fit.uids_total());
  EXPECT_EQ(counter_or_zero(snap, "compiled.select.requests"), 36u);
  EXPECT_EQ(counter_or_zero(snap, "compiled.select.default_fallbacks"), 0u);
  EXPECT_EQ(counter_or_zero(snap, "compiled.select.argmin_excluded"), 0u);
}

// Two back-to-back runs must render byte-identically — the pipeline and
// its accounting are deterministic in the seeds alone. A failure here
// means the golden comparison below would flake; fix that first.
TEST(Golden, PipelineRenderingIsDeterministic) {
  const std::string a = run_pipeline().json;
  const std::string b = run_pipeline().json;
  EXPECT_EQ(a, b);
}

TEST(Golden, MatchesCommittedSnapshot) {
  const PipelineRun run = run_pipeline();
  const auto path = golden_path();

  const char* update = std::getenv("MPICP_UPDATE_GOLDEN");
  if (update != nullptr && std::string(update) == "1") {
    std::ofstream os(path);
    ASSERT_TRUE(os.good()) << "cannot write " << path;
    os << run.json;
    GTEST_SKIP() << "golden snapshot rewritten at " << path
                 << " — review and commit the diff";
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden snapshot " << path
      << " — generate it with MPICP_UPDATE_GOLDEN=1 and commit it";
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(run.json, want.str())
      << "pipeline outcome drifted from the committed snapshot; if the "
         "change is intentional, refresh with MPICP_UPDATE_GOLDEN=1 and "
         "commit the diff";
}

// ---- continuous retraining campaign -------------------------------------
//
// The second golden: a fixed-seed *drifting* campaign through the
// StreamPipeline (DESIGN.md §13). 1200 rows, 8% injected corruption, a
// machine regime swap at row 600. The byte-pinned snapshot fixes the
// whole lifecycle: quarantine accounting, the bootstrap publish, the
// detection offset after the shift, exactly one accepted drift refit,
// and the post-swap selections of the refit bank. Swap/refit COUNTS are
// pinned — never absolute registry versions, which are process-unique.

/// The campaign constants (mirrors tests/test_stream.cpp).
bench::StreamSpec golden_stream_spec() {
  bench::StreamSpec spec;
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

tune::StreamOptions golden_stream_options() {
  tune::StreamOptions opts;
  opts.selector.learner = "knn";  // memorizes per-config regime factors
  return opts;
}

struct StreamRun {
  tune::StreamPipeline::Stats stats;
  metrics::Snapshot snapshot;
  std::string json;
  std::uint64_t bootstrap_version = 0;
  std::uint64_t final_version = 0;
  bool post_swap_selections_match_bank = false;
};

StreamRun run_stream_campaign() {
  metrics::Registry::instance().reset();
  support::trace::reset();
  StreamRun run;

  bench::MeasurementStream stream(golden_stream_spec());
  tune::BankRegistry registry;
  tune::StreamPipeline pipeline(registry, golden_stream_options());
  const tune::BankKey key{"Hydra", sim::Collective::kBcast};

  for (int i = 0; i < 1200; ++i) {
    const auto out = pipeline.push_row(key, stream.next().text);
    if (out.published && run.bootstrap_version == 0) {
      run.bootstrap_version = registry.version(key);
    }
  }
  run.stats = pipeline.stats();
  run.final_version = registry.version(key);

  // Post-swap selections: the registry must answer bit-identically to
  // the refit bank it serves.
  std::vector<bench::Instance> grid;
  for (const int n : {2, 3, 8, 12, 16}) {
    for (const std::uint64_t m : {std::uint64_t{64}, std::uint64_t{65536},
                                  std::uint64_t{1048576}}) {
      grid.push_back({n, 4, m});
    }
  }
  const std::vector<int> selections = registry.select_grid(key, grid);
  const auto bank = registry.lookup(key);
  run.post_swap_selections_match_bank =
      bank != nullptr && selections == bank->select_grid(grid);

  run.snapshot = metrics::Registry::instance().snapshot();

  std::ostringstream os;
  os << "{\n";
  os << "  \"stream\": {\n";
  os << "    \"rows_seen\": " << run.stats.rows_seen << ",\n";
  os << "    \"rows_ingested\": " << run.stats.rows_ingested << ",\n";
  os << "    \"rows_quarantined\": " << run.stats.rows_quarantined
     << ",\n";
  os << "    \"reasons\": {";
  bool first = true;
  for (const auto& [reason, count] : run.stats.quarantine_reasons) {
    os << (first ? "" : ",") << "\n      \"" << json_escape(reason)
       << "\": " << count;
    first = false;
  }
  os << "\n    },\n";
  os << "    \"drift_detections\": " << run.stats.drift_detections
     << ",\n";
  os << "    \"detection_rows\": [";
  first = true;
  for (const std::uint64_t row : run.stats.detection_rows) {
    os << (first ? "" : ", ") << row;
    first = false;
  }
  os << "],\n";
  os << "    \"rows_discarded_on_drift\": "
     << run.stats.rows_discarded_on_drift << ",\n";
  os << "    \"refits_attempted\": " << run.stats.refits_attempted
     << ",\n";
  os << "    \"refits_published\": " << run.stats.refits_published
     << ",\n";
  os << "    \"refits_rejected\": " << run.stats.refits_rejected << ",\n";
  os << "    \"refits_failed\": " << run.stats.refits_failed << ",\n";
  os << "    \"backoff_skips\": " << run.stats.backoff_skips << ",\n";
  os << "    \"window_evictions\": " << run.stats.window_evictions
     << "\n  },\n";
  os << "  \"post_swap_selections\": [";
  first = true;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    os << (first ? "" : ",") << "\n    {\"nodes\": " << grid[i].nodes
       << ", \"ppn\": " << grid[i].ppn << ", \"msize\": " << grid[i].msize
       << ", \"uid\": " << selections[i] << "}";
    first = false;
  }
  os << "\n  ],\n";
  os << "  \"counters\": {";
  first = true;
  for (const auto& [name, value] : run.snapshot.counters) {
    const bool stream_counter =
        name.starts_with("stream.") || name.starts_with("drift.") ||
        name == "registry.swaps" || name == "registry.refits" ||
        name == "registry.refit_rejected" ||
        name == "registry.refit_failures";
    if (!stream_counter || value == 0) continue;
    os << (first ? "" : ",") << "\n    \"" << json_escape(name)
       << "\": " << value;
    first = false;
  }
  os << "\n  }\n}\n";
  run.json = os.str();
  return run;
}

std::filesystem::path stream_golden_path() {
  return std::filesystem::path(MPICP_GOLDEN_DIR) / "stream_pipeline.json";
}

// The acceptance reconciliation for the retraining loop: detection
// within a bounded latency of the known shift, exactly one accepted
// drift refit after the bootstrap, serving version moved exactly once,
// and the counters mirroring the pipeline stats exactly.
TEST(Golden, StreamCountersReconcile) {
  const StreamRun run = run_stream_campaign();
  const metrics::Snapshot& snap = run.snapshot;

  // Lifecycle: bootstrap publish + exactly one accepted drift refit.
  ASSERT_GT(run.bootstrap_version, 0u);
  EXPECT_EQ(run.stats.drift_detections, 1u);
  ASSERT_EQ(run.stats.detection_rows.size(), 1u);
  EXPECT_GT(run.stats.detection_rows[0], 600u) << "alarm before the shift";
  EXPECT_LT(run.stats.detection_rows[0], 800u) << "detection latency bound";
  EXPECT_EQ(run.stats.refits_published, 2u);
  EXPECT_EQ(run.stats.refits_attempted, 2u);
  EXPECT_EQ(run.stats.refits_rejected, 0u);
  EXPECT_EQ(run.stats.refits_failed, 0u);
  EXPECT_NE(run.final_version, run.bootstrap_version)
      << "the drift refit must move the serving version exactly once";
  EXPECT_TRUE(run.post_swap_selections_match_bank);

  // Counters mirror the stats exactly.
  EXPECT_EQ(counter_or_zero(snap, "stream.rows_seen"),
            run.stats.rows_seen);
  EXPECT_EQ(counter_or_zero(snap, "stream.rows_ingested"),
            run.stats.rows_ingested);
  EXPECT_EQ(counter_or_zero(snap, "stream.rows_quarantined"),
            run.stats.rows_quarantined);
  for (const auto& [reason, count] : run.stats.quarantine_reasons) {
    EXPECT_EQ(counter_or_zero(snap, "stream.quarantine." + reason), count)
        << reason;
  }
  EXPECT_EQ(counter_or_zero(snap, "drift.detected"),
            run.stats.drift_detections);
  EXPECT_EQ(counter_or_zero(snap, "stream.rows_discarded_on_drift"),
            run.stats.rows_discarded_on_drift);
  EXPECT_EQ(counter_or_zero(snap, "stream.refits_attempted"),
            run.stats.refits_attempted);
  EXPECT_EQ(counter_or_zero(snap, "stream.refits_published"),
            run.stats.refits_published);
  EXPECT_EQ(counter_or_zero(snap, "drift.refit_rejected"),
            run.stats.refits_rejected + run.stats.refits_failed);
  EXPECT_EQ(counter_or_zero(snap, "registry.swaps"),
            run.stats.refits_published);
  EXPECT_EQ(counter_or_zero(snap, "registry.refits"),
            run.stats.refits_published);
}

TEST(Golden, StreamRenderingIsDeterministic) {
  const std::string a = run_stream_campaign().json;
  const std::string b = run_stream_campaign().json;
  EXPECT_EQ(a, b);
}

TEST(Golden, StreamMatchesCommittedSnapshot) {
  const StreamRun run = run_stream_campaign();
  const auto path = stream_golden_path();

  const char* update = std::getenv("MPICP_UPDATE_GOLDEN");
  if (update != nullptr && std::string(update) == "1") {
    std::ofstream os(path);
    ASSERT_TRUE(os.good()) << "cannot write " << path;
    os << run.json;
    GTEST_SKIP() << "golden snapshot rewritten at " << path
                 << " — review and commit the diff";
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden snapshot " << path
      << " — generate it with MPICP_UPDATE_GOLDEN=1 and commit it";
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(run.json, want.str())
      << "stream campaign outcome drifted from the committed snapshot; "
         "if the change is intentional, refresh with MPICP_UPDATE_GOLDEN=1 "
         "and commit the diff";
}

// Rejected-refit variant: the same campaign, but every fit during the
// post-shift stretch is forced to fail. The incumbent bank must keep
// serving (version pinned), the failure/backoff ledger must reconcile
// exactly, and clearing the faults must let the pipeline self-heal.
TEST(Golden, StreamRejectedRefitKeepsIncumbent) {
  metrics::Registry::instance().reset();
  support::trace::reset();

  bench::MeasurementStream stream(golden_stream_spec());
  tune::BankRegistry registry;
  tune::StreamPipeline pipeline(registry, golden_stream_options());
  const tune::BankKey key{"Hydra", sim::Collective::kBcast};

  for (int i = 0; i < 600; ++i) {
    (void)pipeline.push_row(key, stream.next().text);
  }
  const std::uint64_t incumbent = registry.version(key);
  ASSERT_GT(incumbent, 0u);

  {
    fi::ScopedFaults faults({.fit_failures = {
        {1, 1000}, {2, 1000}, {3, 1000}, {4, 1000}}});
    for (int i = 0; i < 1200; ++i) {
      (void)pipeline.push_row(key, stream.next().text);
    }
  }
  const auto mid = pipeline.stats();
  EXPECT_EQ(mid.refits_published, 1u);
  EXPECT_GE(mid.refits_failed, 1u);
  EXPECT_EQ(registry.version(key), incumbent)
      << "a failed refit must never unseat the incumbent";

  // Counters reconcile exactly with the attempt ledger.
  const metrics::Snapshot snap = metrics::Registry::instance().snapshot();
  EXPECT_EQ(counter_or_zero(snap, "stream.refits_attempted"),
            mid.refits_attempted);
  EXPECT_EQ(counter_or_zero(snap, "drift.refit_rejected"),
            mid.refits_rejected + mid.refits_failed);
  EXPECT_EQ(mid.refits_attempted,
            mid.refits_published + mid.refits_rejected + mid.refits_failed);

  // Self-healing: faults gone, the next due refit swaps a fresh bank in.
  for (int i = 0; i < 1200; ++i) {
    (void)pipeline.push_row(key, stream.next().text);
  }
  EXPECT_EQ(pipeline.stats().refits_published, 2u);
  EXPECT_NE(registry.version(key), incumbent);
}

// ---- rule distillation ----------------------------------------------------
//
// The third golden: a fixed-seed Bcast distillation (DESIGN.md §14).
// The same synthetic campaign as the pipeline golden is fitted, compiled
// and distilled into a rule table; the snapshot byte-pins the tree shape
// (node/leaf counts), the empirical agreement, the table's selection
// surface over the 36-point unseen grid, and an FNV-1a hash of the
// emitted C source — so any drift in the split search, the integer
// bounds or the code generator lands as a reviewable diff.

struct DistillRun {
  tune::RuleDistillation dist;
  std::string c_source;
  std::string json;
};

DistillRun run_distill() {
  DistillRun run;
  const bench::Dataset ds = make_synthetic(1);
  tune::Selector selector(tune::SelectorOptions{.learner = "gam"});
  (void)selector.fit(ds, {2, 4, 8, 16, 32});
  const std::vector<bench::Instance> grid = ds.instances();
  run.dist = tune::distill(selector.compile(), grid, {.max_depth = 12});
  run.c_source = run.dist.table.to_c_code("mpicp_select_bcast_hydra");

  std::ostringstream os;
  os.precision(17);  // doubles round-trip exactly
  os << "{\n";
  os << "  \"distill\": {\n";
  os << "    \"grid_points\": " << run.dist.grid_points << ",\n";
  os << "    \"tree_nodes\": " << run.dist.table.num_nodes() << ",\n";
  os << "    \"tree_leaves\": " << run.dist.table.num_leaves() << ",\n";
  os << "    \"agreement\": " << run.dist.table.agreement() << "\n  },\n";
  os << "  \"surface\": [";
  bool first = true;
  for (const int n : {3, 6, 12, 24}) {
    for (const int ppn : {1, 4, 8}) {
      for (const std::uint64_t m :
           {std::uint64_t{64}, std::uint64_t{65536},
            std::uint64_t{1048576}}) {
        os << (first ? "" : ",") << "\n    {\"nodes\": " << n
           << ", \"ppn\": " << ppn << ", \"msize\": " << m
           << ", \"uid\": " << run.dist.table.uid_for({n, ppn, m}) << "}";
        first = false;
      }
    }
  }
  os << "\n  ],\n";
  os << "  \"c_source_fnv1a64\": \"" << std::hex
     << ml::io::fnv1a64(run.c_source) << std::dec << "\"\n}\n";
  run.json = os.str();
  return run;
}

std::filesystem::path distill_golden_path() {
  return std::filesystem::path(MPICP_GOLDEN_DIR) / "rule_distill.json";
}

// The acceptance reconciliation: the table's integer-bound walk and the
// split thresholds it was fitted with are the same classifier on the
// surface, and an uncapped-enough tree reproduces the bank.
TEST(Golden, DistillTreeAndTableAgreeOnSurface) {
  const DistillRun run = run_distill();
  EXPECT_EQ(run.dist.table.agreement(), 1.0);
  for (const int n : {3, 6, 12, 24}) {
    for (const int ppn : {1, 4, 8}) {
      for (const std::uint64_t m :
           {std::uint64_t{64}, std::uint64_t{65536},
            std::uint64_t{1048576}}) {
        const bench::Instance inst{n, ppn, m};
        EXPECT_EQ(run.dist.table.uid_for(inst),
                  rule_voices::reference_uid(run.dist.table, inst))
            << "n=" << n << " ppn=" << ppn << " m=" << m;
      }
    }
  }
}

TEST(Golden, DistillRenderingIsDeterministic) {
  const std::string a = run_distill().json;
  const std::string b = run_distill().json;
  EXPECT_EQ(a, b);
}

TEST(Golden, DistillMatchesCommittedSnapshot) {
  const DistillRun run = run_distill();
  const auto path = distill_golden_path();

  const char* update = std::getenv("MPICP_UPDATE_GOLDEN");
  if (update != nullptr && std::string(update) == "1") {
    std::ofstream os(path);
    ASSERT_TRUE(os.good()) << "cannot write " << path;
    os << run.json;
    GTEST_SKIP() << "golden snapshot rewritten at " << path
                 << " — review and commit the diff";
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden snapshot " << path
      << " — generate it with MPICP_UPDATE_GOLDEN=1 and commit it";
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(run.json, want.str())
      << "distillation outcome drifted from the committed snapshot; if "
         "the change is intentional, refresh with MPICP_UPDATE_GOLDEN=1 "
         "and commit the diff";
}

// ---- Table IV cells on the committed datasets ---------------------------
//
// Every fitted model feeds Table IV, so the bits of its cells pin the
// whole set-up path: CSV ingest, every learner's fit, the compiled bank
// and the evaluation. A change meant to be exact (a faster fit, a
// leaner loader) must leave this snapshot untouched; a change meant to
// move the models re-records it with MPICP_UPDATE_GOLDEN=1.

/// `"key": <17 significant digits>, "key_bits": "<hexfloat>"` — both
/// spell the exact double; the hexfloat shows which bits moved.
std::string format_cell(const char* key, double v) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "\"%s\": %.17g, \"%s_bits\": \"%a\"", key,
                v, key, v);
  return buf;
}

std::string render_table4() {
  std::ostringstream os;
  os << "{\n  \"cells\": [";
  bool first = true;
  for (const std::string name : {"d4", "d6"}) {
    const bench::DatasetSpec& spec = bench::dataset_spec(name);
    const bench::Dataset ds = bench::Dataset::load_csv(
        std::filesystem::path(MPICP_DATA_DIR) / (name + ".csv"), name,
        spec.lib, spec.coll, spec.machine);
    for (const std::string learner : {"xgboost", "gam", "knn", "rf"}) {
      const tune::EvalSummary s =
          tune::run_split_evaluation(ds, learner, false).summary;
      os << (first ? "" : ",") << "\n    {\"dataset\": \"" << name
         << "\", \"learner\": \"" << learner << "\",\n     "
         << format_cell("mean_speedup", s.mean_speedup) << ",\n     "
         << format_cell("mean_norm_predicted", s.mean_norm_predicted)
         << "}";
      first = false;
    }
  }
  os << "\n  ]\n}\n";
  return os.str();
}

TEST(Golden, Table4CellsMatchCommittedSnapshot) {
  const std::string json = render_table4();
  const auto path =
      std::filesystem::path(MPICP_GOLDEN_DIR) / "table4_cells.json";

  const char* update = std::getenv("MPICP_UPDATE_GOLDEN");
  if (update != nullptr && std::string(update) == "1") {
    std::ofstream os(path);
    ASSERT_TRUE(os.good()) << "cannot write " << path;
    os << json;
    GTEST_SKIP() << "golden snapshot rewritten at " << path
                 << " — review and commit the diff";
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden snapshot " << path
      << " — generate it with MPICP_UPDATE_GOLDEN=1 and commit it";
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(json, want.str())
      << "a Table IV cell moved; if the models are meant to change, "
         "refresh with MPICP_UPDATE_GOLDEN=1 and commit the diff";
}

}  // namespace
}  // namespace mpicp
