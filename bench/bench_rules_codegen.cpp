// Rule-distillation latency/fidelity harness (DESIGN.md §14): fit a
// selector, compile it, distill the compiled bank into a RuleTable and
// quantify the fidelity/speed frontier of the offline rule export —
// leaf count and agreement across a max_depth sweep, then per-dispatch
// latency of the flat table walk (ns) against the compiled bank's
// argmin (µs) on the same query stream.
//
// Two hard gates make this a harness, not a report: the table saved
// and loaded back must agree with the fitted one on every probe (the
// exported file is the export's contract), and the rule-table p50 must
// be at least 10x faster than the bank argmin p50. Either failing
// exits non-zero.
//
//   --smoke            fewer dispatches — the CI mode
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "collbench/dataset.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"
#include "support/table.hpp"
#include "support/trace.hpp"
#include "tune/compiled_bank.hpp"
#include "tune/ruletable.hpp"
#include "tune/selector.hpp"

namespace {

using namespace mpicp;
using Clock = std::chrono::steady_clock;

const std::vector<int>& grid_nodes() {
  static const std::vector<int> v = {4, 8, 16, 20, 24, 32, 36};
  return v;
}
const std::vector<int>& grid_ppns() {
  static const std::vector<int> v = {1, 4, 8, 16, 32};
  return v;
}
const std::vector<std::uint64_t>& grid_msizes() {
  static const std::vector<std::uint64_t> v = {16,    1024,   16384,
                                               65536, 524288, 4194304};
  return v;
}

/// Synthetic measurements in the d2 shape: per-uid cost surfaces whose
/// winner changes across the (m, n, N) grid, so the distilled tree has
/// real structure to capture.
bench::Dataset make_dataset() {
  bench::Dataset ds("rules-distill", sim::MpiLib::kOpenMPI,
                    sim::Collective::kBcast, "Hydra");
  support::Xoshiro256 rng(17);
  for (int uid = 1; uid <= 13; ++uid) {
    const double log_w = 0.15 + 0.05 * (uid % 7);
    const double band_w = 0.0008 + 0.0003 * ((uid * 3) % 5);
    for (const int n : grid_nodes()) {
      for (const int ppn : grid_ppns()) {
        for (const std::uint64_t m : grid_msizes()) {
          const double p = n * ppn;
          const double t = 5.0 + log_w * uid * std::log2(p) +
                           band_w * static_cast<double>(m) / std::sqrt(p);
          for (int rep = 0; rep < 3; ++rep) {
            ds.add({uid, n, ppn, m, rng.lognormal_median(t, 0.05)});
          }
        }
      }
    }
  }
  return ds;
}

/// The distillation grid: the dataset's own (m, n, N) lattice.
std::vector<bench::Instance> make_grid() {
  std::vector<bench::Instance> grid;
  grid.reserve(grid_nodes().size() * grid_ppns().size() *
               grid_msizes().size());
  for (const int n : grid_nodes()) {
    for (const int ppn : grid_ppns()) {
      for (const std::uint64_t m : grid_msizes()) {
        grid.push_back({n, ppn, m});
      }
    }
  }
  return grid;
}

/// Random on- and off-grid query stream (interpolated node counts and
/// message sizes included — the tiers must agree off the lattice too).
std::vector<bench::Instance> make_stream(std::size_t total) {
  support::Xoshiro256 rng(4242);
  std::vector<bench::Instance> stream;
  stream.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    const int n = 4 + static_cast<int>(rng.uniform_int(33));
    const int ppn = 1 + static_cast<int>(rng.uniform_int(32));
    const std::uint64_t m = std::uint64_t{1}
                            << (4 + rng.uniform_int(19));
    stream.push_back({n, ppn, m});
  }
  return stream;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double percentile(std::vector<double>& samples, double p) {
  std::sort(samples.begin(), samples.end());
  const std::size_t idx = std::min(
      samples.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(samples.size())));
  return samples[idx];
}

int run(std::size_t dispatches) {
  std::printf("fitting the selector and compiling the bank...\n");
  const bench::Dataset ds = make_dataset();
  tune::Selector selector(tune::SelectorOptions{.learner = "gam"});
  (void)selector.fit(ds, ds.node_counts());
  const tune::CompiledBank& bank = selector.compile();
  const std::vector<bench::Instance> grid = make_grid();

  // Fidelity frontier: leaves and agreement as the depth cap loosens.
  std::printf("distilling over %zu grid points...\n\n", grid.size());
  support::TextTable sweep({"max depth", "leaves", "agreement with bank"});
  for (const int depth : {2, 3, 4, 6, 8, 12}) {
    const tune::RuleDistillation dist =
        tune::distill(bank, grid, {.max_depth = depth});
    sweep.add_row({std::to_string(depth),
                   std::to_string(dist.table.num_leaves()),
                   support::format_double(dist.table.agreement(), 4)});
  }
  std::ostringstream os;
  sweep.print(os);
  std::fputs(os.str().c_str(), stdout);

  // The serving candidate: default params, as the registry would use.
  const tune::RuleDistillation dist = tune::distill(bank, grid, {});
  std::printf("\nserving table: %d leaves, agreement %.4f\n",
              dist.table.num_leaves(), dist.table.agreement());

  // Hard gate 1 — the saved-and-loaded table picks exactly like the
  // fitted one on every probe. A single divergence means the file
  // format or the bound derivation is broken, not slow.
  const std::filesystem::path saved =
      std::filesystem::temp_directory_path() /
      ("mpicp_bench_rules_" + std::to_string(::getpid()) + ".txt");
  dist.table.save(saved);
  const tune::RuleTable loaded = tune::RuleTable::load(saved);
  std::filesystem::remove(saved);
  const std::vector<bench::Instance> stream = make_stream(dispatches);
  for (const bench::Instance& inst : grid) {
    if (loaded.uid_for(inst) != dist.table.uid_for(inst)) {
      std::printf("FAIL: loaded table diverges on a grid point\n");
      return 1;
    }
  }
  for (const bench::Instance& inst : stream) {
    if (loaded.uid_for(inst) != dist.table.uid_for(inst)) {
      std::printf("FAIL: loaded table diverges off-grid\n");
      return 1;
    }
  }
  std::printf("loaded == fitted on %zu grid + %zu stream probes: yes\n\n",
              grid.size(), stream.size());

  // Latency: per-dispatch cost in batches of kBatch (one clock read per
  // batch — a single table walk is below timer resolution). The two
  // tiers' batches alternate, so neighbour load on a shared host slows
  // both alike instead of only the tier timed while it lasted.
  constexpr std::size_t kBatch = 256;
  const std::size_t batches = stream.size() / kBatch;
  std::vector<double> rule_ns(batches, 0.0);
  std::vector<double> bank_us(batches, 0.0);
  support::trace::ScopedEnabled spans_off(false);

  long long sink = 0;
  for (std::size_t b = 0; b < batches; ++b) {
    auto t0 = Clock::now();
    for (std::size_t i = b * kBatch; i < (b + 1) * kBatch; ++i) {
      sink += dist.table.uid_for(stream[i]);
    }
    rule_ns[b] = seconds_since(t0) * 1e9 / static_cast<double>(kBatch);
    t0 = Clock::now();
    for (std::size_t i = b * kBatch; i < (b + 1) * kBatch; ++i) {
      sink += bank.select_uid_or_invalid(stream[i]);
    }
    bank_us[b] = seconds_since(t0) * 1e6 / static_cast<double>(kBatch);
  }

  const double rule_p50 = percentile(rule_ns, 0.50);
  const double rule_p99 = percentile(rule_ns, 0.99);
  const double bank_p50 = percentile(bank_us, 0.50);
  const double bank_p99 = percentile(bank_us, 0.99);
  const double speedup = bank_p50 * 1e3 / rule_p50;

  support::TextTable table({"metric", "value"});
  table.add_row({"dispatches per tier",
                 std::to_string(batches * kBatch)});
  table.add_row({"rule table p50 [ns]",
                 support::format_double(rule_p50, 1)});
  table.add_row({"rule table p99 [ns]",
                 support::format_double(rule_p99, 1)});
  table.add_row({"bank argmin p50 [us]",
                 support::format_double(bank_p50, 3)});
  table.add_row({"bank argmin p99 [us]",
                 support::format_double(bank_p99, 3)});
  table.add_row({"p50 speedup vs bank", support::format_double(speedup, 1)});
  std::ostringstream os2;
  table.print(os2);
  std::fputs(os2.str().c_str(), stdout);
  if (sink == 42) std::printf(" \n");  // keep the dispatch loops live

  // Hard gate 2 — the tier only earns its keep at >= 10x the bank.
  if (speedup < 10.0) {
    std::printf("FAIL: rule-table p50 speedup %.1fx below the 10x gate\n",
                speedup);
    return 1;
  }

  std::printf("\ndistilled table rendered as C (what a library maintainer "
              "would hard-code):\n\n%s",
              dist.table.to_c_code("mpicp_select_bcast_hydra").c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  return run(smoke ? 1u << 16 : 1u << 20);
}
