// Continuous-retraining soak: the StreamPipeline production shape end
// to end (DESIGN.md §13). One producer lane pumps a corrupted drifting
// measurement stream — several mid-stream machine-regime shifts plus
// seeded row corruption — through a StreamPipeline against a live
// BankRegistry, while every other lane serves selections continuously.
//
// The gate is serving continuity: across bootstrap, drift detections,
// window discards, refits and hot swaps, not a single selection may
// fail. The run also reports detection latency per shift (rows from
// the shift offset to the alarm), swap/quarantine accounting from the
// pipeline's deterministic stats, and sampled per-selection latency
// percentiles:
//
//   --smoke            shorter stream — the CI mode
//   --rows=N           override the stream length
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "collbench/dataset.hpp"
#include "collbench/streamgen.hpp"
#include "support/parallel.hpp"
#include "support/str.hpp"
#include "support/table.hpp"
#include "support/trace.hpp"
#include "tune/registry.hpp"
#include "tune/stream.hpp"

namespace {

using namespace mpicp;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The drifting campaign: the test_stream constants (compact grid so
/// the windowed KNN refits see several rows per configuration), scaled
/// to `rows` with a regime shift at 25%, 50% and 75% of the stream.
bench::StreamSpec soak_spec(std::size_t rows) {
  bench::StreamSpec spec;
  spec.uids = {1, 2, 3, 4};
  spec.nodes = {2, 8, 16};
  spec.ppns = {4};
  spec.msizes = {64, 1048576};
  spec.machine_seed = 101;
  spec.shifts = {{rows / 4, 202}, {rows / 2, 303}, {3 * rows / 4, 404}};
  spec.fault_rate = 0.08;
  spec.seed = 7;
  return spec;
}

tune::StreamOptions soak_options() {
  tune::StreamOptions opts;
  // KNN memorizes the stream's per-configuration systematic factors, so
  // stationary serving error is pure jitter and each regime shift is a
  // crisp step for the detector (see tests/test_stream.cpp).
  opts.selector.learner = "knn";
  return opts;
}

int run_soak(std::size_t rows, int sample_every) {
  const tune::BankKey key{"Hydra", sim::Collective::kBcast};
  const bench::StreamSpec spec = soak_spec(rows);
  bench::MeasurementStream stream(spec);
  tune::BankRegistry registry;
  tune::StreamPipeline pipeline(registry, soak_options());

  // Bootstrap on the pump lane alone so every serving lane finds a bank
  // from its very first query.
  std::printf("bootstrapping on the first regime...\n");
  std::size_t pumped = 0;
  while (registry.version(key) == 0 && pumped < rows / 4) {
    (void)pipeline.push_row(key, stream.next().text);
    ++pumped;
  }
  if (registry.version(key) == 0) {
    std::printf("FAIL: no bootstrap bank within the first %zu rows\n",
                pumped);
    return 1;
  }
  std::printf("bootstrap bank live after %zu rows; pumping %zu more "
              "across %zu regime shifts...\n",
              pumped, rows - pumped, spec.shifts.size());

  // Lane 0 pumps the remaining stream (drift detections, discards,
  // refits and hot swaps all happen there); the other lanes serve a
  // deterministic mixed query load, sampling every Kth latency. Spans
  // off: per-row records would dominate at soak scale.
  const int lanes = std::max(2, support::configured_threads());
  const std::size_t serves_per_lane = rows;
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> served{0};
  std::vector<std::vector<double>> lane_samples(
      static_cast<std::size_t>(lanes));
  support::trace::ScopedEnabled spans_off(false);

  const auto start = Clock::now();
  support::parallel_for(
      static_cast<std::size_t>(lanes), 1, [&](std::size_t lane) {
        if (lane == 0) {
          while (pumped < rows) {
            (void)pipeline.push_row(key, stream.next().text);
            ++pumped;
          }
          return;
        }
        std::vector<double>& samples = lane_samples[lane];
        samples.reserve(serves_per_lane /
                            static_cast<std::size_t>(sample_every) +
                        1);
        for (std::size_t i = 0; i < serves_per_lane; ++i) {
          const bench::Instance inst{
              spec.nodes[i % spec.nodes.size()], spec.ppns[0],
              spec.msizes[(i / 3) % spec.msizes.size()]};
          int uid = 0;
          if (i % static_cast<std::size_t>(sample_every) == 0) {
            const auto q0 = Clock::now();
            uid = registry.select_uid_or_default(key, inst,
                                                 sim::MpiLib::kOpenMPI);
            samples.push_back(seconds_since(q0) * 1e6);
          } else {
            uid = registry.select_uid_or_default(key, inst,
                                                 sim::MpiLib::kOpenMPI);
          }
          if (uid <= 0) failed.fetch_add(1, std::memory_order_relaxed);
          served.fetch_add(1, std::memory_order_relaxed);
        }
      });
  const double elapsed_s = seconds_since(start);

  const tune::StreamPipeline::Stats& stats = pipeline.stats();

  // Detection latency per shift: rows from the shift offset to the
  // first alarm at or after it (detection_rows counts rows_seen).
  std::vector<double> latencies;
  for (const bench::RegimeShift& shift : spec.shifts) {
    for (const std::uint64_t det : stats.detection_rows) {
      if (det >= shift.at_row) {
        latencies.push_back(static_cast<double>(det - shift.at_row));
        break;
      }
    }
  }
  double latency_mean = 0.0, latency_max = 0.0;
  for (const double l : latencies) {
    latency_mean += l;
    latency_max = std::max(latency_max, l);
  }
  if (!latencies.empty()) {
    latency_mean /= static_cast<double>(latencies.size());
  }

  std::vector<double> samples;
  for (const std::vector<double>& lane : lane_samples) {
    samples.insert(samples.end(), lane.begin(), lane.end());
  }
  std::sort(samples.begin(), samples.end());
  const auto pct = [&](double p) {
    if (samples.empty()) return 0.0;
    const std::size_t idx = std::min(
        samples.size() - 1,
        static_cast<std::size_t>(p * static_cast<double>(samples.size())));
    return samples[idx];
  };
  const double p50 = pct(0.50);
  const double p99 = pct(0.99);

  const std::uint64_t swaps = stats.refits_published > 0
                                  ? stats.refits_published - 1
                                  : 0;  // minus the bootstrap publish
  support::TextTable table({"metric", "value"});
  table.add_row({"rows pumped", std::to_string(rows)});
  table.add_row({"rows quarantined",
                 std::to_string(stats.rows_quarantined)});
  table.add_row({"regime shifts", std::to_string(spec.shifts.size())});
  table.add_row({"drift detections",
                 std::to_string(stats.drift_detections)});
  table.add_row({"hot swaps (post-bootstrap)", std::to_string(swaps)});
  table.add_row({"refits rejected",
                 std::to_string(stats.refits_rejected)});
  table.add_row({"detection latency mean [rows]",
                 support::format_double(latency_mean, 4)});
  table.add_row({"detection latency max [rows]",
                 support::format_double(latency_max, 4)});
  table.add_row({"selections served", std::to_string(served.load())});
  table.add_row({"selections failed", std::to_string(failed.load())});
  table.add_row({"serve p50 [us]", support::format_double(p50, 3)});
  table.add_row({"serve p99 [us]", support::format_double(p99, 3)});
  table.add_row({"elapsed [s]", support::format_double(elapsed_s, 3)});
  std::ostringstream os;
  table.print(os);
  std::fputs(os.str().c_str(), stdout);

  if (failed.load() != 0) {
    std::printf("FAIL: %llu selections failed during the soak\n",
                static_cast<unsigned long long>(failed.load()));
    return 1;
  }
  if (swaps == 0) {
    std::printf("FAIL: no hot swap happened across %zu regime shifts\n",
                spec.shifts.size());
    return 1;
  }
  std::printf("serving stayed continuous through %zu shifts: yes\n",
              spec.shifts.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::size_t rows = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--rows=", 7) == 0) {
      rows = static_cast<std::size_t>(
          std::strtoull(argv[i] + 7, nullptr, 10));
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  if (rows == 0) rows = smoke ? 4000 : 20000;
  return run_soak(rows, /*sample_every=*/16);
}
