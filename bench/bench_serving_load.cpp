// Serving-at-scale load generator: the registry counterpart of
// bench_prediction_latency. It stands up a BankRegistry with several
// (machine, collective) banks, then drains millions of mixed
// (machine, collective, m, n, N) selections on the support/parallel
// pool while hot-publishing refit bank variants mid-run — the
// production shape of "which algorithm?" answered at job-launch time
// for a whole cluster, with training rolling underneath it.
//
// Before the timed runs, a swap-free pre-pass pins correctness: the
// registry's answers (its own parallel loop and `serve`) must be
// bit-identical to direct CompiledBank serving. The stream is then
// drained twice, on one thread and at the configured thread count N
// (MPICP_THREADS), each with the same mid-run swaps. The N-thread run
// gives the unsuffixed keys (per-query latency percentiles sampled
// every Kth query, aggregate throughput, memo counts); the 1-thread run
// adds throughput_qps_1t, so BENCH_serving.json (bench_json.hpp) also
// carries throughput_qps_nt, p99_us_nt and scaling_efficiency =
// qps(N) / (N * qps(1)):
//
//   --smoke            fewer queries / swaps — the CI mode
//   --json-out=PATH    default BENCH_serving.json
//   --queries=N        override the stream length
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "collbench/dataset.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"
#include "support/table.hpp"
#include "support/trace.hpp"
#include "tune/registry.hpp"
#include "tune/selector.hpp"

namespace {

using namespace mpicp;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

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

/// Synthetic measurements in the d2 shape; the seed perturbs the
/// per-uid cost surface so refit variants of the same bank select
/// differently — a hot swap is observable, not a no-op.
bench::Dataset make_dataset(const std::string& machine,
                            sim::Collective coll, sim::MpiLib lib,
                            std::uint64_t seed) {
  bench::Dataset ds("serving-" + machine, lib, coll, machine);
  support::Xoshiro256 rng(seed);
  for (int uid = 1; uid <= 13; ++uid) {
    const double log_w = 0.15 + 0.05 * ((uid + seed) % 7);
    const double band_w = 0.0008 + 0.0003 * ((uid * 3 + seed) % 5);
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

std::shared_ptr<const tune::CompiledBank> fit_bank(
    const bench::Dataset& ds) {
  tune::Selector selector(tune::SelectorOptions{.learner = "gam"});
  (void)selector.fit(ds, ds.node_counts());
  return std::make_shared<const tune::CompiledBank>(selector.compile());
}

/// One serving bank plus the pre-compiled refit variants the run
/// hot-swaps through (publish cost stays a pointer swap, not a fit).
struct BankSetup {
  tune::BankKey key;
  std::vector<std::shared_ptr<const tune::CompiledBank>> variants;
};

std::vector<BankSetup> make_banks() {
  const std::vector<std::pair<std::string, sim::Collective>> keys = {
      {"Hydra", sim::Collective::kAllreduce},
      {"Hydra", sim::Collective::kBcast},
      {"Jupiter", sim::Collective::kAllreduce},
      {"SuperMUC", sim::Collective::kAlltoall},
  };
  std::vector<BankSetup> banks;
  banks.reserve(keys.size());
  std::uint64_t seed = 17;
  for (const auto& [machine, coll] : keys) {
    BankSetup setup;
    setup.key = {machine, coll};
    for (int variant = 0; variant < 2; ++variant) {
      setup.variants.push_back(fit_bank(
          make_dataset(machine, coll, sim::MpiLib::kOpenMPI, seed++)));
    }
    banks.push_back(std::move(setup));
  }
  return banks;
}

/// Deterministic mixed query stream over every bank and the full
/// (m, n, N) grid (plus extrapolated node counts).
std::vector<tune::BankRegistry::Query> make_stream(
    const std::vector<BankSetup>& banks, std::size_t total) {
  std::vector<int> nodes = grid_nodes();
  nodes.push_back(40);
  nodes.push_back(64);
  support::Xoshiro256 rng(4242);
  std::vector<tune::BankRegistry::Query> stream;
  stream.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    const BankSetup& bank = banks[rng.uniform_int(banks.size())];
    stream.push_back(
        {bank.key,
         {nodes[rng.uniform_int(nodes.size())],
          grid_ppns()[rng.uniform_int(grid_ppns().size())],
          grid_msizes()[rng.uniform_int(grid_msizes().size())]}});
  }
  return stream;
}

/// Swap-free correctness pre-pass: registry loop == serve() == direct
/// CompiledBank on the same stream slice.
bool verify_identity(const tune::BankRegistry& registry,
                     const std::vector<BankSetup>& banks,
                     std::span<const tune::BankRegistry::Query> slice) {
  std::vector<int> direct(slice.size());
  for (std::size_t i = 0; i < slice.size(); ++i) {
    for (const BankSetup& bank : banks) {
      if (bank.key == slice[i].key) {
        direct[i] = bank.variants[0]->select_uid(slice[i].inst);
      }
    }
  }
  const std::vector<int> served = registry.serve(slice);
  std::vector<int> looped(slice.size());
  support::parallel_for(slice.size(), 64, [&](std::size_t i) {
    looped[i] = registry.select_uid(slice[i].key, slice[i].inst);
  });
  return served == direct && looped == direct;
}

/// One timed drain of the whole stream and the registry counters it
/// moved.
struct Drain {
  std::size_t queries = 0;
  double elapsed_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::uint64_t swaps = 0;  ///< hot swaps inside the drain
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;

  double qps() const { return static_cast<double>(queries) / elapsed_s; }
};

/// Drain `stream` on the support/parallel pool at the configured thread
/// count, hot-publishing `num_swaps` bank variants along the way and
/// timing every `sample_every`-th selection. Every bank is republished
/// at its first variant beforehand, so each drain starts from the same
/// banks under fresh versions (no memo entry of an earlier drain hits).
Drain drain(tune::BankRegistry& registry, const std::vector<BankSetup>& banks,
            const std::vector<tune::BankRegistry::Query>& stream,
            int num_swaps, int sample_every) {
  for (const BankSetup& bank : banks) {
    registry.publish(bank.key, bank.variants[0]);
  }
  const auto totals = [&registry] {
    Drain t;
    for (const auto& shard : registry.shard_stats()) {
      t.swaps += shard.swaps;
      t.memo_hits += shard.memo_hits;
      t.memo_misses += shard.memo_misses;
    }
    return t;
  };
  const Drain before = totals();
  const std::size_t total_queries = stream.size();
  const std::size_t swap_every =
      num_swaps > 0 ? total_queries / (static_cast<std::size_t>(num_swaps) + 1)
                    : total_queries + 1;
  const std::size_t num_samples =
      (total_queries + static_cast<std::size_t>(sample_every) - 1) /
      static_cast<std::size_t>(sample_every);
  std::vector<double> sample_us(num_samples, 0.0);

  const auto start = Clock::now();
  support::parallel_for(total_queries, 256, [&](std::size_t i) {
    if (i > 0 && i % swap_every == 0) {
      // A hot swap in the middle of the drain: in-flight selections on
      // other workers keep their snapshot; later ones see the variant.
      const std::size_t round = i / swap_every;
      const BankSetup& bank = banks[round % banks.size()];
      registry.publish(bank.key,
                       bank.variants[round % bank.variants.size()]);
    }
    if (i % static_cast<std::size_t>(sample_every) == 0) {
      const auto q0 = Clock::now();
      (void)registry.select_uid(stream[i].key, stream[i].inst);
      sample_us[i / static_cast<std::size_t>(sample_every)] =
          seconds_since(q0) * 1e6;
    } else {
      (void)registry.select_uid(stream[i].key, stream[i].inst);
    }
  });
  const double elapsed_s = seconds_since(start);
  Drain d = totals();
  d.elapsed_s = elapsed_s;
  d.queries = total_queries;
  d.swaps -= before.swaps;
  d.memo_hits -= before.memo_hits;
  d.memo_misses -= before.memo_misses;

  std::sort(sample_us.begin(), sample_us.end());
  const auto pct = [&](double p) {
    const std::size_t idx = std::min(
        sample_us.size() - 1,
        static_cast<std::size_t>(p * static_cast<double>(sample_us.size())));
    return sample_us[idx];
  };
  d.p50_us = pct(0.50);
  d.p99_us = pct(0.99);
  return d;
}

int run_load(std::size_t total_queries, int num_swaps, int sample_every,
             const std::string& json_path) {
  std::printf("fitting bank variants (4 keys x 2 refits)...\n");
  const std::vector<BankSetup> banks = make_banks();
  tune::BankRegistry registry;
  for (const BankSetup& bank : banks) {
    registry.publish(bank.key, bank.variants[0]);
  }
  std::printf("generating %zu-query mixed stream over %zu banks...\n",
              total_queries, banks.size());
  const std::vector<tune::BankRegistry::Query> stream =
      make_stream(banks, total_queries);

  const std::size_t verify_n = std::min<std::size_t>(4096, stream.size());
  if (!verify_identity(registry, banks,
                       {stream.data(), verify_n})) {
    std::printf("FAIL: registry picks differ from direct CompiledBank "
                "serving\n");
    return 1;
  }
  std::printf("registry picks bit-identical to direct serving on a "
              "%zu-query pre-pass: yes\n\n",
              verify_n);

  // The timed drains: first on one thread, then at the configured
  // thread count (the run the unsuffixed keys describe). Spans off: at
  // millions of queries the per-span records would dominate memory; the
  // span overhead itself is what bench_observability_overhead measures.
  support::trace::ScopedEnabled spans_off(false);
  const int threads = support::configured_threads();
  Drain one;
  {
    support::ScopedThreads serial(1);
    one = drain(registry, banks, stream, num_swaps, sample_every);
  }
  const Drain many = drain(registry, banks, stream, num_swaps, sample_every);
  const double scaling =
      many.qps() / (static_cast<double>(threads) * one.qps());

  support::TextTable table({"metric", "value"});
  table.add_row({"queries", std::to_string(total_queries)});
  table.add_row({"threads", std::to_string(threads)});
  table.add_row({"hot swaps", std::to_string(many.swaps)});
  table.add_row({"elapsed [s]", support::format_double(many.elapsed_s, 3)});
  table.add_row({"throughput [q/s]", support::format_double(many.qps(), 0)});
  table.add_row({"throughput, 1 thread [q/s]",
                 support::format_double(one.qps(), 0)});
  table.add_row({"scaling efficiency", support::format_double(scaling, 3)});
  table.add_row({"p50 latency [us]", support::format_double(many.p50_us, 3)});
  table.add_row({"p99 latency [us]", support::format_double(many.p99_us, 3)});
  table.add_row({"p99 latency, 1 thread [us]",
                 support::format_double(one.p99_us, 3)});
  table.add_row({"memo hits", std::to_string(many.memo_hits)});
  table.add_row({"memo misses", std::to_string(many.memo_misses)});
  std::ostringstream os;
  table.print(os);
  std::fputs(os.str().c_str(), stdout);

  bench::JsonMetrics metrics;
  metrics.emplace_back("queries", static_cast<double>(total_queries));
  metrics.emplace_back("banks", static_cast<double>(banks.size()));
  metrics.emplace_back("hot_swaps", static_cast<double>(many.swaps));
  metrics.emplace_back("elapsed_s", many.elapsed_s);
  metrics.emplace_back("throughput_qps", many.qps());
  metrics.emplace_back("p50_us", many.p50_us);
  metrics.emplace_back("p99_us", many.p99_us);
  metrics.emplace_back("memo_hits", static_cast<double>(many.memo_hits));
  metrics.emplace_back("memo_misses", static_cast<double>(many.memo_misses));
  metrics.emplace_back("threads", static_cast<double>(threads));
  metrics.emplace_back("throughput_qps_1t", one.qps());
  metrics.emplace_back("throughput_qps_nt", many.qps());
  metrics.emplace_back("p99_us_nt", many.p99_us);
  metrics.emplace_back("scaling_efficiency", scaling);
  bench::json_report(json_path, "serving_load", metrics);
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_serving.json";
  std::size_t queries = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--json-out=", 11) == 0) {
      json_path = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--queries=", 10) == 0) {
      queries = static_cast<std::size_t>(
          std::strtoull(argv[i] + 10, nullptr, 10));
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  if (queries == 0) queries = smoke ? 200000 : 2000000;
  const int num_swaps = smoke ? 3 : 12;
  return run_load(queries, num_swaps, /*sample_every=*/64, json_path);
}
