// mpicp repository benchmark (see perfbench/README.md).
//
//   perfbench --workload <reproduce|serve_grid|serve_offgrid> --seed <n>
//             --seconds <s> --trace <0|1> [--data-dir D] [--scratch D]
//             [--git-sha SHA]
//   perfbench --self-test
//   perfbench --list-metrics
//
// Every workload runs the Table IV pipeline and closed-loop serving; the
// workloads differ in where the datasets come from and what the query
// stream looks like. The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "collbench/generator.hpp"
#include "harness.hpp"
#include "simmpi/coll/types.hpp"
#include "simmpi/executor.hpp"
#include "simnet/machine.hpp"
#include "support/parallel.hpp"
#include "support/trace.hpp"
#include "tune/ruletable.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

const std::vector<std::string>& end_to_end_metrics() {
  static const std::vector<std::string> names = {
      "setup_s",      "reproduce_s",  "table4_mean_speedup",
      "table4_norm_predicted",        "serve_qps_1t",
      "serve_qps_nt",
  };
  return names;
}

const std::vector<std::string>& per_layer_metrics() {
  static const std::vector<std::string> names = {
      "simmpi.build_s",
      "simmpi.build_ops_per_s",
      "simmpi.exec_s",
      "simmpi.des_runs_per_s",
      "simmpi.messages_per_s",
      "simmpi.messages",
      "collbench.generate_s",
      "collbench.configs_per_s",
      "collbench.records",
      "collbench.load_csv_s",
      "ml.fit_s.xgboost",
      "ml.fit_s.gam",
      "ml.fit_s.knn",
      "tune.compile_s.xgboost",
      "tune.compile_s.gam",
      "tune.compile_s.knn",
      "tune.evaluate_s.xgboost",
      "tune.evaluate_s.gam",
      "tune.evaluate_s.knn",
      "tune.bank.select_ns.gbt",
      "tune.bank.select_ns.gam",
      "tune.bank.select_ns.knn",
      "tune.registry.select_overhead_ns",
      "tune.registry.lookup_ns_1t",
      "tune.registry.lookup_ns_nt",
      "tune.registry.memo_hit_ratio",
      "tune.registry.publish_us",
      "tune.registry.swaps",
      "tune.registry.rss_growth_mb",
      "tune.rules.dispatch_ns",
      "tune.rules.offgrid_agreement",
      "support.trace.span_cost_ratio",
      "bench.clock_read_ns",
      "bench.trace_overhead_ratio",
      "bench.failed_ratio",
      "serve_p50_us_1t",
      "serve_p99_us_1t",
      "serve_p50_us_nt",
      "serve_p99_us_nt",
      "scaling_efficiency",
  };
  return names;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir = "data";
  std::string scratch = ".bench_build/perfbench/scratch";
  std::string git_sha = "unknown";
};

/// Everything one run measured and checked.
struct Run {
  Args args;
  int threads = 1;
  double clock_ns = 0.0;  ///< one steady_clock read, in every sample
  MetricSet metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< failed correctness gates
  HostProbe host;
  std::vector<double> host_samples;  ///< HostProbe ns per load

  void require(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
  void sample_host() { host_samples.push_back(host.measure()); }
};

// ---- workload inputs -------------------------------------------------

std::vector<bench::Instance> grid_of(const bench::DatasetSpec& spec,
                                     const std::vector<int>& nodes) {
  std::vector<bench::Instance> grid;
  for (const int n : nodes) {
    for (const int ppn : spec.ppns) {
      for (const std::uint64_t m : spec.msizes) grid.push_back({n, ppn, m});
    }
  }
  return grid;
}

/// The banks a workload serves, its query stream, the hot-publish cycle
/// of its N-client rounds, and every bank the traced run times directly
/// (by model kind).
struct Serving {
  std::vector<ServedKey> keys;
  std::vector<ServedKey> probe_banks;
  std::vector<Query> stream;
  std::vector<PublishStep> publishes;
};

constexpr std::size_t kStreamLength = std::size_t{1} << 23;

/// Results of timed calls are summed here, so no timed call's result is
/// dead code.
std::atomic<std::uint64_t> g_sink{0};

void keep(std::uint64_t value) {
  g_sink.fetch_add(value, std::memory_order_relaxed);
}

std::string kind_of(const std::string& learner) {
  return learner == "xgboost" ? "gbt" : learner;
}

/// reproduce: the two reduced Hydra grids, served from their xgboost
/// banks; queries are the held-out instances the cells were scored on.
/// The banks arrive with the pipeline.
Serving reproduce_serving(const std::vector<DatasetSource>& sources) {
  Serving s;
  for (const DatasetSource& src : sources) {
    s.keys.push_back({{src.spec.machine, src.spec.coll},
                      "gbt",
                      nullptr,
                      grid_of(src.spec, src.test_nodes)});
  }
  return s;
}

void attach_reproduce_banks(Serving& s,
                            const std::vector<DatasetSource>& sources,
                            const PipelineResult& pipeline) {
  s.probe_banks.clear();
  for (std::size_t k = 0; k < sources.size(); ++k) {
    const std::string& name = sources[k].spec.name;
    s.keys[k].bank = pipeline.cell(name, "xgboost").bank;
    for (const std::string& learner : table4_learners()) {
      ServedKey probe = s.keys[k];
      probe.kind = kind_of(learner);
      probe.bank = pipeline.cell(name, learner).bank;
      s.probe_banks.push_back(std::move(probe));
    }
  }
}

/// serve_*: Jupiter/Allreduce xgboost on d4, Hydra/Alltoall knn on d6
/// and Hydra/Allreduce gam loaded from the committed d2 model file.
Serving artifact_serving(const Args& args,
                         const std::vector<DatasetSource>& sources,
                         const PipelineResult& pipeline, LayerLog* log) {
  Serving s;
  const DatasetSource& d4 = sources[0];
  const DatasetSource& d6 = sources[1];
  const bench::DatasetSpec& d2 = bench::dataset_spec("d2");
  const auto gam = std::make_shared<const tune::CompiledBank>(
      timed(log, "tune.compile_s.gam", [&] {
        return tune::Selector::load(args.data_dir + "/d2.gam.models")
            .compile();
      }));
  s.keys = {
      {{d4.spec.machine, d4.spec.coll},
       "gbt",
       pipeline.cell("d4", "xgboost").bank,
       grid_of(d4.spec, d4.spec.nodes)},
      {{d6.spec.machine, d6.spec.coll},
       "knn",
       pipeline.cell("d6", "knn").bank,
       grid_of(d6.spec, d6.spec.nodes)},
      {{d2.machine, d2.coll}, "gam", gam, grid_of(d2, d2.nodes)},
  };
  s.probe_banks = s.keys;

  if (args.workload == "serve_grid") {
    // The Table III small-split refit of the d4 bank, compiled ahead so
    // that a publish costs a pointer swap, not a fit.
    tune::Selector small(tune::SelectorOptions{.learner = "xgboost"});
    (void)timed(log, "ml.fit_s.xgboost", [&]() -> const tune::FitReport& {
      return small.fit(pipeline.datasets[0],
                       bench::node_split(d4.spec.machine).train_small);
    });
    const auto variant = std::make_shared<const tune::CompiledBank>(
        timed(log, "tune.compile_s.xgboost", [&] { return small.compile(); }));
    // The hot-publish cycle: d4 to its small-split bank, the d2 bank
    // under a fresh version, d4 back to its full bank, d2 again.
    s.publishes = {{0, variant}, {2, gam}, {0, s.keys[0].bank}, {2, gam}};
  }
  return s;
}

/// The reproduce workload's set-up: a warm-up DES run of every
/// configuration at every message size and ppn on the smallest node
/// count.
void reproduce_setup(const std::vector<DatasetSource>& sources) {
  for (const DatasetSource& src : sources) {
    const bench::DatasetSpec& spec = src.spec;
    for (const int ppn : spec.ppns) {
      sim::Network net(sim::machine_by_name(spec.machine), spec.nodes[0],
                       ppn);
      sim::Executor exec(net);
      const sim::Comm comm(spec.nodes[0], ppn);
      for (const sim::AlgoConfig& cfg :
           sim::algorithm_configs(spec.lib, spec.coll)) {
        for (const std::uint64_t msize : spec.msizes) {
          const sim::BuiltCollective built = sim::build_algorithm(
              spec.lib, spec.coll, cfg, comm, msize, 0, false);
          keep(exec.run(built.programs).num_messages);
        }
      }
    }
  }
}

// ---- serving phases --------------------------------------------------

struct ServeResult {
  PhaseResult one;
  PhaseResult many;
  double rss_growth_mb = 0.0;
};

/// The 1-client and N-client phases alternate over kRounds rounds of
/// phase_s / kRounds each, so that slow drifts of a shared host spread
/// over both thread counts. The single client is pinned to each allowed
/// CPU in turn: on a shared host one core can be slower than the rest
/// for minutes, and a lone thread the scheduler leaves on it would move
/// the whole run. The single client walks the first half of the stream,
/// each of the N clients its own 1/N of the second half, and every
/// client goes on where its previous round stopped. Off-grid, no slice
/// is used up within a run, so no query repeats; on-grid streams wrap
/// around their slices, which the memo answers either way. Each N-client
/// round issues the next kPublishesPerRound steps of the hot-publish
/// cycle while the readers run. `between_rounds`, when set, runs after
/// each round, outside the phases; the RSS growth is summed over the
/// rounds, so that it leaves out what `between_rounds` allocates.
constexpr int kRounds = 8;
constexpr std::size_t kPublishesPerRound = 2;

ServeResult serve(Run& run, tune::BankRegistry& registry,
                  const Serving& serving, double phase_s,
                  const std::function<void()>& between_rounds) {
  ServeResult r;
  const std::size_t half = serving.stream.size() / 2;
  const std::vector<int> cpus = allowed_cpus();
  PhaseConfig one{.clients = 1,
                  .seconds = phase_s / kRounds,
                  .slice_begin = 0,
                  .slice_len = half};
  PhaseConfig many{.clients = run.threads,
                   .seconds = phase_s / kRounds,
                   .slice_begin = half,
                   .slice_len = half / static_cast<std::size_t>(run.threads)};
  std::size_t published = 0;
  for (int round = 0; round < kRounds; ++round) {
    run.sample_host();
    const double rss_before = rss_mb();
    one.pin_cpu = cpus.empty() ? -1
                               : cpus[static_cast<std::size_t>(round) %
                                      cpus.size()];
    r.one.merge(run_phase(registry, serving.keys, serving.stream, one));
    one.cursors = r.one.cursors;
    many.publishes.clear();
    for (std::size_t j = 0;
         j < kPublishesPerRound && !serving.publishes.empty(); ++j) {
      many.publishes.push_back(
          serving.publishes[published++ % serving.publishes.size()]);
    }
    r.many.merge(run_phase(registry, serving.keys, serving.stream, many));
    many.cursors = r.many.cursors;
    r.rss_growth_mb += rss_mb() - rss_before;
    if (between_rounds) between_rounds();
  }
  run.attempted += r.one.queries + r.many.queries;
  run.failed += r.one.failed + r.many.failed;
  return r;
}

void report_serve(Run& run, const ServeResult& r) {
  MetricSet& m = run.metrics;
  m.set("serve_qps_1t", r.one.qps(), "1/s");
  m.set("serve_qps_nt", r.many.qps(), "1/s");
  m.set("serve_p50_us_1t", r.one.p50_us(), "us");
  m.set("serve_p99_us_1t", r.one.p99_us(), "us");
  m.set("serve_p50_us_nt", r.many.p50_us(), "us");
  m.set("serve_p99_us_nt", r.many.p99_us(), "us");
  m.set("scaling_efficiency",
        r.many.qps() / (static_cast<double>(run.threads) * r.one.qps()),
        "ratio");
  m.set("serve_rss_growth_mb", r.rss_growth_mb, "MB");
  for (const PhaseResult* p : {&r.one, &r.many}) {
    const LatencySummary pooled = p->pooled();
    std::printf(
        "serve: %d client(s), %.2f s, %llu queries, %llu failed; "
        "latency over %zu samples: p50 %.3f us, p99 %.3f us, "
        "p%g %.3f us (highest percentile with >= 10 samples beyond); "
        "each sample includes one %.1f ns clock read\n",
        p->clients, p->seconds, static_cast<unsigned long long>(p->queries),
        static_cast<unsigned long long>(p->failed), pooled.count, pooled.p50,
        pooled.p99, 100.0 * pooled.top_q, pooled.top, run.clock_ns);
    std::printf("  throughput: %.4g/s over all windows, %.4g/s reported\n",
                p->mean_qps(), p->qps());
    std::printf("  throughput per window [1/s]:");
    for (const double q : p->window_qps) std::printf(" %.4g", q);
    std::printf("\n  p99 per window [us]:");
    for (const double q : p->window_p99_us) std::printf(" %.4g", q);
    std::printf("\n  hot publishes: %zu, p50 %.2f us\n", p->publish_us.size(),
                median(p->publish_us));
  }
}

/// Swap-free pass: registry picks must equal direct CompiledBank picks
/// on a slice of each phase's stream region.
void check_picks(Run& run, const tune::BankRegistry& registry,
                 const Serving& serving) {
  const std::size_t slice = 2048;
  const std::size_t bad =
      check_registry_picks(registry, serving.keys, serving.stream, 0, slice) +
      check_registry_picks(registry, serving.keys, serving.stream,
                           serving.stream.size() / 2, slice);
  run.attempted += 2 * slice;
  run.require(bad == 0, std::to_string(bad) +
                            " registry picks differ from direct bank picks");
  std::printf("swap-free check: %zu of %zu registry picks equal direct "
              "CompiledBank picks\n",
              2 * slice - bad, 2 * slice);
}

void publish_all(tune::BankRegistry& registry, const Serving& serving) {
  for (const ServedKey& k : serving.keys) registry.publish(k.key, k.bank);
}

// ---- traced probes ---------------------------------------------------

/// Replays a generation grid through build_algorithm + Executor::run
/// directly, splitting DES time into building and executing.
void replay_des(const std::vector<bench::DatasetSpec>& specs, MetricSet& m) {
  double build_s = 0.0;
  double exec_s = 0.0;
  double ops = 0.0;
  double runs = 0.0;
  double messages = 0.0;
  for (const bench::DatasetSpec& spec : specs) {
    const sim::MachineDesc machine = sim::machine_by_name(spec.machine);
    for (const int n : spec.nodes) {
      for (const int ppn : spec.ppns) {
        sim::Network net(machine, n, ppn);
        sim::Executor exec(net);
        const sim::Comm comm(n, ppn);
        for (const sim::AlgoConfig& cfg :
             sim::algorithm_configs(spec.lib, spec.coll)) {
          for (const std::uint64_t msize : spec.msizes) {
            const auto t0 = Clock::now();
            const sim::BuiltCollective built = sim::build_algorithm(
                spec.lib, spec.coll, cfg, comm, msize, 0, false);
            const auto t1 = Clock::now();
            const sim::ExecResult res = exec.run(built.programs);
            exec_s += seconds_since(t1);
            build_s += std::chrono::duration<double>(t1 - t0).count();
            for (const auto& prog : built.programs) {
              ops += static_cast<double>(prog.size());
            }
            runs += 1.0;
            messages += static_cast<double>(res.num_messages);
          }
        }
      }
    }
  }
  m.set("simmpi.build_s", build_s, "s");
  m.set("simmpi.build_ops_per_s", ops / build_s, "1/s");
  m.set("simmpi.exec_s", exec_s, "s");
  m.set("simmpi.des_runs_per_s", runs / exec_s, "1/s");
  m.set("simmpi.messages_per_s", messages / exec_s, "1/s");
  m.set("simmpi.messages", messages, "count");
}

/// serve_*: regenerates the first allocation of each committed dataset
/// with the DES and requires the records to equal the committed rows.
void regenerate_slices(Run& run, const std::vector<DatasetSource>& sources,
                       const PipelineResult& pipeline, MetricSet& m) {
  std::vector<bench::DatasetSpec> slices;
  double generate_s = 0.0;
  double configs = 0.0;
  double records = 0.0;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    bench::DatasetSpec spec = sources[i].spec;
    spec.nodes = {spec.nodes.front()};
    spec.ppns = {spec.ppns.front()};
    const auto t0 = Clock::now();
    const bench::Dataset slice = bench::generate_dataset(spec);
    generate_s += seconds_since(t0);
    configs += static_cast<double>(
        sim::algorithm_configs(spec.lib, spec.coll).size() *
        spec.msizes.size());
    records += static_cast<double>(slice.num_records());
    std::vector<bench::Record> committed;
    for (const bench::Record& r : pipeline.datasets[i].records()) {
      if (r.nodes == spec.nodes[0] && r.ppn == spec.ppns[0]) {
        committed.push_back(r);
      }
    }
    bool same = committed.size() == slice.records().size();
    for (std::size_t j = 0; same && j < committed.size(); ++j) {
      const bench::Record& a = committed[j];
      const bench::Record& b = slice.records()[j];
      same = a.uid == b.uid && a.msize == b.msize &&
             a.time_us == b.time_us;
    }
    run.require(same, "regenerated " + spec.name +
                          " allocation differs from the committed CSV");
    slices.push_back(spec);
  }
  m.set("collbench.generate_s", generate_s, "s");
  m.set("collbench.configs_per_s", configs / generate_s, "1/s");
  m.set("collbench.records", records, "count");
  replay_des(slices, m);
}

/// reproduce: round-trips the generated datasets through save_csv and
/// load_csv and requires identical records.
void roundtrip_csv(Run& run, const PipelineResult& pipeline, MetricSet& m) {
  std::filesystem::create_directories(run.args.scratch);
  double load_s = 0.0;
  for (std::size_t i = 0; i < pipeline.datasets.size(); ++i) {
    const bench::Dataset& ds = pipeline.datasets[i];
    const std::string path = run.args.scratch + "/" + ds.name() + ".csv";
    ds.save_csv(path);
    const auto t0 = Clock::now();
    const bench::Dataset back = bench::Dataset::load_csv(
        path, ds.name(), ds.lib(), ds.collective(), ds.machine());
    load_s += seconds_since(t0);
    std::filesystem::remove(path);
    run.require(record_digest(back) == pipeline.digests[i],
                "CSV round trip changed " + ds.name());
  }
  m.set("collbench.load_csv_s", load_s, "s");
}

/// p50 of single timed calls of fn(q) over the queries of `key` in the
/// stream prefix, in ns.
template <class Fn>
double p50_ns(const std::vector<Query>& stream, int key, std::size_t max_n,
              double max_s, Fn&& fn) {
  std::vector<double> ns;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < stream.size() && ns.size() < max_n; ++i) {
    const Query& q = stream[i];
    if (key >= 0 && q.key != key) continue;
    const auto t0 = Clock::now();
    fn(q);
    ns.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count());
    if ((ns.size() & 255) == 0 && seconds_since(start) > max_s) break;
  }
  return median(std::move(ns));
}

void probe_banks(const Serving& serving, bool offgrid, MetricSet& m) {
  const std::size_t max_n = offgrid ? 4000 : 50000;
  std::uint64_t sink = 0;
  for (const char* kind : {"gbt", "gam", "knn"}) {
    std::vector<double> p50s;
    for (const ServedKey& bank : serving.probe_banks) {
      if (bank.kind != kind) continue;
      int key = -1;
      for (std::size_t k = 0; k < serving.keys.size(); ++k) {
        if (serving.keys[k].key == bank.key) key = static_cast<int>(k);
      }
      p50s.push_back(p50_ns(serving.stream, key, max_n, 1.0,
                            [&](const Query& q) {
                              sink += static_cast<std::uint64_t>(
                                  bank.bank->select_uid_or_invalid(
                                      q.instance()));
                            }));
    }
    m.set(std::string("tune.bank.select_ns.") + kind, median(p50s), "ns");
  }
  keep(sink);
}

/// Registry select vs direct bank select on the same stream prefix, on
/// a fresh registry; BankRegistry::lookup at 1 and N threads; publish.
void probe_registry(Run& run, const Serving& serving, bool offgrid,
                    MetricSet& m) {
  tune::BankRegistry registry;
  publish_all(registry, serving);
  const std::size_t max_n = offgrid ? 8000 : 100000;
  std::uint64_t sink = 0;
  const double direct = p50_ns(serving.stream, -1, max_n, 2.0,
                               [&](const Query& q) {
                                 sink += static_cast<std::uint64_t>(
                                     serving.keys[q.key]
                                         .bank->select_uid_or_invalid(
                                             q.instance()));
                               });
  const double via_registry =
      p50_ns(serving.stream, -1, max_n, 2.0, [&](const Query& q) {
        sink += static_cast<std::uint64_t>(
            registry.select_uid(serving.keys[q.key].key, q.instance()));
      });
  m.set("tune.registry.select_overhead_ns", via_registry - direct, "ns");

  // lookup: batches of 8 calls per timed sample, 0.3 s per thread count.
  const auto lookup_p50 = [&](int threads) {
    std::vector<std::vector<double>> per(static_cast<std::size_t>(threads));
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        std::vector<double>& out = per[static_cast<std::size_t>(t)];
        const auto start = Clock::now();
        std::size_t i = static_cast<std::size_t>(t) * 4096;
        std::uint64_t found = 0;
        while (seconds_since(start) < 0.3) {
          const auto t0 = Clock::now();
          for (int j = 0; j < 8; ++j) {
            const Query& q = serving.stream[i++ & (serving.stream.size() - 1)];
            found += registry.lookup(serving.keys[q.key].key) ? 1 : 0;
          }
          out.push_back(std::chrono::duration<double, std::nano>(
                            Clock::now() - t0)
                            .count() /
                        8.0);
        }
        keep(found);
      });
    }
    for (std::thread& t : pool) t.join();
    std::vector<double> all;
    for (const auto& v : per) all.insert(all.end(), v.begin(), v.end());
    return median(std::move(all));
  };
  m.set("tune.registry.lookup_ns_1t", lookup_p50(1), "ns");
  m.set("tune.registry.lookup_ns_nt", lookup_p50(run.threads), "ns");

  std::vector<double> publish_us;
  for (int i = 0; i < 64; ++i) {
    const ServedKey& k = serving.keys[static_cast<std::size_t>(i) %
                                      serving.keys.size()];
    const auto t0 = Clock::now();
    registry.publish(k.key, k.bank);
    publish_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  }
  m.set("tune.registry.publish_us", median(std::move(publish_us)), "us");
  keep(sink);
}

/// Rule tables distilled from each served bank over its grid: dispatch
/// cost on the workload's stream, and agreement with the bank off-grid.
void probe_rules(const Serving& serving, std::uint64_t seed, MetricSet& m) {
  std::vector<tune::RuleTable> tables;
  for (const ServedKey& k : serving.keys) {
    tables.push_back(tune::distill(*k.bank, k.grid).table);
  }
  std::uint64_t sink = 0;
  std::vector<double> ns;
  for (std::size_t base = 0; base + 64 <= 1 << 18; base += 64) {
    const auto t0 = Clock::now();
    for (std::size_t i = base; i < base + 64; ++i) {
      const Query& q = serving.stream[i];
      sink += static_cast<std::uint64_t>(
          tables[q.key].uid_for(q.instance()));
    }
    ns.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
        64.0);
  }
  m.set("tune.rules.dispatch_ns", median(std::move(ns)), "ns");

  const std::vector<Query> offgrid =
      make_stream(serving.keys, StreamKind::kOffgrid, 1 << 12, seed + 1);
  std::size_t agree = 0;
  for (const Query& q : offgrid) {
    agree += tables[q.key].uid_for(q.instance()) ==
                     serving.keys[q.key].bank->select_uid_or_invalid(
                         q.instance())
                 ? 1
                 : 0;
  }
  m.set("tune.rules.offgrid_agreement",
        static_cast<double>(agree) / static_cast<double>(offgrid.size()),
        "ratio");
  keep(sink);
}

/// serve_qps_1t with program spans on, divided by the same with them off.
double span_cost_ratio(tune::BankRegistry& registry, const Serving& serving) {
  PhaseConfig off{.clients = 1,
                  .seconds = 0.25,
                  .slice_begin = 0,
                  .slice_len = serving.stream.size()};
  PhaseConfig on = off;
  on.spans = true;
  const double qps_off =
      run_phase(registry, serving.keys, serving.stream, off).mean_qps();
  const double qps_on =
      run_phase(registry, serving.keys, serving.stream, on).mean_qps();
  mpicp::support::trace::reset();
  return qps_on / qps_off;
}

// ---- the run ---------------------------------------------------------

void run_workload(Run& run) {
  const Args& a = run.args;
  const bool reproduce = a.workload == "reproduce";
  const bool offgrid = a.workload == "serve_offgrid";
  const std::vector<DatasetSource> sources =
      reproduce ? reproduce_sources() : artifact_sources(a.data_dir);
  MetricSet& m = run.metrics;

  // Set-up, several times; the median is setup_s. It times library work
  // only: on reproduce a warm-up DES, on the serve workloads the
  // pipeline from the committed artifacts that builds the served banks,
  // so there reproduce_s is its pipeline part. The reproduce set-up runs
  // on one thread, so each repetition is pinned to the next allowed CPU:
  // on a shared host one core can be slower than the rest for minutes.
  // The serve set-ups are not pinned: the library pool they start would
  // inherit the pin. The serve workloads set up twice before serving and
  // once more after each serving round, so that their set-up times span
  // the whole run rather than its first seconds; the banks of the first
  // set-up are the ones served. The host probe runs before every set-up.
  const std::vector<int> cpus = allowed_cpus();
  std::vector<double> setup_s;
  std::vector<double> pipeline_s;
  PipelineResult pipeline;
  Serving serving;
  const auto serve_setup = [&](bool keep) {
    run.sample_host();
    const auto t0 = Clock::now();
    PipelineResult p = run_pipeline(sources, nullptr);
    Serving s = artifact_serving(a, sources, p, nullptr);
    setup_s.push_back(seconds_since(t0));
    pipeline_s.push_back(p.wall_s);
    if (keep) {
      pipeline = std::move(p);
      serving = std::move(s);
    }
  };
  if (reproduce) {
    for (std::size_t i = 0; i < 8; ++i) {
      if (!cpus.empty()) pin_thread({cpus[i % cpus.size()]});
      run.sample_host();
      const auto t0 = Clock::now();
      reproduce_setup(sources);
      setup_s.push_back(seconds_since(t0));
    }
    if (!cpus.empty()) pin_thread(cpus);
  } else {
    for (int i = 0; i < 2; ++i) serve_setup(i == 0);
  }
  // The query stream, from the seed, before any serving phase.
  if (reproduce) serving = reproduce_serving(sources);
  serving.stream = make_stream(
      serving.keys, offgrid ? StreamKind::kOffgrid : StreamKind::kGrid,
      kStreamLength, a.seed);

  // The traced run repeats the pipeline with a timer around every call
  // into a layer; the untraced pipeline above (or below, for reproduce)
  // is its baseline, and their difference is the tracing overhead.
  LayerLog log;
  LayerLog* trace = a.trace ? &log : nullptr;
  if (reproduce) {
    pipeline = run_pipeline(sources, nullptr);
    pipeline_s.push_back(pipeline.wall_s);
    run.sample_host();
  }
  PipelineResult traced;
  if (trace) {
    traced = run_pipeline(sources, trace);
    if (!reproduce) (void)artifact_serving(a, sources, traced, trace);
    m.set("bench.trace_overhead_ratio",
          traced.wall_s / median(pipeline_s) - 1.0, "ratio");
  }
  if (reproduce) attach_reproduce_banks(serving, sources, pipeline);

  m.set("table4_mean_speedup", pipeline.mean_speedup(), "ratio");
  m.set("table4_norm_predicted", pipeline.mean_norm_predicted(), "ratio");
  run.attempted += pipeline.cells.size();
  for (const Cell& c : pipeline.cells) {
    std::printf("table4 cell %-4s %-8s speed-up %.4f  t_pred/t_best %.4f  "
                "(%zu held-out instances, %zu/%zu uids degraded)\n",
                c.dataset.c_str(), c.learner.c_str(), c.summary.mean_speedup,
                c.summary.mean_norm_predicted, c.summary.num_instances,
                c.uids_degraded, c.uids);
    const bool finite = std::isfinite(c.summary.mean_speedup) &&
                        c.summary.mean_speedup > 0.0;
    run.require(finite, "Table IV cell " + c.dataset + "/" + c.learner +
                            " has no finite speed-up");
    run.failed += finite ? 0 : 1;
  }
  for (std::size_t i = 0; i < sources.size(); ++i) {
    std::printf("dataset %s: %zu records, digest %016llx%s\n",
                sources[i].spec.name.c_str(),
                pipeline.datasets[i].num_records(),
                static_cast<unsigned long long>(pipeline.digests[i]),
                pipeline.digests[i] == sources[i].pinned_digest
                    ? " (matches the pin)"
                    : " (DRIFTED from the pin)");
  }
  run.require(pipeline.digests_ok, "dataset digest drifted from the pin");

  tune::BankRegistry registry;
  publish_all(registry, serving);
  check_picks(run, registry, serving);
  // The measured time is --seconds: the serve workloads split it between
  // the two phases; reproduce gives them what the pipeline left, and at
  // least a tenth each.
  const double phase_s =
      reproduce ? std::max(0.1 * a.seconds, (a.seconds - pipeline.wall_s) / 2)
                : 0.45 * a.seconds;
  const ServeResult served =
      serve(run, registry, serving, phase_s,
            reproduce ? std::function<void()>()
                      : std::function<void()>([&] { serve_setup(false); }));
  std::printf("set-up times [s]:");
  for (const double s : setup_s) std::printf(" %.4g", s);
  std::printf("\n");
  m.set("setup_s", median(setup_s), "s");
  // reproduce_s on serve_* is the lower quartile of the ten pipelines: a
  // sub-second run on the N-thread pool stalls whenever a neighbour
  // takes one core, and the faster runs keep the program's own speed.
  m.set("reproduce_s", quantile(pipeline_s, 0.25), "s");
  report_serve(run, served);
  std::uint64_t selections = served.one.queries + served.many.queries;
  // failed_ratio: degraded uids of the fits on reproduce, selections
  // that threw on the serve workloads.
  const double failed_ratio =
      reproduce ? pipeline.degraded_ratio()
                : static_cast<double>(served.one.failed + served.many.failed) /
                      static_cast<double>(
                          std::max<std::uint64_t>(selections, 1));
  m.set("failed_ratio", failed_ratio, "ratio");
  m.set("bench.failed_ratio", failed_ratio, "ratio");

  if (!trace) return;
  // ---- per-layer metrics (traced run only) ----
  for (const std::string& learner : table4_learners()) {
    m.set("ml.fit_s." + learner, log.seconds("ml.fit_s." + learner), "s");
    m.set("tune.compile_s." + learner,
          log.seconds("tune.compile_s." + learner), "s");
    m.set("tune.evaluate_s." + learner,
          log.seconds("tune.evaluate_s." + learner), "s");
  }
  if (reproduce) {
    const double gen_s = log.seconds("collbench.generate_s");
    m.set("collbench.generate_s", gen_s, "s");
    m.set("collbench.configs_per_s", log.counted("collbench.configs") / gen_s,
          "1/s");
    m.set("collbench.records", log.counted("collbench.records"), "count");
    std::vector<bench::DatasetSpec> specs;
    for (const DatasetSource& src : sources) specs.push_back(src.spec);
    replay_des(specs, m);
    roundtrip_csv(run, pipeline, m);
  } else {
    m.set("collbench.load_csv_s", log.seconds("collbench.load_csv_s"), "s");
    regenerate_slices(run, sources, pipeline, m);
  }
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  std::uint64_t swaps = 0;
  for (const auto& shard : registry.shard_stats()) {
    memo_hits += shard.memo_hits;
    memo_misses += shard.memo_misses;
    swaps += shard.swaps;
  }
  m.set("tune.registry.memo_hit_ratio",
        static_cast<double>(memo_hits) /
            static_cast<double>(std::max<std::uint64_t>(
                memo_hits + memo_misses, 1)),
        "ratio");
  m.set("tune.registry.swaps", static_cast<double>(swaps), "count");
  m.set("tune.registry.rss_growth_mb", served.rss_growth_mb, "MB");
  m.set("support.trace.span_cost_ratio", span_cost_ratio(registry, serving),
        "ratio");
  probe_banks(serving, offgrid, m);
  probe_registry(run, serving, offgrid, m);
  if (!served.many.publish_us.empty()) {
    // serve_grid: the publishes that raced the readers.
    m.set("tune.registry.publish_us", median(served.many.publish_us), "us");
  }
  probe_rules(serving, a.seed, m);
  m.set("bench.clock_read_ns", run.clock_ns, "ns");
}

// ---- host speed ------------------------------------------------------

/// The host probe's median on the 4-vCPU VM of the seed baseline, in a
/// calm spell, ns per load.
constexpr double kReferenceLoadNs = 150.0;

/// How much slower than the reference the host ran during this run.
double host_slowdown(const Run& run) {
  return median(run.host_samples) / kReferenceLoadNs;
}

/// Brings the end-to-end timings to the reference host speed: times are
/// divided by the run's slowdown, rates multiplied by it. A shared host
/// drifts by up to 1.8x within the hour, and every timing of a run moves
/// with it; the probe touches nothing of the library, so a change to the
/// library moves the scaled timings as much as the raw ones. The raw
/// values stay in the run ledger.
void scale_to_reference_host(Run& run) {
  struct Timing {
    const char* name;
    const char* unit;
    bool rate;
  };
  static const Timing timings[] = {
      {"setup_s", "s", false},          {"reproduce_s", "s", false},
      {"serve_qps_1t", "1/s", true},    {"serve_qps_nt", "1/s", true},
      {"serve_p50_us_1t", "us", false}, {"serve_p99_us_1t", "us", false},
      {"serve_p50_us_nt", "us", false}, {"serve_p99_us_nt", "us", false},
  };
  const double slowdown = host_slowdown(run);
  std::printf("host probe: %zu samples, %.4fx the reference host's time; "
              "raw timings before scaling:",
              run.host_samples.size(), slowdown);
  MetricSet& m = run.metrics;
  for (const Timing& t : timings) {
    if (!m.has(t.name)) continue;
    const double raw = m.value(t.name);
    std::printf(" %s=%.6g", t.name, raw);
    m.set(t.name, t.rate ? raw * slowdown : raw / slowdown, t.unit);
  }
  std::printf("\n");
  std::printf("host probe samples [ns per load]:");
  for (const double ns : run.host_samples) std::printf(" %.4g", ns);
  std::printf("\n");
}

// ---- command line ----------------------------------------------------

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<reproduce|serve_grid|serve_offgrid> --seed N --seconds S "
               "--trace 0|1 [--data-dir D] [--scratch D] [--git-sha SHA]\n"
               "       perfbench --self-test | --list-metrics\n",
               why);
  return 2;
}

int main_impl(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      const int failures = self_test();
      for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()}) {
        for (const std::string& name : *list) {
          if (!valid_metric_name(name)) {
            std::printf("self-test FAILED: metric name %s\n", name.c_str());
            return 1;
          }
        }
      }
      std::printf("self-test: %s\n", failures == 0 ? "ok" : "FAILED");
      return failures == 0 ? 0 : 1;
    }
    if (flag == "--list-metrics") {
      for (const std::string& n : end_to_end_metrics()) {
        std::printf("end_to_end %s\n", n.c_str());
      }
      for (const std::string& n : per_layer_metrics()) {
        std::printf("per_layer %s\n", n.c_str());
      }
      return 0;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--data-dir") {
      args.data_dir = value;
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else {
      return usage(("unknown argument " + flag).c_str());
    }
  }
  if (args.workload != "reproduce" && args.workload != "serve_grid" &&
      args.workload != "serve_offgrid") {
    return usage("unknown workload");
  }
  if (!(args.seconds > 0.0)) return usage("--seconds must be positive");

  // End-to-end numbers are measured with program spans off; only the
  // span-cost probe turns them on.
  mpicp::support::trace::set_enabled(false);
  Run run;
  run.args = args;
  run.threads = mpicp::support::configured_threads();
  const char* env_threads = std::getenv("MPICP_THREADS");
  std::printf("host: nproc=%d N=%d MPICP_THREADS=%s build=%s git=%s "
              "workload=%s seed=%llu seconds=%g trace=%d\n",
              mpicp::support::hardware_threads(), run.threads,
              env_threads ? env_threads : "unset", PERFBENCH_BUILD_TYPE,
              args.git_sha.c_str(), args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  run.require(self_test() == 0, "helper self-test");
  run.clock_ns = clock_read_ns();
  run_workload(run);
  scale_to_reference_host(run);

  run.metrics.print(args.trace ? "metrics (traced run):"
                               : "metrics (untraced run):");
  for (const std::string& p : run.problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }
  const std::vector<std::string>& names =
      args.trace ? per_layer_metrics() : end_to_end_metrics();
  for (const std::string& n : names) {
    if (!run.metrics.has(n)) run.problems.push_back("metric missing: " + n);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      run.problems.empty() ? "true" : "false",
      static_cast<unsigned long long>(std::max<std::uint64_t>(run.attempted,
                                                              1)),
      static_cast<unsigned long long>(run.failed),
      run.metrics.json(names).c_str());
  std::fflush(stdout);
  return run.problems.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
