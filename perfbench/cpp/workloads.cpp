#include "workloads.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "collbench/defaults.hpp"
#include "collbench/generator.hpp"
#include "support/trace.hpp"

namespace perfbench {

void LayerLog::add(const std::string& name, double seconds) {
  seconds_[name] += seconds;
}

void LayerLog::count(const std::string& name, double amount) {
  counts_[name] += amount;
}

double LayerLog::seconds(const std::string& name) const {
  const auto it = seconds_.find(name);
  return it == seconds_.end() ? 0.0 : it->second;
}

double LayerLog::counted(const std::string& name) const {
  const auto it = counts_.find(name);
  return it == counts_.end() ? 0.0 : it->second;
}

const std::vector<std::string>& table4_learners() {
  static const std::vector<std::string> learners = {"xgboost", "gam", "knn"};
  return learners;
}

std::vector<DatasetSource> reproduce_sources() {
  // Digests of the generated records, pinned so that a faster or
  // parallel generator must stay byte-identical.
  const std::vector<std::pair<std::string, std::uint64_t>> pinned = {
      {"d1", 0x9cf90183b522de6fULL},
      {"d2", 0xbea229b55d144484ULL},
  };
  std::vector<DatasetSource> sources;
  for (const auto& [name, digest] : pinned) {
    DatasetSource src;
    src.spec = bench::dataset_spec(name);
    src.spec.name = name + "r";
    src.spec.nodes = {4, 7, 8, 13, 16};
    src.spec.ppns = {1, 8};
    src.train_nodes = {4, 8, 16};
    src.test_nodes = {7, 13};
    src.pinned_digest = digest;
    sources.push_back(std::move(src));
  }
  return sources;
}

std::vector<DatasetSource> artifact_sources(const std::string& data_dir) {
  const std::vector<std::pair<std::string, std::uint64_t>> pinned = {
      {"d4", 0x70015be6651d7b02ULL},
      {"d6", 0x8c03fa2c9360355eULL},
  };
  std::vector<DatasetSource> sources;
  for (const auto& [name, digest] : pinned) {
    DatasetSource src;
    src.spec = bench::dataset_spec(name);
    src.csv = data_dir + "/" + name + ".csv";
    const bench::NodeSplit split = bench::node_split(src.spec.machine);
    src.train_nodes = split.train_full;
    src.test_nodes = split.test;
    src.pinned_digest = digest;
    sources.push_back(std::move(src));
  }
  return sources;
}

std::uint64_t record_digest(const bench::Dataset& ds) {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (const bench::Record& r : ds.records()) {
    const std::int64_t ints[3] = {r.uid, r.nodes, r.ppn};
    const std::uint64_t msize = r.msize;
    h = fnv1a(ints, sizeof ints, h);
    h = fnv1a(&msize, sizeof msize, h);
    h = fnv1a(&r.time_us, sizeof r.time_us, h);
  }
  return h;
}

double PipelineResult::mean_speedup() const {
  double sum = 0.0;
  for (const Cell& c : cells) sum += c.summary.mean_speedup;
  return cells.empty() ? 0.0 : sum / static_cast<double>(cells.size());
}

double PipelineResult::mean_norm_predicted() const {
  double sum = 0.0;
  for (const Cell& c : cells) sum += c.summary.mean_norm_predicted;
  return cells.empty() ? 0.0 : sum / static_cast<double>(cells.size());
}

double PipelineResult::degraded_ratio() const {
  std::size_t uids = 0;
  std::size_t degraded = 0;
  for (const Cell& c : cells) {
    uids += c.uids;
    degraded += c.uids_degraded;
  }
  return uids == 0 ? 0.0
                   : static_cast<double>(degraded) / static_cast<double>(uids);
}

const Cell& PipelineResult::cell(const std::string& dataset,
                                 const std::string& learner) const {
  for (const Cell& c : cells) {
    if (c.dataset == dataset && c.learner == learner) return c;
  }
  throw std::invalid_argument("no Table IV cell " + dataset + "/" + learner);
}

PipelineResult run_pipeline(const std::vector<DatasetSource>& sources,
                            LayerLog* log) {
  PipelineResult out;
  const auto start = Clock::now();
  for (const DatasetSource& src : sources) {
    const bench::DatasetSpec& spec = src.spec;
    bench::Dataset ds =
        src.csv.empty()
            ? timed(log, "collbench.generate_s",
                    [&] { return bench::generate_dataset(spec); })
            : timed(log, "collbench.load_csv_s", [&] {
                return bench::Dataset::load_csv(src.csv, spec.name, spec.lib,
                                                spec.coll, spec.machine);
              });
    if (log && src.csv.empty()) {
      log->count("collbench.configs",
                 static_cast<double>(
                     spec.nodes.size() * spec.ppns.size() *
                     sim::algorithm_configs(spec.lib, spec.coll).size() *
                     spec.msizes.size()));
      log->count("collbench.records", static_cast<double>(ds.num_records()));
    }
    const std::uint64_t digest = record_digest(ds);
    out.digests.push_back(digest);
    if (src.pinned_digest != 0 && digest != src.pinned_digest) {
      out.digests_ok = false;
    }

    const auto default_logic = bench::make_default_for(ds);
    for (const std::string& learner : table4_learners()) {
      tune::Selector selector(tune::SelectorOptions{.learner = learner});
      const tune::FitReport& report =
          timed(log, "ml.fit_s." + learner,
                [&]() -> const tune::FitReport& {
                  return selector.fit(ds, src.train_nodes);
                });
      Cell cell;
      cell.dataset = spec.name;
      cell.learner = learner;
      cell.uids = report.uids_total();
      cell.uids_degraded = report.uids_fallback() + report.uids_unusable();
      cell.bank = std::make_shared<const tune::CompiledBank>(
          timed(log, "tune.compile_s." + learner,
                [&] { return selector.compile(); }));
      cell.summary = timed(log, "tune.evaluate_s." + learner, [&] {
                       return tune::evaluate(ds, selector, *default_logic,
                                             src.test_nodes);
                     }).summary;
      out.cells.push_back(std::move(cell));
    }
    out.datasets.push_back(std::move(ds));
  }
  out.wall_s = seconds_since(start);
  return out;
}

std::vector<Query> make_stream(const std::vector<ServedKey>& keys,
                               StreamKind kind, std::size_t length,
                               std::uint64_t seed) {
  InputRng rng(seed);
  std::vector<Query> stream(length);
  for (Query& q : stream) {
    q.key = static_cast<std::uint8_t>(rng.range(0, keys.size() - 1));
    if (kind == StreamKind::kGrid) {
      const std::vector<bench::Instance>& grid = keys[q.key].grid;
      const bench::Instance& inst = grid[rng.range(0, grid.size() - 1)];
      q.nodes = static_cast<std::uint8_t>(inst.nodes);
      q.ppn = static_cast<std::uint8_t>(inst.ppn);
      q.msize = static_cast<std::uint32_t>(inst.msize);
    } else {
      q.nodes = static_cast<std::uint8_t>(rng.range(2, 64));
      q.ppn = static_cast<std::uint8_t>(rng.range(1, 48));
      const double m = std::floor(std::exp2(22.0 * rng.unit()));
      q.msize = static_cast<std::uint32_t>(std::clamp(m, 1.0, 4194304.0));
    }
  }
  return stream;
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

void pin_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

namespace {

constexpr int kWindows = 5;
constexpr int kChunk = 16;  // queries per timed sample
constexpr std::size_t kReservoir = 1 << 15;  // samples per client window

struct ClientLog {
  std::vector<std::uint64_t> counts = std::vector<std::uint64_t>(kWindows);
  std::vector<std::vector<double>> samples =
      std::vector<std::vector<double>>(kWindows);
  std::vector<std::uint64_t> seen = std::vector<std::uint64_t>(kWindows);
  std::uint64_t failed = 0;
  std::uint64_t sink = 0;
  std::vector<double> publish_us;
};

}  // namespace

PhaseResult run_phase(tune::BankRegistry& registry,
                      const std::vector<ServedKey>& keys,
                      const std::vector<Query>& stream,
                      const PhaseConfig& config) {
  const int n = config.clients;
  if (config.slice_len == 0 ||
      config.slice_begin + static_cast<std::size_t>(n) * config.slice_len >
          stream.size()) {
    throw std::invalid_argument("client slices run past the query stream");
  }
  const double window_s = config.seconds / kWindows;
  std::vector<ClientLog> logs(static_cast<std::size_t>(n));
  std::vector<std::size_t> cursors(static_cast<std::size_t>(n));
  std::copy_n(config.cursors.begin(),
              std::min(config.cursors.size(), cursors.size()),
              cursors.begin());
  std::atomic<bool> go{false};
  Clock::time_point start;

  mpicp::support::trace::ScopedEnabled spans(config.spans);
  const auto client = [&](int c) {
    if (config.pin_cpu >= 0) pin_thread({config.pin_cpu});
    ClientLog& log = logs[static_cast<std::size_t>(c)];
    InputRng reservoir_rng(0x5eed + static_cast<std::uint64_t>(c));
    const Query* slice = stream.data() + config.slice_begin +
                         static_cast<std::size_t>(c) * config.slice_len;
    // A local cursor: neighbouring clients' cursors share a cache line.
    std::size_t pos = cursors[static_cast<std::size_t>(c)];
    const auto next = [&]() -> const Query& {
      const Query& q = slice[pos];
      if (++pos == config.slice_len) pos = 0;
      return q;
    };
    const std::size_t planned = c == 0 ? config.publishes.size() : 0;
    std::size_t published = 0;
    const auto select = [&](const Query& q) {
      try {
        log.sink += static_cast<std::uint64_t>(
            registry.select_uid(keys[q.key].key, q.instance()));
      } catch (const std::exception&) {
        ++log.failed;
      }
    };
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    // Each client ends the phase by its own clock: a main thread that
    // wakes late on a busy host must not stretch the last window.
    for (;;) {
      const Query& first = next();
      const auto t0 = Clock::now();
      select(first);
      const auto t1 = Clock::now();
      const double elapsed_s =
          std::chrono::duration<double>(t1 - start).count();
      if (elapsed_s >= config.seconds) break;
      for (int j = 1; j < kChunk; ++j) select(next());
      const double lat_us =
          std::chrono::duration<double, std::micro>(t1 - t0).count();
      const int w = std::min(kWindows - 1,
                             static_cast<int>(elapsed_s / window_s));
      log.counts[w] += kChunk;
      // Reservoir sampling keeps each window's sample unbiased at a
      // fixed memory cost.
      const std::uint64_t seen = ++log.seen[w];
      if (log.samples[w].size() < kReservoir) {
        log.samples[w].push_back(lat_us);
      } else {
        const std::uint64_t j = reservoir_rng.next() % seen;
        if (j < kReservoir) log.samples[w][j] = lat_us;
      }
      if (published < planned &&
          elapsed_s * static_cast<double>(planned + 1) >=
              static_cast<double>(published + 1) * config.seconds) {
        const PublishStep& step = config.publishes[published++];
        const auto p0 = Clock::now();
        registry.publish(keys[step.key].key, step.bank);
        log.publish_us.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - p0)
                .count());
      }
    }
    cursors[static_cast<std::size_t>(c)] = pos;
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int c = 0; c < n; ++c) threads.emplace_back(client, c);
  start = Clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  PhaseResult result;
  result.clients = n;
  result.seconds = config.seconds;
  result.cursors = std::move(cursors);
  for (int w = 0; w < kWindows; ++w) {
    std::uint64_t count = 0;
    std::vector<double> samples;
    for (const ClientLog& log : logs) {
      count += log.counts[w];
      samples.insert(samples.end(), log.samples[w].begin(),
                     log.samples[w].end());
    }
    result.queries += count;
    result.window_qps.push_back(static_cast<double>(count) / window_s);
    result.samples_us.insert(result.samples_us.end(), samples.begin(),
                             samples.end());
    const LatencySummary s = summarize(std::move(samples));
    result.window_p50_us.push_back(s.p50);
    result.window_p99_us.push_back(s.p99);
  }
  for (const ClientLog& log : logs) {
    result.failed += log.failed;
    result.publish_us.insert(result.publish_us.end(), log.publish_us.begin(),
                             log.publish_us.end());
  }
  return result;
}

void PhaseResult::merge(const PhaseResult& other) {
  const auto append = [](std::vector<double>& to,
                         const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  clients = other.clients;
  seconds += other.seconds;
  queries += other.queries;
  failed += other.failed;
  append(window_qps, other.window_qps);
  append(window_p50_us, other.window_p50_us);
  append(window_p99_us, other.window_p99_us);
  append(samples_us, other.samples_us);
  append(publish_us, other.publish_us);
  cursors = other.cursors;
}

std::size_t check_registry_picks(const tune::BankRegistry& registry,
                                 const std::vector<ServedKey>& keys,
                                 const std::vector<Query>& stream,
                                 std::size_t offset, std::size_t count) {
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const Query& q = stream[(offset + i) & (stream.size() - 1)];
    const ServedKey& key = keys[q.key];
    const int direct = key.bank->select_uid_or_invalid(q.instance());
    int served = -1;
    try {
      served = registry.select_uid(key.key, q.instance());
    } catch (const std::exception&) {
      served = -1;
    }
    mismatches += served == direct ? 0 : 1;
  }
  return mismatches;
}

}  // namespace perfbench
