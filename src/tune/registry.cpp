#include "tune/registry.hpp"

#include <algorithm>
#include <utility>

#include "simmpi/coll/decision.hpp"
#include "simmpi/coll/types.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "support/trace.hpp"

namespace mpicp::tune {

namespace metrics = support::metrics;

namespace {

constexpr int kDefaultShards = 8;
constexpr int kMaxShards = 64;

/// Options::shards, or the default when it is <= 0; the result is
/// always in [1, kMaxShards].
int resolve_shards(int requested) {
  return requested <= 0 ? kDefaultShards : std::min(requested, kMaxShards);
}

/// FNV-1a over the machine name with the collective mixed in — stable
/// across processes, so a given key always lands on the same shard.
std::uint64_t hash_key(const BankKey& key) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : key.machine) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  h ^= static_cast<std::uint64_t>(key.collective) + 0x9e3779b97f4a7c15ull;
  h *= 1099511628211ull;
  return h;
}

/// Process-wide version source: every publish anywhere in the process
/// gets a distinct version, so memo entries can never alias across
/// swaps — not even between independent registries.
std::uint64_t next_version() {
  static std::atomic<std::uint64_t> counter{0};
  // order: a unique-ticket counter; uniqueness needs atomicity only.
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

std::string to_string(const BankKey& key) {
  return key.machine + "/" + sim::to_string(key.collective);
}

BankRegistry::BankRegistry(Options options) {
  const int n = resolve_shards(options.shards);
  shards_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    // Bounded setup loop (shard count <= 64), not a serving hot path.
    // mpicp-lint: allow(no-alloc-in-loop)
    auto shard = std::make_unique<Shard>();
    // order: publishes the empty snapshot map to future reader threads.
    // mpicp-lint: allow(no-alloc-in-loop)
    shard->snapshot.store(std::make_shared<const BankMap>(),
                          std::memory_order_release);
    shards_.push_back(std::move(shard));
  }
  metrics::gauge("registry.shards").set(static_cast<double>(n));
}

int BankRegistry::shards() const {
  return static_cast<int>(shards_.size());
}

std::size_t BankRegistry::num_banks() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    // order: pairs with the release stores in publish().
    total += shard->snapshot.load(std::memory_order_acquire)->size();
  }
  return total;
}

BankRegistry::Shard& BankRegistry::shard_of(const BankKey& key) const {
  return *shards_[hash_key(key) % shards_.size()];
}

BankRegistry::Entry BankRegistry::find_entry(const BankKey& key) const {
  Shard& shard = shard_of(key);
  // order: independent statistic; readers only need eventual totals.
  shard.lookups.fetch_add(1, std::memory_order_relaxed);
  // The RCU read: one atomic snapshot load; the map behind it is
  // immutable, so a concurrent publish cannot tear the find.
  // order: pairs with the release stores in publish().
  const std::shared_ptr<const BankMap> snap =
      shard.snapshot.load(std::memory_order_acquire);
  const auto it = snap->find(key);
  if (it == snap->end()) return {};
  // order: independent statistic; readers only need eventual totals.
  shard.hits.fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

int BankRegistry::select_in_entry(Shard& shard, const Entry& entry,
                                  const bench::Instance& inst) const {
  const MemoKey key{entry.version, inst.msize, inst.nodes, inst.ppn};
  {
    const support::MutexLock lock(shard.memo_mu);
    const auto it = shard.memo.find(key);
    if (it != shard.memo.end()) {
      // order: independent statistic; readers only need eventual totals.
      shard.memo_hits.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  // Check and fill are separate lock scopes: concurrent misses on one
  // key each run the argmin (same answer) and each count a miss, so
  // misses can exceed the distinct keys; hits + misses still equals
  // the selections.
  const int uid = entry.bank->select_uid_or_invalid(inst);
  // order: independent statistic; readers only need eventual totals.
  shard.memo_misses.fetch_add(1, std::memory_order_relaxed);
  if (uid > 0) {
    const support::MutexLock lock(shard.memo_mu);
    shard.memo.emplace(key, uid);
  }
  return uid;
}

std::shared_ptr<const CompiledBank> BankRegistry::lookup(
    const BankKey& key) const {
  MPICP_SPAN("registry.lookup");
  return find_entry(key).bank;
}

std::uint64_t BankRegistry::version(const BankKey& key) const {
  return find_entry(key).version;
}

int BankRegistry::select_uid(const BankKey& key,
                             const bench::Instance& inst) const {
  MPICP_SPAN("registry.lookup");
  const Entry entry = find_entry(key);
  MPICP_REQUIRE(entry.bank != nullptr,
                "no bank registered for " + to_string(key));
  const int uid = select_in_entry(shard_of(key), entry, inst);
  MPICP_REQUIRE(uid > 0,
                "no usable model prediction for the instance (use "
                "select_uid_or_default for graceful degradation)");
  return uid;
}

int BankRegistry::select_uid_or_default(const BankKey& key,
                                        const bench::Instance& inst,
                                        sim::MpiLib lib) const {
  MPICP_SPAN("registry.lookup");
  const Entry entry = find_entry(key);
  if (entry.bank != nullptr) {
    const int uid = select_in_entry(shard_of(key), entry, inst);
    if (uid > 0) return uid;
  }
  // Missing bank or nothing usable: behave like an untuned job launch.
  static metrics::Counter& fallbacks =
      metrics::counter("registry.default_fallbacks");
  fallbacks.inc();
  return sim::library_default_uid(lib, key.collective,
                                  inst.nodes * inst.ppn, inst.msize);
}

std::vector<int> BankRegistry::select_grid(
    const BankKey& key, std::span<const bench::Instance> grid) const {
  MPICP_SPAN("registry.select_grid");
  // Resolve the entry once: a whole grid is answered by one consistent
  // bank version even if a publish lands mid-batch.
  const Entry entry = find_entry(key);
  MPICP_REQUIRE(entry.bank != nullptr,
                "no bank registered for " + to_string(key));
  static metrics::Counter& instances =
      metrics::counter("registry.grid_instances");
  instances.inc(grid.size());
  Shard& shard = shard_of(key);
  std::vector<int> out(grid.size(), -1);
  support::parallel_for(grid.size(), 8, [&](std::size_t i) {
    const int uid = select_in_entry(shard, entry, grid[i]);
    MPICP_REQUIRE(uid > 0,
                  "no usable model prediction for a grid instance (use "
                  "select_uid_or_default for graceful degradation)");
    out[i] = uid;
  });
  return out;
}

std::vector<int> BankRegistry::serve(std::span<const Query> queries) const {
  MPICP_SPAN("registry.serve");
  static metrics::Counter& served =
      metrics::counter("registry.serve.queries");
  served.inc(queries.size());
  std::vector<int> out(queries.size(), -1);
  // Results are slotted by index, so the drain order (and the thread
  // count) cannot change the answer vector.
  support::parallel_for(queries.size(), 64, [&](std::size_t i) {
    out[i] = select_uid(queries[i].key, queries[i].inst);
  });
  return out;
}

std::uint64_t BankRegistry::publish(const BankKey& key,
                                    std::shared_ptr<const CompiledBank> bank) {
  MPICP_SPAN("registry.swap");
  MPICP_REQUIRE(bank != nullptr, "publishing a null bank for " +
                                     to_string(key));
  MPICP_REQUIRE(bank->num_models() > 0,
                "publishing an empty bank for " + to_string(key));
  Shard& shard = shard_of(key);
  const std::uint64_t version = next_version();
  {
    // Writers serialize among themselves; readers never wait — they
    // keep using the snapshot they loaded until the store below.
    const support::MutexLock lock(shard.write_mu);
    // order: the writer's own read; write_mu orders writer-to-writer.
    const std::shared_ptr<const BankMap> old =
        shard.snapshot.load(std::memory_order_acquire);
    auto next = std::make_shared<BankMap>(*old);
    (*next)[key] = Entry{std::move(bank), version};
    // order: publishes the cloned map; pairs with the acquire loads on
    // every reader path (find_entry, num_banks, shard_stats).
    shard.snapshot.store(std::move(next), std::memory_order_release);
  }
  {
    // Drop the shard memo wholesale: stale versions can never hit again
    // (lookups now resolve the new version), this just bounds memory.
    const support::MutexLock lock(shard.memo_mu);
    shard.memo.clear();
  }
  // order: independent statistic; readers only need eventual totals.
  shard.swaps.fetch_add(1, std::memory_order_relaxed);
  static metrics::Counter& swaps = metrics::counter("registry.swaps");
  swaps.inc();
  return version;
}

BankRegistry::RefitOutcome BankRegistry::refit_and_publish(
    const BankKey& key, const bench::Dataset& ds,
    const std::vector<int>& train_nodes, const SelectorOptions& options,
    const RefitValidator& validator) {
  MPICP_SPAN("registry.refit");
  RefitOutcome outcome;
  outcome.version = version(key);
  try {
    Selector selector(options);
    outcome.fit_report = selector.fit(ds, train_nodes);
    auto compiled = std::make_shared<const CompiledBank>(selector.compile());
    if (validator) {
      const std::string verdict = validator(*compiled, lookup(key));
      if (!verdict.empty()) {
        // A clean fit that lost to the incumbent: discard the candidate,
        // keep serving the last good bank.
        outcome.rejected = true;
        outcome.error = verdict;
        metrics::counter("registry.refit_rejected").inc();
        return outcome;
      }
    }
    outcome.version = publish(key, std::move(compiled));
    outcome.published = true;
    metrics::counter("registry.refits").inc();
  } catch (const std::exception& e) {
    // The last good bank keeps serving; the caller decides whether a
    // failed refit is fatal.
    outcome.error = e.what();
    metrics::counter("registry.refit_failures").inc();
  }
  return outcome;
}

std::vector<BankRegistry::ShardStats> BankRegistry::shard_stats() const {
  std::vector<ShardStats> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardStats s;
    // order: statistics snapshot; tolerates straddling in-flight
    // selections (counters are independent, eventual totals).
    s.lookups = shard->lookups.load(std::memory_order_relaxed);
    // order: statistics snapshot (see above).
    s.hits = shard->hits.load(std::memory_order_relaxed);
    // order: statistics snapshot (see above).
    s.memo_hits = shard->memo_hits.load(std::memory_order_relaxed);
    // order: statistics snapshot (see above).
    s.memo_misses = shard->memo_misses.load(std::memory_order_relaxed);
    // order: statistics snapshot (see above).
    s.swaps = shard->swaps.load(std::memory_order_relaxed);
    // order: pairs with the release stores in publish().
    s.banks = shard->snapshot.load(std::memory_order_acquire)->size();
    out.push_back(s);
  }
  return out;
}

}  // namespace mpicp::tune
