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

/// Process-wide version source: every publish anywhere in the process
/// gets a distinct version, so memo entries can never alias across
/// swaps — not even between independent registries.
std::uint64_t next_version() {
  static std::atomic<std::uint64_t> counter{0};
  // order: a unique-ticket counter; uniqueness needs atomicity only.
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// One thread's exact selection memo: (bank version, m, n, N) -> uid in
/// an open-addressing table of BankRegistry::kMemoSlots slots with
/// linear probing. Version 0 marks an empty slot (versions are never 0).
/// Nothing is ever evicted one by one: at 3/4 load the table is cleared
/// wholesale, which bounds both memory and probe length. Entries of
/// retired versions can never hit again and go with the next clear.
class Memo {
 public:
  /// The memoized uid, or -1 when absent.
  int find(std::uint64_t version, const bench::Instance& inst) const {
    if (!slots_) return -1;
    const Slot& s = probe(version, inst);
    return s.version != 0 ? s.uid : -1;
  }

  void insert(std::uint64_t version, const bench::Instance& inst, int uid) {
    if (!slots_) {
      slots_ = std::make_unique<Slot[]>(kSlots);
    } else if (size_ >= kSlots / 4 * 3) {
      std::fill_n(slots_.get(), kSlots, Slot{});
      size_ = 0;
    }
    Slot& s = probe(version, inst);
    if (s.version == 0) ++size_;
    s = Slot{version, inst.msize, inst.nodes, inst.ppn, uid};
  }

 private:
  static constexpr std::size_t kSlots = BankRegistry::kMemoSlots;
  static constexpr std::size_t kMask = kSlots - 1;
  static_assert((kSlots & kMask) == 0, "memo size must be a power of two");

  struct Slot {
    std::uint64_t version = 0;
    std::uint64_t msize = 0;
    int nodes = 0;
    int ppn = 0;
    int uid = 0;
  };
  static_assert(sizeof(Slot) == 32, "memo slots are 32 bytes");

  /// The key's slot, or the empty slot that ends its probe sequence
  /// (the load cap guarantees one).
  Slot& probe(std::uint64_t version, const bench::Instance& inst) const {
    for (std::size_t i = home(version, inst);; i = (i + 1) & kMask) {
      Slot& s = slots_[i];
      if (s.version == 0 || (s.version == version && s.msize == inst.msize &&
                             s.nodes == inst.nodes && s.ppn == inst.ppn)) {
        return s;
      }
    }
  }

  /// splitmix64's finalizer over the folded key.
  static std::size_t home(std::uint64_t version,
                          const bench::Instance& inst) {
    std::uint64_t h = version * 0x9e3779b97f4a7c15ull ^ inst.msize;
    h ^= (static_cast<std::uint64_t>(static_cast<std::uint32_t>(inst.nodes))
          << 32) |
         static_cast<std::uint32_t>(inst.ppn);
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebull;
    h ^= h >> 31;
    return static_cast<std::size_t>(h) & kMask;
  }

  std::unique_ptr<Slot[]> slots_;
  std::size_t size_ = 0;
};

}  // namespace

/// Everything a selection writes lives here, on the calling thread.
struct BankRegistry::ThreadState {
  /// One cached snapshot: the map `registry` published as `generation`.
  struct CachedSnapshot {
    const BankRegistry* registry = nullptr;
    std::uint64_t generation = 0;
    std::shared_ptr<const BankMap> map;
  };
  std::array<CachedSnapshot, kSnapshotSlots> snapshots;
  std::size_t next_victim = 0;  ///< round-robin replacement cursor
  Memo memo;
  std::size_t cell = metrics::this_thread_cell();  ///< counter cell
};

BankRegistry::ThreadState& BankRegistry::thread_state() {
  thread_local ThreadState state;
  return state;
}

std::string to_string(const BankKey& key) {
  return key.machine + "/" + sim::to_string(key.collective);
}

BankRegistry::BankRegistry()
    : snapshot_(std::make_shared<const BankMap>()),
      generation_(next_version()) {}

// Out of line, so GCC does not inline the snapshot's release into
// callers that hold a registry in std::optional (a -Wmaybe-uninitialized
// false positive).
BankRegistry::~BankRegistry() = default;

std::size_t BankRegistry::num_banks() const {
  const support::MutexLock lock(write_mu_);
  return snapshot_->size();
}

const BankRegistry::BankMap& BankRegistry::current_map(
    ThreadState& ts) const {
  // order: pairs with the release store in publish(). A thread that
  // synchronizes with a returned publish (the publisher itself, or a
  // pool worker handed work after it) reads that generation or a later
  // one, so it refreshes; the map itself is copied under write_mu_.
  const std::uint64_t generation =
      generation_.load(std::memory_order_acquire);
  ThreadState::CachedSnapshot* slot = nullptr;
  for (ThreadState::CachedSnapshot& c : ts.snapshots) {
    if (c.registry == this) {
      if (c.generation == generation) return *c.map;
      slot = &c;
      break;
    }
  }
  if (slot == nullptr) {
    // Generations are process-unique, so a slot naming a dead registry
    // whose address a new one reuses can never pass the check above.
    slot = &ts.snapshots[ts.next_victim++ % kSnapshotSlots];
    slot->registry = this;
  }
  const support::MutexLock lock(write_mu_);
  slot->map = snapshot_;
  // order: read under write_mu_, which orders it with the swap it stamps.
  slot->generation = generation_.load(std::memory_order_relaxed);
  return *slot->map;
}

const BankRegistry::Entry* BankRegistry::find_entry(
    ThreadState& ts, const BankKey& key) const {
  CounterCell& cell = cells_[ts.cell];
  // order: independent statistic; readers only need eventual totals.
  cell.lookups.fetch_add(1, std::memory_order_relaxed);
  const BankMap& map = current_map(ts);
  const auto it = map.find(key);
  if (it == map.end()) return nullptr;
  // order: independent statistic; readers only need eventual totals.
  cell.hits.fetch_add(1, std::memory_order_relaxed);
  return &it->second;
}

int BankRegistry::select_in_entry(ThreadState& ts, const Entry& entry,
                                  const bench::Instance& inst) const {
  CounterCell& cell = cells_[ts.cell];
  const int memoized = ts.memo.find(entry.version, inst);
  if (memoized > 0) {
    // order: independent statistic; readers only need eventual totals.
    cell.memo_hits.fetch_add(1, std::memory_order_relaxed);
    return memoized;
  }
  const int uid = entry.bank->select_uid_or_invalid(inst);
  // order: independent statistic; readers only need eventual totals.
  cell.memo_misses.fetch_add(1, std::memory_order_relaxed);
  if (uid > 0) ts.memo.insert(entry.version, inst, uid);
  return uid;
}

std::shared_ptr<const CompiledBank> BankRegistry::lookup(
    const BankKey& key) const {
  MPICP_SPAN("registry.lookup");
  const Entry* entry = find_entry(thread_state(), key);
  return entry != nullptr ? entry->bank : nullptr;
}

std::uint64_t BankRegistry::version(const BankKey& key) const {
  const Entry* entry = find_entry(thread_state(), key);
  return entry != nullptr ? entry->version : 0;
}

int BankRegistry::select_uid(const BankKey& key,
                             const bench::Instance& inst) const {
  MPICP_SPAN("registry.lookup");
  ThreadState& ts = thread_state();
  const Entry* entry = find_entry(ts, key);
  MPICP_REQUIRE(entry != nullptr,
                "no bank registered for " + to_string(key));
  const int uid = select_in_entry(ts, *entry, inst);
  MPICP_REQUIRE(uid > 0,
                "no usable model prediction for the instance (use "
                "select_uid_or_default for graceful degradation)");
  return uid;
}

int BankRegistry::select_uid_or_default(const BankKey& key,
                                        const bench::Instance& inst,
                                        sim::MpiLib lib) const {
  MPICP_SPAN("registry.lookup");
  ThreadState& ts = thread_state();
  if (const Entry* entry = find_entry(ts, key)) {
    const int uid = select_in_entry(ts, *entry, inst);
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
  const Entry* found = find_entry(thread_state(), key);
  MPICP_REQUIRE(found != nullptr,
                "no bank registered for " + to_string(key));
  // Resolve the entry once and copy it: a whole grid is answered by one
  // consistent bank version even if a publish lands mid-batch, and the
  // workers never read this thread's snapshot cache.
  const Entry entry = *found;
  static metrics::Counter& instances =
      metrics::counter("registry.grid_instances");
  instances.inc(grid.size());
  std::vector<int> out(grid.size(), -1);
  support::parallel_for(grid.size(), 8, [&](std::size_t i) {
    const int uid = select_in_entry(thread_state(), entry, grid[i]);
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
  const std::uint64_t version = next_version();
  {
    // Writers serialize among themselves. Readers keep the snapshot
    // they hold; each refreshes its copy (under this mutex) on its next
    // read of the registry, once it sees the new generation.
    const support::MutexLock lock(write_mu_);
    auto next = std::make_shared<BankMap>(*snapshot_);
    (*next)[key] = Entry{std::move(bank), version};
    snapshot_ = std::move(next);
    // order: publishes the swap; pairs with the acquire load in
    // current_map(). No memo is cleared: the new version cannot hit an
    // entry of the old one, nor of any other key.
    generation_.store(version, std::memory_order_release);
  }
  // order: independent statistic; readers only need eventual totals.
  swaps_.fetch_add(1, std::memory_order_relaxed);
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
    // A copy of the bank the fit lowered; nothing is lowered again.
    auto compiled = std::make_shared<const CompiledBank>(selector.compile());
    if (validator) {
      const std::string verdict = validator(*compiled, lookup(key));
      if (!verdict.empty()) {
        // A clean fit that lost to the incumbent: discard the candidate,
        // keep serving the last good bank.
        outcome.rejected = true;
        outcome.error = verdict;
        static metrics::Counter& rejected =
            metrics::counter("registry.refit_rejected");
        rejected.inc();
        return outcome;
      }
    }
    outcome.version = publish(key, std::move(compiled));
    outcome.published = true;
    static metrics::Counter& refits = metrics::counter("registry.refits");
    refits.inc();
  } catch (const std::exception& e) {
    // The last good bank keeps serving; the caller decides whether a
    // failed refit is fatal.
    outcome.error = e.what();
    static metrics::Counter& failures =
        metrics::counter("registry.refit_failures");
    failures.inc();
  }
  return outcome;
}

std::vector<BankRegistry::ShardStats> BankRegistry::shard_stats() const {
  ShardStats s;
  for (const CounterCell& cell : cells_) {
    // order: statistics snapshot; tolerates straddling in-flight
    // selections (counters are independent, eventual totals).
    s.lookups += cell.lookups.load(std::memory_order_relaxed);
    // order: statistics snapshot (see above).
    s.hits += cell.hits.load(std::memory_order_relaxed);
    // order: statistics snapshot (see above).
    s.memo_hits += cell.memo_hits.load(std::memory_order_relaxed);
    // order: statistics snapshot (see above).
    s.memo_misses += cell.memo_misses.load(std::memory_order_relaxed);
  }
  // order: statistics snapshot (see above).
  s.swaps = swaps_.load(std::memory_order_relaxed);
  s.banks = num_banks();
  return {s};
}

}  // namespace mpicp::tune
