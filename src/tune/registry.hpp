// Tuning-as-a-service: a hot-reloadable bank registry (DESIGN.md §12).
//
// The compiled bank (tune/compiled_bank.hpp) answers single-bank
// queries allocation-free; `BankRegistry` is the long-running serving
// layer above it — a concurrent map from (machine preset, collective)
// to an immutable `CompiledBank`. Publishes are RCU-style: a writer
// clones the registry's immutable snapshot map under `write_mu_`,
// installs the new bank under a fresh process-unique version, swaps the
// snapshot and release-stores that version as the registry's
// `generation_`; readers finish on whichever snapshot they hold.
//
// The read path writes only to the calling thread's own cache lines in
// steady state. Each thread keeps a small fixed-size cache of
// (registry, generation, snapshot) copies: a selection does one acquire
// load of the registry's generation and, when it matches the cached
// one, reads the cached map without touching any shared reference
// count. Only after a publish (to any key) does a thread refresh its
// copy, under `write_mu_`. A thread's cache can keep a retired snapshot
// and its banks alive until that thread next reads the registry or
// exits (at most kSnapshotSlots snapshots per thread).
//
// One serving path answers every selection: registry lookup -> the
// calling thread's memo -> `CompiledBank` argmin. The memo is exact,
// keyed by (bank version, m, n, N); versions are process-unique, so a
// memoized answer always equals the selection of the exact bank version
// it was computed from, which is what the swap-under-load
// linearizability property in tests/test_registry.cpp and
// tests/test_properties.cpp pins. A publish to one key therefore leaves
// every other key's memo entries hitting. Each thread's memo holds
// kMemoSlots slots (1 MiB) and is cleared wholesale at 3/4 load.
//
// Every path is observable: MPICP_SPAN("registry.lookup"/"registry.swap"/
// "registry.serve"/"registry.refit") spans, process metrics
// ("registry.*"), and selection statistics held once, in per-thread
// counter cells summed by shard_stats().
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "collbench/dataset.hpp"
#include "support/metrics.hpp"
#include "support/thread_safety.hpp"
#include "tune/compiled_bank.hpp"
#include "tune/selector.hpp"

namespace mpicp::tune {

/// Identity of one serving bank: which machine preset's measurements it
/// was fitted on, and which collective it selects algorithms for.
struct BankKey {
  std::string machine;  ///< simnet machine preset name ("Hydra", ...)
  sim::Collective collective = sim::Collective::kBcast;

  friend bool operator==(const BankKey&, const BankKey&) = default;
  bool operator<(const BankKey& o) const {
    return std::tie(machine, collective) < std::tie(o.machine, o.collective);
  }
};

/// "Hydra/bcast" — for diagnostics and error messages.
std::string to_string(const BankKey& key);

class BankRegistry {
 public:
  /// Slots of each thread's selection memo (32 B each: 1 MiB). The
  /// memo is cleared wholesale once 3/4 of them are filled.
  static constexpr std::size_t kMemoSlots = std::size_t{1} << 15;

  BankRegistry();
  ~BankRegistry();

  std::size_t num_banks() const;

  /// Hot-swap (or first install) of the bank serving `key`. Clones the
  /// registry's snapshot map, installs `bank` under a fresh process-unique
  /// version and publishes the new snapshot; in-flight selections finish
  /// on the snapshot they already hold, and every selection that starts
  /// after this returns (on a thread synchronized with it) sees the new
  /// bank. Returns the new version (monotonic; never 0).
  std::uint64_t publish(const BankKey& key,
                        std::shared_ptr<const CompiledBank> bank);

  /// The bank currently serving `key` (nullptr when absent): the
  /// calling thread's snapshot copy plus a map find. The returned
  /// owning pointer costs one reference-count update on the bank.
  [[nodiscard]] std::shared_ptr<const CompiledBank> lookup(
      const BankKey& key) const;

  /// Version of the bank currently serving `key`; 0 when absent.
  [[nodiscard]] std::uint64_t version(const BankKey& key) const;

  /// Argmin selection against the bank serving `key`; throws when no
  /// bank is registered or no prediction is usable (same contract as
  /// CompiledBank::select_uid).
  [[nodiscard]] int select_uid(const BankKey& key,
                               const bench::Instance& inst) const;

  /// Graceful selection: the bank's argmin when available and usable,
  /// else the library's own default decision — the behaviour an untuned
  /// job launch would get. Never throws.
  [[nodiscard]] int select_uid_or_default(const BankKey& key,
                                          const bench::Instance& inst,
                                          sim::MpiLib lib) const;

  /// Batched selection over a whole instance grid against one bank
  /// (parallel over instances, like CompiledBank::select_grid, but each
  /// instance goes through the registry's memo and counters).
  [[nodiscard]] std::vector<int> select_grid(
      const BankKey& key, std::span<const bench::Instance> grid) const;

  /// One request of a mixed serving stream.
  struct Query {
    BankKey key;
    bench::Instance inst;
  };

  /// Concurrent request loop: drain a mixed (machine, collective, m, n,
  /// N) query stream on the support/parallel pool, one selection per
  /// query, results slotted by index (bit-identical at any
  /// MPICP_THREADS). Publishes may run concurrently — each query is
  /// answered by some published bank version.
  [[nodiscard]] std::vector<int> serve(std::span<const Query> queries) const;

  /// Account of one refit_and_publish call.
  struct RefitOutcome {
    bool published = false;    ///< a new bank version is now serving
    /// True when the candidate fit cleanly but the validator declined
    /// it (worse than the incumbent); the incumbent keeps serving.
    bool rejected = false;
    std::uint64_t version = 0; ///< version serving after the call (0: none)
    std::string error;         ///< why the refit was rejected ("" if clean)
    FitReport fit_report;      ///< per-uid fit health (empty on throw)
  };

  /// Pre-publish gate for refit_and_publish: given the freshly compiled
  /// candidate and the incumbent bank (nullptr when the key is not yet
  /// served), return "" to accept or a rejection reason. A rejected
  /// candidate is discarded — the incumbent keeps serving untouched.
  using RefitValidator = std::function<std::string(
      const CompiledBank& candidate,
      const std::shared_ptr<const CompiledBank>& incumbent)>;

  /// Fit a fresh selector on `ds` and hot-publish, under `key`, a copy
  /// of the bank that fit lowered. When the refit fails (every uid
  /// unusable, fault-injected fit failures, compile errors) or
  /// `validator` declines the candidate, the last good bank keeps
  /// serving untouched and the outcome carries the error instead —
  /// training never takes serving down.
  [[nodiscard]] RefitOutcome refit_and_publish(
      const BankKey& key, const bench::Dataset& ds,
      const std::vector<int>& train_nodes,
      const SelectorOptions& options = {},
      const RefitValidator& validator = {});

  /// Point-in-time accounting, summed over the registry's counter
  /// cells (the only place these statistics are kept).
  struct ShardStats {
    /// Entry finds: one per lookup(), version() or select_*() call
    /// (refit_and_publish() makes some too) and one per serve() query.
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;        ///< lookups that found a bank
    std::uint64_t memo_hits = 0;
    std::uint64_t memo_misses = 0;
    std::uint64_t swaps = 0;       ///< publishes
    std::size_t banks = 0;         ///< keys currently served
  };
  /// One entry: the registry keeps a single snapshot. (A vector, so
  /// callers that sum over entries need not change.)
  [[nodiscard]] std::vector<ShardStats> shard_stats() const;

 private:
  struct Entry {
    std::shared_ptr<const CompiledBank> bank;
    std::uint64_t version = 0;
  };
  using BankMap = std::map<BankKey, Entry>;

  /// Per-thread slots of the snapshot cache, searched linearly.
  static constexpr std::size_t kSnapshotSlots = 16;
  /// Counter cells, one per metrics::this_thread_cell().
  static constexpr std::size_t kCounterCells = support::metrics::kCounterCells;

  /// One cache line of selection statistics, written by the threads
  /// whose ticket maps to it.
  struct alignas(64) CounterCell {
    std::atomic<std::uint64_t> lookups{0};
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> memo_hits{0};
    std::atomic<std::uint64_t> memo_misses{0};
  };

  /// The calling thread's snapshot cache, memo and counter ticket
  /// (defined in registry.cpp).
  struct ThreadState;
  static ThreadState& thread_state();

  /// The calling thread's copy of the current map, refreshed under
  /// write_mu_ when the registry's generation has moved.
  const BankMap& current_map(ThreadState& ts) const;
  /// Entry fetch with accounting; nullptr when the key has no bank.
  /// Points into the thread's cached snapshot: valid until this thread
  /// next refreshes it.
  const Entry* find_entry(ThreadState& ts, const BankKey& key) const;
  /// Selection through the thread's memo; -1 when no prediction is
  /// usable.
  int select_in_entry(ThreadState& ts, const Entry& entry,
                      const bench::Instance& inst) const;

  /// Serializes publishers and guards `snapshot_`; readers take it only
  /// to refresh their cached copy after a publish.
  mutable support::Mutex write_mu_;
  std::shared_ptr<const BankMap> snapshot_ MPICP_GUARDED_BY(write_mu_);
  /// Process-unique stamp of `snapshot_`, release-stored after each
  /// swap; the one shared word a steady-state reader loads.
  std::atomic<std::uint64_t> generation_;
  std::atomic<std::uint64_t> swaps_{0};
  /// Atomics padded per cache line, not guarded data.
  // mpicp-lint: allow(lock-discipline)
  mutable std::array<CounterCell, kCounterCells> cells_;
};

}  // namespace mpicp::tune
