// Continuous retraining: the producer/consumer loop that closes the
// production lifecycle (DESIGN.md §13).
//
// A StreamPipeline consumes measurement rows one at a time — textual
// CSV rows from a live campaign, or already-parsed Records — and keeps
// the BankRegistry's served banks matched to the machine the rows come
// from:
//
//   row -> tolerant validation (quarantine, never poison the window)
//       -> bounded sliding window + holdout slice per BankKey
//       -> drift detection against the currently served bank
//       -> [drift] discard the stale window, re-accumulate,
//          refit -> validate on the holdout -> hot swap or reject
//
// Serving never stops: selections go through the registry's RCU
// snapshots, a refit publishes (or is rejected) while readers keep
// answering from the incumbent, and refit storms are rate-limited with
// exponential backoff. The pump itself is serialized: push()/push_row()
// take the pipeline mutex, so concurrent producers interleave whole
// rows (fits inside refits still use the support/parallel pool and
// stay bit-identical at any MPICP_THREADS).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "collbench/dataset.hpp"
#include "support/thread_safety.hpp"
#include "tune/drift.hpp"
#include "tune/registry.hpp"

namespace mpicp::tune {

struct StreamOptions {
  sim::MpiLib lib = sim::MpiLib::kOpenMPI;
  SelectorOptions selector;
};

class StreamPipeline {
 public:
  /// Per-key training window: oldest accepted rows are evicted beyond
  /// this (the holdout slice is bounded at kWindowCapacity /
  /// kHoldoutEvery alongside).
  static constexpr std::size_t kWindowCapacity = 512;
  /// A refit needs at least this many windowed rows (training slice +
  /// holdout) — both for the bootstrap fit and after a drift discard.
  static constexpr std::size_t kMinRefitRows = 160;
  /// Every kHoldoutEvery-th accepted row goes to the holdout slice
  /// (never trained on) — the validation set refits must win on.
  static constexpr std::size_t kHoldoutEvery = 4;
  /// A candidate is published only when its holdout error does not
  /// exceed the incumbent's times this factor.
  static constexpr double kAcceptTolerance = 1.05;
  /// Minimum accepted rows between consecutive refit attempts on one
  /// key — the base rate limit against refit storms.
  static constexpr std::uint64_t kRefitCooldown = 32;
  /// Exponential backoff after a failed or rejected refit: wait
  /// kBackoffInitial accepted rows, then x kBackoffMultiplier per
  /// consecutive failure, capped at kBackoffMax.
  static constexpr std::uint64_t kBackoffInitial = 64;
  static constexpr std::uint64_t kBackoffMultiplier = 2;
  static constexpr std::uint64_t kBackoffMax = 8192;
  static_assert(kHoldoutEvery >= 2,
                "every row in the holdout would leave nothing to train on");
  static_assert(kWindowCapacity / kHoldoutEvery > 0,
                "the holdout slice must hold at least one row");

  StreamPipeline(BankRegistry& registry, StreamOptions options = {});

  /// What one pushed row did to the pipeline.
  struct RowOutcome {
    bool ingested = false;          ///< accepted into the window
    std::string quarantine_reason;  ///< non-empty when quarantined
    DriftSignal drift = DriftSignal::kNone;  ///< first alarm this row
    bool refit_attempted = false;
    bool published = false;  ///< a refit hot-swapped a new bank version
    bool rejected = false;   ///< a refit was declined or failed
  };

  /// Feed one textual measurement row ("uid,nodes,ppn,msize,time_us").
  /// bench::classify_row, the file loaders' rule, judges it: a row it
  /// rejects is quarantined under its reason, the rest go through push().
  [[nodiscard]] RowOutcome push_row(const BankKey& key,
                                    const std::string& row_text);

  /// Feed one parsed observation. Validation, windowing, drift
  /// detection and (when due) refit-and-swap all happen on the calling
  /// thread.
  [[nodiscard]] RowOutcome push(const BankKey& key, const bench::Record& rec);

  /// Deterministic pipeline accounting (no timings — byte-pinnable).
  struct Stats {
    std::uint64_t rows_seen = 0;
    std::uint64_t rows_ingested = 0;
    std::uint64_t rows_quarantined = 0;
    std::map<std::string, std::uint64_t> quarantine_reasons;
    std::uint64_t drift_detections = 0;
    /// rows_seen at each drift detection, in order.
    std::vector<std::uint64_t> detection_rows;
    /// Stale windowed rows discarded when drift was detected.
    std::uint64_t rows_discarded_on_drift = 0;
    std::uint64_t refits_attempted = 0;
    std::uint64_t refits_published = 0;
    std::uint64_t refits_rejected = 0;  ///< holdout validation declined
    std::uint64_t refits_failed = 0;    ///< the fit itself failed
    std::uint64_t backoff_skips = 0;    ///< refit due but backoff gated it
    std::uint64_t window_evictions = 0;
  };
  /// Point-in-time copy of the pipeline accounting, taken under the
  /// pump lock so a concurrent push never tears it.
  Stats stats() const;

  std::size_t window_size(const BankKey& key) const;
  std::size_t holdout_size(const BankKey& key) const;
  const StreamOptions& options() const { return options_; }

 private:
  struct KeyState {
    std::deque<bench::Record> window;   ///< training slice
    std::deque<bench::Record> holdout;  ///< validation slice
    DriftDetector detector;
    std::uint64_t accepted = 0;         ///< rows windowed for this key
    bool pending_refit = false;         ///< drift raised, refit owed
    bool attempted_before = false;
    std::uint64_t last_attempt_at = 0;  ///< accepted count at last attempt
    std::uint64_t backoff = 0;          ///< current backoff span (rows)
    std::uint64_t backoff_until = 0;    ///< accepted count gate
  };

  /// Admits `rec` under `reason` (its classify_row or validate_record
  /// verdict, "" when ingestible), then windows it, scores it and
  /// refits as needed.
  [[nodiscard]] RowOutcome push_locked(const BankKey& key,
                                       const bench::Record& rec,
                                       const std::string& reason)
      MPICP_REQUIRES(mu_);
  /// Counts one row as seen and, when `reason` is non-empty, quarantines
  /// it under that reason into the stats, the counters and `out`.
  /// Returns true when the row is admitted (no reason).
  [[nodiscard]] bool admit_locked(const std::string& reason, RowOutcome& out)
      MPICP_REQUIRES(mu_);
  void ingest(KeyState& state, const bench::Record& rec)
      MPICP_REQUIRES(mu_);
  void observe_error(KeyState& state, const BankKey& key,
                     const bench::Record& rec, RowOutcome* out)
      MPICP_REQUIRES(mu_);
  void maybe_refit(KeyState& state, const BankKey& key, RowOutcome* out)
      MPICP_REQUIRES(mu_);
  /// Mean relative holdout error of `bank`; unusable predictions carry
  /// a fixed penalty so a bank that cannot serve the holdout loses.
  /// Needs no capability: it runs inside the registry's validator
  /// callback, which the analysis sees without the pump's context.
  double holdout_error(const KeyState& state, const CompiledBank& bank) const;

  BankRegistry& registry_;
  /// Immutable after construction.
  StreamOptions options_;  // mpicp-lint: allow(lock-discipline)
  /// Serializes the pump: whole rows interleave, never their steps.
  mutable support::Mutex mu_;
  std::map<BankKey, KeyState> states_ MPICP_GUARDED_BY(mu_);
  Stats stats_ MPICP_GUARDED_BY(mu_);
};

}  // namespace mpicp::tune
