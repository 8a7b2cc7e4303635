// Seeded, deterministic fault injection for the ingest → fit → select
// pipeline.
//
// Real measurement campaigns produce messy artifacts: benchmark crashes
// leave truncated CSV rows, clock glitches produce negative or absurd
// timings, file transfers corrupt model banks. This module manufactures
// exactly those faults on demand so the degradation paths (tolerant
// ingest, fit fallback chains) can be exercised and *accounted for* in
// tests — every injected fault is logged, and the pipeline's health
// reports must add up to the injection log.
//
// Two kinds of injection points:
//
//  * Artifact corruption — pure functions that corrupt textual artifacts
//    (CSV datasets, serialized model streams). Deterministic in the
//    plan's seed; the returned log says what was done where.
//
//  * Process-global sabotage — in-memory fits, which leave no textual
//    artifact, consult a scoped fault table. Off by default with a
//    single atomic check, so fits pay nothing; tests arm it with
//    ScopedFaults (RAII, like support::ScopedThreads). Serving consults
//    nothing: an unusable prediction comes from a real model (see
//    DESIGN.md §11), so the tests exercise the production argmin.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>

namespace mpicp::support::faultinject {

// ---- artifact corruption ------------------------------------------------

/// Row-level CSV fault kinds, cycled deterministically over faulted rows.
/// The labels (csv_fault_label) double as the accounting key faults are
/// logged under.
enum class CsvFault {
  kNaNValue,       ///< value cell replaced by "nan" (parses, fails checks)
  kNegativeValue,  ///< value cell negated
  kOutlierValue,   ///< value cell inflated past any plausible timing
  kMalformedToken, ///< value cell replaced by an unparseable token
  kTruncatedRow,   ///< row cut mid-cell (width mismatch on ingest)
  kDroppedRow,     ///< row removed entirely (a missing uid×instance cell)
};

const char* csv_fault_label(CsvFault kind);

/// The deterministic rotation corrupt_csv walks: the i-th faulted row
/// gets csv_fault_cycle(i), so every kind appears once per six faults.
/// Streaming corruptors share the same rotation for identical
/// accounting semantics.
CsvFault csv_fault_cycle(std::size_t i);

/// Corrupt one CSV data row with `kind` (the row-level primitive behind
/// corrupt_csv, exposed for streaming producers that fault rows one at
/// a time). Returns nullopt when the row is dropped entirely
/// (kDroppedRow).
std::optional<std::string> corrupt_csv_row(const std::string& row,
                                           CsvFault kind,
                                           std::size_t value_column);

struct CsvFaultPlan {
  double fault_rate = 0.1;       ///< fraction of data rows corrupted
  std::size_t value_column = 0;  ///< column hit by the value faults
  std::uint64_t seed = 1;        ///< drives row choice and fault kind
};

/// What corrupt_csv actually did — the ground truth the pipeline's
/// IngestReport is checked against.
struct CsvFaultLog {
  std::size_t rows_total = 0;    ///< data rows in the input
  std::size_t rows_faulted = 0;  ///< rows corrupted (any kind)
  std::size_t rows_dropped = 0;  ///< subset removed entirely
  std::map<std::string, std::size_t> by_kind;  ///< label -> count
};

/// Corrupt a fraction of the data rows of CSV `text` (the header line is
/// never touched). Deterministic in plan.seed.
std::string corrupt_csv(const std::string& text, const CsvFaultPlan& plan,
                        CsvFaultLog* log = nullptr);

struct StreamFaultPlan {
  int char_flips = 0;           ///< corrupt this many payload characters
  std::ptrdiff_t truncate_at = -1;  ///< cut the stream here (-1: don't)
  std::uint64_t seed = 1;
};

/// Corrupt a serialized model stream: flip characters and/or truncate.
std::string corrupt_stream(const std::string& text,
                           const StreamFaultPlan& plan);

// ---- process-global sabotage --------------------------------------------

struct Faults {
  /// uid -> number of fit attempts to fail for that uid. 1 fails the
  /// configured learner (first fallback succeeds); a count covering the
  /// whole fallback chain renders the uid unusable.
  std::map<int, int> fit_failures;
};

/// Arms the global fault table for the current scope. Nestable; the
/// innermost table wins. Construct from top-level test code only (not
/// thread-safe against concurrent arming, like ScopedThreads).
class ScopedFaults {
 public:
  explicit ScopedFaults(Faults faults);
  ~ScopedFaults();

  ScopedFaults(const ScopedFaults&) = delete;
  ScopedFaults& operator=(const ScopedFaults&) = delete;

 private:
  Faults faults_;  ///< the armed table (address-stable for the scope)
  const Faults* previous_;
};

/// True if any fault table is armed (single relaxed atomic load).
bool active();

/// Consume one forced fit failure for `uid` if one is budgeted; callable
/// concurrently from parallel fit tasks (each uid is owned by one task,
/// so the per-uid budget decrements deterministically).
bool consume_fit_failure(int uid);

}  // namespace mpicp::support::faultinject
