// Process-wide metrics registry (counters, gauges, histograms).
//
// The pipeline's health reports (bench::IngestReport, tune::FitReport)
// account for one call; this registry accumulates the same quantities —
// rows quarantined, fallback depths, argmin exclusions, predictions
// served, per-learner fit times — across a whole process, so operators
// and benches can see where a run spent its budget and how often the
// degradation paths fired. Metric values are updated with relaxed
// atomics from inside parallel_for bodies; registration takes a mutex
// once per name, and instruments are never deallocated (reset() zeroes
// values in place), so cached references stay valid for the process
// lifetime.
//
// Exporters: print_metrics renders an aligned table (support/table);
// write_json emits the machine-readable snapshot (`metrics.json`) the
// benches and the golden tests consume. See README "Observability".
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/thread_safety.hpp"

namespace mpicp::support::metrics {

/// Cells of a Counter: a thread counts into cell (ticket % kCounterCells).
inline constexpr std::size_t kCounterCells = 16;

/// The calling thread's counter cell: a ticket drawn on its first call,
/// so up to kCounterCells threads started in turn count into distinct
/// cache lines.
inline std::size_t this_thread_cell() {
  // Zero means no ticket yet; a trivially initialized thread_local
  // needs no guard on the per-call path.
  thread_local std::size_t cell_plus_one = 0;
  if (cell_plus_one == 0) {
    static std::atomic<std::size_t> tickets{0};
    // order: a unique-ticket counter; uniqueness needs atomicity only.
    cell_plus_one =
        tickets.fetch_add(1, std::memory_order_relaxed) % kCounterCells + 1;
  }
  return cell_plus_one - 1;
}

/// Monotonically increasing event count, kept in one cache line per
/// thread cell so that threads counting the same event do not contend;
/// value() sums the cells.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    // order: independent statistic; readers only need eventual totals.
    cells_[this_thread_cell()].value.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    std::uint64_t sum = 0;
    for (const Cell& c : cells_) {
      // order: independent statistic; readers only need eventual totals.
      sum += c.value.load(std::memory_order_relaxed);
    }
    return sum;
  }
  void reset() {
    for (Cell& c : cells_) {
      // order: independent statistic; readers only need eventual totals.
      c.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Cell, kCounterCells> cells_;
};

/// Last-write-wins scalar (e.g. a configuration value or a level).
class Gauge {
 public:
  void set(double v) {
    // order: last-write-wins scalar; no ordering with other data.
    value_.store(v, std::memory_order_relaxed);
  }
  double value() const {
    // order: last-write-wins scalar; no ordering with other data.
    return value_.load(std::memory_order_relaxed);
  }
  void reset() {
    // order: last-write-wins scalar; no ordering with other data.
    value_.store(0.0, std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Distribution of observed values: exact count/sum/min/max plus
/// power-of-two buckets (bucket b counts values in (2^(b-1), 2^b]).
/// Values <= 0 land in the first bucket. All updates are lock-free, so
/// observe() is safe from parallel_for bodies.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void observe(double v);

  struct Summary {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  ///< meaningless when count == 0
    double max = 0.0;
    double mean() const {
      return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
    /// Non-empty buckets as (upper bound, count), ascending.
    std::vector<std::pair<double, std::uint64_t>> buckets;
  };
  Summary summary() const;

  std::uint64_t count() const {
    // order: independent statistic; readers only need eventual totals.
    return count_.load(std::memory_order_relaxed);
  }
  void reset();

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  // +/-inf sentinels so the first observe() seeds the bounds through
  // the same CAS path as every later one; summary() maps the empty
  // histogram back to 0.
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

/// Point-in-time copy of every registered metric.
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Histogram::Summary> histograms;
};

/// The process-wide name -> instrument map. Lookup registers on first
/// use and returns a stable reference; hot paths should cache it.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  Snapshot snapshot() const;

  /// Zero every registered metric in place. References handed out
  /// before the reset stay valid (tests and repeated bench reps rely
  /// on this).
  void reset();

 private:
  Registry() = default;

  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      MPICP_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      MPICP_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>>
      histograms_ MPICP_GUARDED_BY(mu_);
};

/// Convenience accessors into Registry::instance().
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
Histogram& histogram(std::string_view name);

/// The instruments "<prefix><name>" for a fixed list of names: get()
/// registers each on its first use and then returns it from a cache, so
/// a per-call path finds it by comparing names instead of building the
/// full name and looking it up in the registry. A name never used is
/// never registered; a name outside the list is looked up by name.
template <typename Instrument>
class Family {
 public:
  Family(std::string prefix, std::span<const char* const> names)
      : prefix_(std::move(prefix)),
        names_(names.begin(), names.end()),
        cache_(names_.size()) {}

  Instrument& get(std::string_view name) {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] != name) continue;
      // order: acquire pairs with the release below, so the instrument
      // another thread registered is fully constructed when read here.
      Instrument* inst = cache_[i].load(std::memory_order_acquire);
      if (inst == nullptr) {
        // Racing first uses store the same pointer: the registry hands
        // out one instrument per name.
        inst = &lookup(prefix_ + names_[i]);
        // order: publishes the registered instrument (see above).
        cache_[i].store(inst, std::memory_order_release);
      }
      return *inst;
    }
    return lookup(prefix_ + std::string(name));
  }

 private:
  static Instrument& lookup(std::string_view full_name) {
    if constexpr (std::is_same_v<Instrument, Counter>) {
      return counter(full_name);
    } else {
      return histogram(full_name);
    }
  }

  std::string prefix_;
  std::vector<std::string> names_;
  std::vector<std::atomic<Instrument*>> cache_;
};

/// Render a snapshot as aligned human-readable tables.
void print_metrics(std::ostream& os, const Snapshot& snapshot);

/// Emit a snapshot as JSON:
///   {"counters": {name: int, ...},
///    "gauges": {name: float, ...},
///    "histograms": {name: {"count": int, "sum": float, "min": float,
///                          "max": float, "mean": float,
///                          "buckets": [{"le": float, "count": int}]}}}
/// Non-finite values are emitted as null so the output always parses.
void write_json(std::ostream& os, const Snapshot& snapshot);

}  // namespace mpicp::support::metrics
