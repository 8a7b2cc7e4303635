// Measurement helpers of the repository benchmark: clocks, percentiles,
// record digests, resident-memory probes, metric bookkeeping and the
// result line. They depend on nothing in the library so that a change
// to the library cannot change how it is measured.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Deterministic 64-bit generator for the benchmark's own inputs
/// (splitmix64). Kept separate from the library's RNG so that a library
/// change never alters the query streams.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [lo, hi].
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi);
  /// Uniform double in [0, 1).
  double unit();

 private:
  std::uint64_t state_;
};

/// FNV-1a over a byte range, continuing from `hash`.
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t hash = 0xcbf29ce484222325ULL);

/// Nearest-rank percentile (q in [0, 1]) of an ascending-sorted sample.
double percentile_sorted(const std::vector<double>& sorted, double q);

/// Nearest-rank percentile averaged with its neighbours within 0.05 %
/// of the sample on either side. Latencies are read at 1 ns
/// resolution; the average keeps a sub-ns median from reading the same
/// on every run while moving it by less than the noise.
double percentile_smoothed(const std::vector<double>& sorted, double q);

/// The highest of p50, p90, p99, p99.9, p99.99 that has at least ten
/// samples beyond it in a sample of `count`; 0 when even p50 has not.
double highest_supported_percentile(std::size_t count);

/// Summary of one latency sample: count, smoothed p50 and p99, and the
/// highest percentile the sample supports (nearest rank).
struct LatencySummary {
  std::size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double top_q = 0.0;
  double top = 0.0;
};
LatencySummary summarize(std::vector<double> samples);

/// Median of a (not necessarily sorted) vector; 0 when empty.
double median(std::vector<double> values);

/// Nearest-rank percentile (q in [0, 1]) of a not necessarily sorted
/// vector; 0 when empty.
double quantile(std::vector<double> values, double q);

/// Current resident set size of this process, MiB.
double rss_mb();

/// Median cost of one steady_clock read, ns.
double clock_read_ns();

/// Fixed work that does not touch the library, timed to follow how fast
/// a shared host runs at the moment: a chain of dependent loads along a
/// random cycle through 32 MiB, so that each load misses the caches.
class HostProbe {
 public:
  HostProbe();
  /// ns per load.
  double measure();

 private:
  std::vector<std::uint32_t> next_;
};

/// Metric names use [A-Za-z0-9_.-], start with a letter or digit, and
/// have at most 64 characters.
bool valid_metric_name(std::string_view name);

/// Ordered metric set of one run.
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const;
  /// The value of `name`; 0 when it is not set.
  double value(const std::string& name) const;
  /// Human-readable table, one metric per line with its unit.
  void print(const char* title) const;
  /// `{"name": {"value": v, "unit": "u"}, ...}` for `names`, in order.
  std::string json(const std::vector<std::string>& names) const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Runs the helper self-tests; prints one line per failed check and
/// returns the number of failures.
int self_test();

}  // namespace perfbench
