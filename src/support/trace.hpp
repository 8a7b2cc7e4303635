// Lightweight RAII tracing spans with a hierarchical wall-clock profile.
//
// Usage: MPICP_SPAN("fit.uid"); times the enclosing scope. Spans nest —
// a span opened while another is active on the same thread records the
// path "outer/inner" — and add into a per-path profile (count, total,
// min, max). Each thread keeps one entry per path under its own mutex,
// which only profile()/reset() contend, so memory is bounded by the
// number of distinct paths and a span on a seen path allocates nothing.
// parallel_for propagates the caller's span path into its pool runners
// (ScopedParent), so work on pool threads merges under the stage that
// spawned it rather than appearing as disconnected roots.
//
// Tracing is on by default and controlled by the MPICP_TRACE
// environment variable ("0" disables) or programmatically via
// set_enabled / ScopedEnabled. Span's constructor and destructor are
// inline flag checks: a disabled span is one relaxed atomic load (about
// 1 ns); an enabled one times and records out of line (0.08–0.2 µs).
// bench/bench_observability_overhead measures both and fails if the
// disabled cost grows.
//
// Exporter: print_profile renders the profile as a table.
#pragma once

#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace mpicp::support::trace {

namespace detail {
// -1 = not yet resolved from the environment; 0 = off; 1 = on.
inline std::atomic<int> g_enabled{-1};
/// Reads MPICP_TRACE into g_enabled; returns the resolved state.
int resolve_enabled();
}  // namespace detail

/// Is span recording currently on? One relaxed atomic load.
inline bool enabled() {
  // order: an on/off flag publishing no other data.
  const int state = detail::g_enabled.load(std::memory_order_relaxed);
  return (state < 0 ? detail::resolve_enabled() : state) != 0;
}

/// Programmatic override of the MPICP_TRACE environment variable.
void set_enabled(bool on);

/// RAII enable/disable for tests and benches; restores on destruction.
class ScopedEnabled {
 public:
  explicit ScopedEnabled(bool on);
  ~ScopedEnabled();

  ScopedEnabled(const ScopedEnabled&) = delete;
  ScopedEnabled& operator=(const ScopedEnabled&) = delete;

 private:
  bool previous_;
};

/// The timing scope behind MPICP_SPAN. `name` must outlive the span
/// (string literals in practice).
class Span {
 public:
  explicit Span(const char* name) {
    if (enabled()) open(name);
  }
  ~Span() {
    if (active_) close();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void open(const char* name);
  void close();

  std::uint64_t start_ns_ = 0;
  bool active_ = false;  // tracing was enabled at entry
};

/// The innermost active span path on this thread (the ambient parent if
/// no span is open); "" at top level or when tracing is disabled.
std::string current_path();

/// Ambient parent for spans opened on this thread while no local span
/// is active — how parallel_for runners inherit the caller's stage.
class ScopedParent {
 public:
  explicit ScopedParent(std::string path);
  ~ScopedParent();

  ScopedParent(const ScopedParent&) = delete;
  ScopedParent& operator=(const ScopedParent&) = delete;

 private:
  std::string previous_;
};

/// Aggregated wall-clock statistics of one span path.
struct ProfileEntry {
  std::string path;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t min_ns = 0;
  std::uint64_t max_ns = 0;
};

/// Every thread's profile merged by path, sorted by path (the hierarchy
/// reads top-down because a child path extends its parent's).
std::vector<ProfileEntry> profile();

/// Drop all profile entries (thread stores stay registered).
void reset();

/// Render profile() as an aligned table.
void print_profile(std::ostream& os);

}  // namespace mpicp::support::trace

#define MPICP_SPAN_CONCAT2(a, b) a##b
#define MPICP_SPAN_CONCAT(a, b) MPICP_SPAN_CONCAT2(a, b)
/// Time the enclosing scope under `name` (see support/trace.hpp).
#define MPICP_SPAN(name)                     \
  ::mpicp::support::trace::Span MPICP_SPAN_CONCAT( \
      mpicp_span_, __LINE__)(name)
