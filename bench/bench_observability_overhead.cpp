// Observability overhead guard.
//
// The tracing layer promises that a disabled span (MPICP_TRACE=0) costs
// one relaxed atomic load — nothing allocated, nothing recorded. This
// harness (a) measures the per-span cost with tracing disabled and
// enabled, (b) times the full train -> select pipeline both ways, and
// (c) *asserts* that the disabled path stays negligible, so any future
// change that sneaks work onto the disabled path fails the build's
// bench gate instead of taxing every untraced run.
//
// Exits non-zero when the disabled-span cost exceeds the (deliberately
// generous, CI-noise-proof) budget.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "collbench/dataset.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "support/trace.hpp"
#include "tune/selector.hpp"

namespace {

using namespace mpicp;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Synthetic Bcast-shaped dataset (three crossing algorithms), the same
/// shape the fault and golden tests train on.
bench::Dataset make_synthetic(std::uint64_t seed = 1) {
  bench::Dataset ds("synth", sim::MpiLib::kOpenMPI,
                    sim::Collective::kBcast, "Hydra");
  support::Xoshiro256 rng(seed);
  for (const int n : {2, 4, 8, 16, 32}) {
    for (const int ppn : {1, 4, 8}) {
      const double p = n * ppn;
      for (const std::uint64_t m :
           {std::uint64_t{64}, std::uint64_t{4096}, std::uint64_t{65536},
            std::uint64_t{1048576}}) {
        const double md = static_cast<double>(m);
        const double t1 = 10.0 * std::log2(p + 1) + 0.01 * md;
        const double t2 = 2.0 * p + 0.001 * md;
        const double t3 = 50.0 + 0.01 * md + p;
        for (int rep = 0; rep < 3; ++rep) {
          ds.add({1, n, ppn, m, rng.lognormal_median(t1, 0.05)});
          ds.add({2, n, ppn, m, rng.lognormal_median(t2, 0.05)});
          ds.add({3, n, ppn, m, rng.lognormal_median(t3, 0.05)});
        }
      }
    }
  }
  return ds;
}

/// ns per MPICP_SPAN in a tight loop under the current enabled state.
double span_cost_ns(std::size_t iters) {
  const double t0 = now_s();
  for (std::size_t i = 0; i < iters; ++i) {
    MPICP_SPAN("bench.overhead.noop");
  }
  return (now_s() - t0) / static_cast<double>(iters) * 1e9;
}

/// Wall-clock of one full fit (which ends with the bank's one lowering)
/// + selection sweep (served by that compiled bank).
double pipeline_s(const bench::Dataset& ds) {
  const double t0 = now_s();
  tune::Selector selector(tune::SelectorOptions{.learner = "gam"});
  // Timed region: results are deliberately dropped — only the
  // wall-clock of the fit+select sweep is under test here.
  (void)selector.fit(ds, {2, 4, 8, 16, 32});
  for (const int n : {3, 6, 12, 24}) {
    for (const int ppn : {1, 4, 8}) {
      for (const std::uint64_t m :
           {std::uint64_t{64}, std::uint64_t{65536},
            std::uint64_t{1048576}}) {
        (void)selector.select_uid_or_default(
            {n, ppn, m}, sim::MpiLib::kOpenMPI, sim::Collective::kBcast);
      }
    }
  }
  return now_s() - t0;
}

double min_of(const std::vector<double>& v) {
  double best = v.front();
  for (const double x : v) best = std::min(best, x);
  return best;
}

}  // namespace

int main() {
  using support::trace::ScopedEnabled;
  constexpr std::size_t kSpanIters = 2'000'000;
  // Generous bound: the disabled path is one relaxed atomic load
  // (single-digit ns); 150 ns only trips when real work leaks onto it.
  constexpr double kDisabledBudgetNs = 150.0;

  double disabled_ns = 0.0;
  double enabled_ns = 0.0;
  {
    const ScopedEnabled off(false);
    span_cost_ns(kSpanIters);  // warm-up
    disabled_ns = span_cost_ns(kSpanIters);
  }
  {
    const ScopedEnabled on(true);
    enabled_ns = span_cost_ns(kSpanIters / 10);
    support::trace::reset();
  }

  const bench::Dataset ds = make_synthetic();
  std::vector<double> t_off;
  std::vector<double> t_on;
  for (int rep = 0; rep < 3; ++rep) {
    {
      const ScopedEnabled off(false);
      t_off.push_back(pipeline_s(ds));
    }
    {
      const ScopedEnabled on(true);
      t_on.push_back(pipeline_s(ds));
      support::trace::reset();
    }
  }
  support::metrics::Registry::instance().reset();

  std::printf("span cost           : disabled %.1f ns, enabled %.1f ns\n",
              disabled_ns, enabled_ns);
  std::printf("pipeline wall-clock : disabled %.3f s, enabled %.3f s "
              "(best of 3; enabled/disabled = %.3fx)\n",
              min_of(t_off), min_of(t_on), min_of(t_on) / min_of(t_off));

  if (disabled_ns > kDisabledBudgetNs) {
    std::printf("FAIL: disabled-span cost %.1f ns exceeds the %.0f ns "
                "budget — work leaked onto the MPICP_TRACE=0 path\n",
                disabled_ns, kDisabledBudgetNs);
    return 1;
  }
  std::printf("OK: disabled-tracing overhead is negligible\n");
  return 0;
}
