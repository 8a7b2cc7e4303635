// Drift detection for the continuous retraining pipeline (DESIGN.md
// §13).
//
// A served bank encodes one machine regime; when the machine drifts
// (contention patterns shift, a preset swap mid-stream in the simulated
// campaigns), the signed relative prediction error of the live bank
// stops hovering around zero. Two complementary detectors watch it:
//
//  * per-uid EWMA of the *signed* relative error — catches a sustained
//    bias on any single algorithm's model, which is what a systematic
//    regime factor change looks like;
//  * a Page–Hinkley cumulative test on the *absolute* relative error —
//    catches a broad accuracy collapse even when per-uid biases cancel.
//
// Both are deterministic: the thresholds are fixed constants (drift.cpp)
// and the statistics are pure functions of the observation sequence, so
// a seeded stream always alarms at the same observation. The alarm is
// sticky until reset() — the pipeline resets after a successful swap,
// giving the refit bank a fresh baseline.
#pragma once

#include <cstddef>
#include <map>

namespace mpicp::tune {

/// Which statistic crossed its threshold on an observation.
enum class DriftSignal {
  kNone,
  kEwma,         ///< a per-uid signed-error EWMA left its band
  kPageHinkley,  ///< the cumulative absolute-error test alarmed
};

const char* to_string(DriftSignal signal);

class DriftDetector {
 public:
  /// Feed one signed relative prediction error — (measured - predicted)
  /// / predicted — for the algorithm `uid`. Returns the signal that
  /// first crossed its threshold on this observation (kNone while the
  /// stream looks stationary). Once alarmed the detector stays alarmed
  /// (drifted() == true) until reset().
  DriftSignal observe(int uid, double rel_error);

  bool drifted() const { return drifted_; }

  /// Fresh baseline (after a successful refit-and-swap): clears the
  /// alarm, every EWMA and the Page–Hinkley accumulators.
  void reset();

  std::size_t samples() const { return samples_; }
  /// Largest |EWMA| among warmed-up uids (0 when none) — exposed for
  /// stats and the stationarity property test.
  double max_abs_ewma() const;
  /// Current Page–Hinkley statistic m_t - min(m_t).
  double ph_statistic() const { return ph_cum_ - ph_min_; }

 private:
  struct Ewma {
    double value = 0.0;
    std::size_t count = 0;
  };

  std::map<int, Ewma> per_uid_;
  std::size_t samples_ = 0;
  // Page–Hinkley on |rel_error|: running mean, cumulative deviation and
  // its minimum.
  double ph_mean_ = 0.0;
  double ph_cum_ = 0.0;
  double ph_min_ = 0.0;
  bool drifted_ = false;
};

}  // namespace mpicp::tune
