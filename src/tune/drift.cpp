#include "tune/drift.hpp"

#include <algorithm>
#include <cmath>

#include "support/trace.hpp"

namespace mpicp::tune {

namespace {

constexpr double kEwmaAlpha = 0.1;       ///< EWMA smoothing factor
/// Alarm when any warmed-up |per-uid EWMA| exceeds this.
constexpr double kEwmaThreshold = 0.45;
/// No alarm before this many total observations (warm-up: the first
/// errors after a refit reflect holdout noise, not drift).
constexpr std::size_t kMinSamples = 48;
/// A uid's EWMA only participates once it has this many observations
/// (a zero-initialized EWMA needs ~2/alpha samples to reach level).
constexpr std::size_t kMinUidSamples = 16;
constexpr double kPhDelta = 0.05;   ///< Page–Hinkley drift allowance
constexpr double kPhLambda = 12.0;  ///< Page–Hinkley alarm threshold
/// Winsorize |rel_error| at this value before feeding either statistic:
/// a single straggler spike (2-3x the true time) must not dominate an
/// EWMA or dump a huge Page–Hinkley increment.
constexpr double kClamp = 3.0;
static_assert(kEwmaAlpha > 0.0 && kEwmaAlpha <= 1.0);
static_assert(kEwmaThreshold > 0.0 && kPhLambda > 0.0 && kClamp > 0.0);

}  // namespace

const char* to_string(DriftSignal signal) {
  switch (signal) {
    case DriftSignal::kNone: return "none";
    case DriftSignal::kEwma: return "ewma";
    case DriftSignal::kPageHinkley: return "page-hinkley";
  }
  return "unknown";
}

DriftSignal DriftDetector::observe(int uid, double rel_error) {
  MPICP_SPAN("drift.observe");
  if (!std::isfinite(rel_error)) return DriftSignal::kNone;
  rel_error = std::clamp(rel_error, -kClamp, kClamp);
  ++samples_;

  // Per-uid EWMA of the signed error. Zero-initialized and always
  // blended: early observations pull the statistic toward level
  // gradually, so one outlier among the first samples cannot start the
  // EWMA above threshold.
  Ewma& e = per_uid_[uid];
  ++e.count;
  e.value = kEwmaAlpha * rel_error + (1.0 - kEwmaAlpha) * e.value;

  // Page–Hinkley on the absolute error: track the cumulative deviation
  // of |x_t| from its running mean (minus the drift allowance delta) and
  // alarm when it climbs kPhLambda above its own minimum.
  const double x = std::abs(rel_error);
  ph_mean_ += (x - ph_mean_) / static_cast<double>(samples_);
  ph_cum_ += x - ph_mean_ - kPhDelta;
  if (ph_cum_ < ph_min_) ph_min_ = ph_cum_;

  if (samples_ < kMinSamples) return DriftSignal::kNone;

  const bool was_drifted = drifted_;
  if (e.count >= kMinUidSamples && std::abs(e.value) > kEwmaThreshold) {
    drifted_ = true;
    return was_drifted ? DriftSignal::kNone : DriftSignal::kEwma;
  }
  if (ph_statistic() > kPhLambda) {
    drifted_ = true;
    return was_drifted ? DriftSignal::kNone : DriftSignal::kPageHinkley;
  }
  return DriftSignal::kNone;
}

void DriftDetector::reset() {
  per_uid_.clear();
  samples_ = 0;
  ph_mean_ = 0.0;
  ph_cum_ = 0.0;
  ph_min_ = 0.0;
  drifted_ = false;
}

double DriftDetector::max_abs_ewma() const {
  double best = 0.0;
  for (const auto& [uid, e] : per_uid_) {
    if (e.count < kMinUidSamples) continue;
    best = std::max(best, std::abs(e.value));
  }
  return best;
}

}  // namespace mpicp::tune
