#include "tune/stream.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "support/metrics.hpp"
#include "support/str.hpp"
#include "support/trace.hpp"

namespace mpicp::tune {

namespace metrics = support::metrics;

namespace {

/// Holdout rows whose uid the bank cannot predict score this relative
/// error — large enough that a bank missing live algorithms always
/// loses to one that serves them.
constexpr double kUnusablePenalty = 10.0;

}  // namespace

StreamPipeline::StreamPipeline(BankRegistry& registry,
                               StreamOptions options)
    : registry_(registry), options_(std::move(options)) {}

StreamPipeline::RowOutcome StreamPipeline::push_row(
    const BankKey& key, const std::string& row_text) {
  // Blank rows (e.g. a dropped-row fault) are not rows at all — the
  // file-ingest path skips blank lines without accounting, so do we.
  const std::string_view trimmed = support::trim(row_text);
  if (trimmed.empty()) return {};

  std::vector<std::string_view> cells;
  support::split_views(trimmed, ',', cells);
  const bench::ClassifiedRow row = bench::classify_row(cells, {});
  const support::MutexLock lock(mu_);
  return push_locked(key, row.record, row.reason);
}

StreamPipeline::RowOutcome StreamPipeline::push(const BankKey& key,
                                                const bench::Record& rec) {
  const support::MutexLock lock(mu_);
  return push_locked(key, rec, bench::validate_record(rec));
}

StreamPipeline::RowOutcome StreamPipeline::push_locked(
    const BankKey& key, const bench::Record& rec,
    const std::string& reason) {
  MPICP_SPAN("stream.push");
  // The same screen as Dataset::load_csv_tolerant — a corrupted value
  // never reaches the window, the detector or a refit.
  RowOutcome out;
  if (!admit_locked(reason, out)) return out;

  KeyState& state = states_[key];
  ingest(state, rec);
  out.ingested = true;

  observe_error(state, key, rec, &out);
  maybe_refit(state, key, &out);
  return out;
}

bool StreamPipeline::admit_locked(const std::string& reason,
                                  RowOutcome& out) {
  static metrics::Counter& seen = metrics::counter("stream.rows_seen");
  static metrics::Counter& quarantined =
      metrics::counter("stream.rows_quarantined");
  ++stats_.rows_seen;
  seen.inc();
  if (reason.empty()) return true;
  ++stats_.rows_quarantined;
  quarantined.inc();
  static metrics::Family<metrics::Counter> reasons(
      "stream.quarantine.", bench::kQuarantineReasons);
  ++stats_.quarantine_reasons[reason];
  reasons.get(reason).inc();
  out.quarantine_reason = reason;
  return false;
}

void StreamPipeline::ingest(KeyState& state, const bench::Record& rec) {
  static metrics::Counter& ingested =
      metrics::counter("stream.rows_ingested");
  static metrics::Counter& evictions =
      metrics::counter("stream.window_evictions");
  ++stats_.rows_ingested;
  ingested.inc();
  ++state.accepted;
  if (state.accepted % kHoldoutEvery == 0) {
    state.holdout.push_back(rec);
    while (state.holdout.size() > kWindowCapacity / kHoldoutEvery) {
      state.holdout.pop_front();
      ++stats_.window_evictions;
      evictions.inc();
    }
  } else {
    state.window.push_back(rec);
    while (state.window.size() > kWindowCapacity) {
      state.window.pop_front();
      ++stats_.window_evictions;
      evictions.inc();
    }
  }
}

void StreamPipeline::observe_error(KeyState& state, const BankKey& key,
                                   const bench::Record& rec,
                                   RowOutcome* out) {
  const std::shared_ptr<const CompiledBank> bank = registry_.lookup(key);
  if (!bank) return;  // nothing served yet — nothing to drift from

  const std::optional<double> predicted =
      bank->predicted_time_us(rec.uid, {rec.nodes, rec.ppn, rec.msize});
  // No reliable error signal for this row.
  if (!predicted || !(std::isfinite(*predicted) && *predicted > 0.0)) return;

  const double rel = (rec.time_us - *predicted) / *predicted;
  const DriftSignal signal = state.detector.observe(rec.uid, rel);
  if (signal == DriftSignal::kNone) return;

  // First alarm since the last swap: the windowed rows straddle the old
  // and new regime, so training on them would smear the refit. Discard
  // the stale window and re-accumulate from post-drift rows only.
  static metrics::Counter& detected = metrics::counter("drift.detected");
  ++stats_.drift_detections;
  detected.inc();
  stats_.detection_rows.push_back(stats_.rows_seen);
  stats_.rows_discarded_on_drift +=
      state.window.size() + state.holdout.size();
  static metrics::Counter& discarded =
      metrics::counter("stream.rows_discarded_on_drift");
  discarded.inc(state.window.size() + state.holdout.size());
  state.window.clear();
  state.holdout.clear();
  state.pending_refit = true;
  out->drift = signal;
}

void StreamPipeline::maybe_refit(KeyState& state, const BankKey& key,
                                 RowOutcome* out) {
  const bool bootstrap = registry_.version(key) == 0;
  if (!bootstrap && !state.pending_refit) return;
  if (state.window.size() + state.holdout.size() < kMinRefitRows) {
    return;  // keep accumulating
  }
  if (state.accepted < state.backoff_until) {
    // A refit is owed but a recent failure put this key in backoff.
    static metrics::Counter& skips = metrics::counter("stream.backoff_skips");
    ++stats_.backoff_skips;
    skips.inc();
    return;
  }
  if (state.attempted_before &&
      state.accepted - state.last_attempt_at < kRefitCooldown) {
    return;  // base rate limit between attempts
  }

  MPICP_SPAN("stream.refit");
  static metrics::Counter& attempts =
      metrics::counter("stream.refits_attempted");
  ++stats_.refits_attempted;
  attempts.inc();
  state.attempted_before = true;
  state.last_attempt_at = state.accepted;
  out->refit_attempted = true;

  bench::Dataset ds("stream:" + to_string(key), options_.lib,
                    key.collective, key.machine);
  for (const bench::Record& r : state.window) ds.add(r);

  const BankRegistry::RefitOutcome outcome = registry_.refit_and_publish(
      key, ds, ds.node_counts(), options_.selector,
      [this, &state](const CompiledBank& candidate,
                     const std::shared_ptr<const CompiledBank>& incumbent) {
        if (state.holdout.empty()) return std::string();
        // Bootstrap: serving something beats serving nothing; the drift
        // loop replaces a weak first bank as soon as errors show it.
        if (!incumbent) return std::string();
        const double cand_err = holdout_error(state, candidate);
        const double inc_err = holdout_error(state, *incumbent);
        if (cand_err > inc_err * kAcceptTolerance) {
          return "candidate holdout error " +
                 support::format_double(cand_err, 6) +
                 " worse than incumbent " +
                 support::format_double(inc_err, 6);
        }
        return std::string();
      });

  if (outcome.published) {
    static metrics::Counter& published =
        metrics::counter("stream.refits_published");
    ++stats_.refits_published;
    published.inc();
    state.pending_refit = false;
    state.detector.reset();  // fresh baseline against the new bank
    state.backoff = 0;
    state.backoff_until = 0;
    out->published = true;
    return;
  }

  // Faulted fit or validator rejection: the incumbent keeps serving and
  // the key backs off exponentially before the next attempt.
  static metrics::Counter& rejected =
      metrics::counter("drift.refit_rejected");
  rejected.inc();
  if (outcome.rejected) {
    ++stats_.refits_rejected;
  } else {
    ++stats_.refits_failed;
  }
  out->rejected = true;
  state.backoff =
      state.backoff == 0
          ? kBackoffInitial
          : std::min(state.backoff * kBackoffMultiplier, kBackoffMax);
  state.backoff_until = state.accepted + state.backoff;
}

double StreamPipeline::holdout_error(const KeyState& state,
                                     const CompiledBank& bank) const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const bench::Record& r : state.holdout) {
    const std::optional<double> p =
        bank.predicted_time_us(r.uid, {r.nodes, r.ppn, r.msize});
    double err = kUnusablePenalty;
    if (p && std::isfinite(*p) && *p > 0.0) {
      err = std::abs(*p - r.time_us) / r.time_us;
    }
    sum += err;
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

StreamPipeline::Stats StreamPipeline::stats() const {
  const support::MutexLock lock(mu_);
  return stats_;
}

std::size_t StreamPipeline::window_size(const BankKey& key) const {
  const support::MutexLock lock(mu_);
  const auto it = states_.find(key);
  return it == states_.end() ? 0 : it->second.window.size();
}

std::size_t StreamPipeline::holdout_size(const BankKey& key) const {
  const support::MutexLock lock(mu_);
  const auto it = states_.find(key);
  return it == states_.end() ? 0 : it->second.holdout.size();
}

}  // namespace mpicp::tune
