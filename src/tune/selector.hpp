// The paper's algorithm selection strategy (Fig. 3): one regression
// model per algorithm configuration uid, each predicting the running
// time from the instance features (m, n, N); selection evaluates every
// model on an unseen instance and returns the argmin.
//
// One selection engine: fit() and load() end by lowering the bank into
// its compiled form (tune/compiled_bank.hpp), once, and every selection
// (select_uid, select_uid_or_default, predicted_time_us, evaluate,
// registry refits) serves from that lowering. predict_all() is the
// interpreted reference the compiled bank is checked against: each
// model's own Regressor::predict_one, in uid order.
//
// Robustness layer (see README "Fault tolerance & degradation"): fitting
// degrades per uid through a fixed learner chain instead of
// aborting the whole bank, every fit is accounted for in a FitReport,
// and selection excludes non-finite/negative predictions from the
// argmin — falling back to the library's own default decision when no
// model is usable at all.
#pragma once

#include <cstddef>
#include <filesystem>
#include <map>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "collbench/dataset.hpp"
#include "ml/learner.hpp"
#include "simmpi/coll/registry.hpp"

namespace mpicp::tune {

class CompiledBank;

/// Instance feature encoding. The paper's features are message size,
/// number of nodes and processes per node; we use log2(m) for the
/// message size (it spans seven decades) and optionally append the
/// derived total process count p = n * ppn (ablation: bench_ablation).
struct FeatureOptions {
  bool include_total_processes = true;
};

/// Upper bound on feature_dim() across all FeatureOptions — lets the
/// compiled serving path keep the feature vector on the stack.
inline constexpr std::size_t kMaxInstanceFeatures = 4;

std::size_t feature_dim(const FeatureOptions& opts);

std::vector<double> instance_features(const bench::Instance& inst,
                                      const FeatureOptions& opts);

/// Allocation-free variant: writes exactly feature_dim(opts) values
/// into `out` (same values, same arithmetic as instance_features).
void instance_features_into(const bench::Instance& inst,
                            const FeatureOptions& opts,
                            std::span<double> out);

struct SelectorOptions {
  std::string learner = "gam";  ///< ml::make_regressor name
  FeatureOptions features;
};

/// Per-uid account of one Selector::fit — which learner ended up in the
/// bank, how far down the fallback chain it sits, and why.
struct FitOutcome {
  int uid = 0;
  std::size_t rows_total = 0;    ///< training rows bucketed for the uid
  std::size_t rows_dropped = 0;  ///< screened out (non-finite/≤0 timing)
  std::string learner;           ///< learner fitted ("" if unusable)
  int fallback_depth = 0;        ///< 0 = configured, 1 = first fallback…
  std::string error;             ///< first failure message ("" if clean)

  bool usable() const { return !learner.empty(); }
  bool clean() const { return error.empty() && rows_dropped == 0; }
};

struct FitReport {
  std::vector<FitOutcome> outcomes;  ///< ascending uid order

  std::size_t uids_total() const { return outcomes.size(); }
  std::size_t uids_clean() const;
  std::size_t uids_fallback() const;  ///< usable via a fallback learner
  std::size_t uids_unusable() const;  ///< whole chain failed
  std::size_t rows_dropped() const;
  /// True when anything deviated from a clean full-bank fit.
  bool degraded() const;
};

/// Render a fit health report (summary plus one row per non-clean uid).
void print_fit_report(std::ostream& os, const FitReport& report);

class Selector {
 public:
  explicit Selector(SelectorOptions options = {});

  /// Fit one model per uid on the dataset rows whose node count is in
  /// `train_nodes` (raw observations, not aggregates — the models see
  /// the measurement noise, as in the paper). Rows with non-finite or
  /// non-positive timings are screened out per uid; a uid whose fit
  /// fails degrades through the fallback chain (knn, then median), and a
  /// uid with no usable model is left out of the bank. Every deviation is
  /// recorded in the returned FitReport (also retained and queryable via
  /// fit_report()). Throws only when *no* uid is fittable. The report is
  /// [[nodiscard]] deliberately: silently dropping it hides degraded
  /// fits — callers that expect a clean bank should assert
  /// !report.degraded().
  [[nodiscard]] const FitReport& fit(const bench::Dataset& ds,
                                     const std::vector<int>& train_nodes);

  /// Health account of the last fit() on this selector (empty if the
  /// bank was loaded from disk instead).
  [[nodiscard]] const FitReport& fit_report() const { return report_; }

  /// Predicted running time of one configuration on an instance, from
  /// the compiled bank. Throws when no model serves `uid`.
  double predicted_time_us(int uid, const bench::Instance& inst) const;

  /// One model-bank query result.
  struct Prediction {
    int uid = 0;
    double time_us = 0.0;
    /// False when the model produced a non-finite or negative time —
    /// such predictions are excluded from the argmin.
    bool usable = true;
  };

  /// The interpreted reference: the predicted running time of *every*
  /// modeled configuration on an instance, in ascending uid order, from
  /// each model's own Regressor::predict_one (the per-uid models
  /// evaluated in parallel). No selection reads it; tests and benches
  /// check the compiled bank against it.
  [[nodiscard]] std::vector<Prediction> predict_all(
      const bench::Instance& inst) const;

  /// The argmin over all modeled configurations whose prediction is
  /// usable (the algorithm ID the framework would load into the MPI
  /// library), from the compiled bank. Ties resolve to the lowest uid
  /// regardless of thread count. Throws if no prediction is usable —
  /// callers with a library context should prefer select_uid_or_default.
  [[nodiscard]] int select_uid(const bench::Instance& inst) const;

  /// Degradation-aware selection: the argmin when at least one model
  /// prediction is usable, else the library's own default decision
  /// (sim::library_default_uid) — the behaviour an untuned run would
  /// get. Never throws on a fitted or even empty bank.
  [[nodiscard]] int select_uid_or_default(const bench::Instance& inst,
                                          sim::MpiLib lib,
                                          sim::Collective coll) const;

  std::vector<int> uids() const;
  const SelectorOptions& options() const { return options_; }

  /// The compiled (flattened, allocation-free) serving form of the bank
  /// — see tune/compiled_bank.hpp and DESIGN.md §11 — built once, at the
  /// end of fit() or load(). The reference stays valid until the next
  /// fit() or load(); copy the bank to keep it longer. Throws on an
  /// unfitted selector.
  [[nodiscard]] const CompiledBank& compile() const;

  /// Persist the fitted model bank (train offline once, load in the job
  /// prolog — the paper's deployment split between the tuning step and
  /// application start).
  void save(const std::filesystem::path& path) const;
  /// Throws mpicp::Error for a malformed file or a model the lowering
  /// refuses.
  static Selector load(const std::filesystem::path& path);

  Selector(Selector&&) noexcept;
  Selector& operator=(Selector&&) noexcept;
  ~Selector();

 private:
  /// Lower models_ into bank_ (the one lowering of a fit or load).
  void lower();

  SelectorOptions options_;
  std::map<int, std::unique_ptr<ml::Regressor>> models_;
  FitReport report_;
  std::unique_ptr<const CompiledBank> bank_;  ///< lowered models_
};

/// The one usability screen and tie rule of every selection path: the
/// uid of the least usable prediction, the first in `predictions` on
/// ties (ascending uid order, so the lowest uid), or -1 when none is
/// usable. `excluded` receives the number of unusable predictions.
int argmin_usable(std::span<const Selector::Prediction> predictions,
                  std::size_t& excluded);

}  // namespace mpicp::tune
