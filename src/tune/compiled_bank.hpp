// Compiled serving form of a fitted Selector (see DESIGN.md §11) — the
// one selection engine.
//
// `Selector::fit` and `Selector::load` end by lowering the per-uid
// `Regressor` bank, once, into an `ml::FlatBank` (contiguous SoA pools,
// no virtual dispatch, no std::map walk) wrapped with the selection
// semantics: ascending-uid argmin, unusable predictions (non-finite /
// negative) excluded, ties to the lowest uid, optional library-default
// fallback. `Selector::compile()` returns that bank; the Selector's own
// select_uid, select_uid_or_default and predicted_time_us forward to it,
// and `tune::evaluate` and registry refits serve from it (a copy, never
// a second lowering). Serving is allocation-free per query — the
// feature vector lives on the stack and all per-query state sits in a
// thread-local `ml::FlatScratch` — and `select_grid` spreads whole
// instance grids with `parallel_for` over the instances.
//
// Predictions are bit-identical, at every MPICP_THREADS, to the
// interpreted reference `Selector::predict_all` (each model's own
// Regressor::predict_one); the tests compare the bank against that
// reference. Selection is counted once, here, under `compiled.*`.
// Every selection runs one argmin, FlatBank::argmin, with no test-only
// branch: tests poison predictions with real models (a negative or
// overflowing GBT, a linear model predicting NaN), never by override.
//
// The bank keeps no selection memo: repeated queries are memoized one
// layer up, in the serving registry's per-thread memo
// (tune/registry.hpp).
//
// The bank is derived, never stored: the persisted artifact is the
// selector file (Selector::save/load), and a server takes its bank from
// `Selector::load(path).compile()`.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "ml/flatten.hpp"
#include "tune/selector.hpp"

namespace mpicp::tune {

class CompiledBank {
 public:
  CompiledBank() = default;

  std::size_t num_models() const { return uids_.size(); }
  const std::vector<int>& uids() const { return uids_; }
  const FeatureOptions& features() const { return features_; }
  const ml::FlatBank& flat() const { return bank_; }

  /// The prediction of `uid`'s model alone, the value the bank's argmin
  /// screens for that model; nullopt when no model serves `uid`.
  [[nodiscard]] std::optional<double> predicted_time_us(
      int uid, const bench::Instance& inst) const;

  /// Argmin over the usable predictions; throws when none is usable
  /// (Selector::select_uid forwards here).
  [[nodiscard]] int select_uid(const bench::Instance& inst) const;

  /// Argmin with graceful degradation to the library default decision
  /// (Selector::select_uid_or_default forwards here).
  [[nodiscard]] int select_uid_or_default(const bench::Instance& inst,
                                          sim::MpiLib lib,
                                          sim::Collective coll) const;

  /// Non-throwing argmin primitive: the selected uid, or -1 when the
  /// bank is empty or no prediction is usable. The serving registry
  /// (tune/registry.hpp) builds its fallback policy on this.
  [[nodiscard]] int select_uid_or_invalid(const bench::Instance& inst) const;

  /// Selection over a whole instance grid, into a caller-owned buffer
  /// of exactly grid.size() entries: a parallel_for over the instances,
  /// each running the per-instance argmin, so it is bit-identical to
  /// select_uid at every thread count. Throws if any instance has no
  /// usable prediction.
  void select_grid_into(std::span<const bench::Instance> grid,
                        std::span<int> out) const;

  /// Allocating convenience wrapper around select_grid_into.
  [[nodiscard]] std::vector<int> select_grid(
      std::span<const bench::Instance> grid) const;

 private:
  friend class Selector;

  /// The argmin on one instance, FlatBank::argmin — every selection's
  /// one path; -1 when no prediction is usable. Allocation-free once its
  /// thread-local scratch has warmed up.
  int argmin_uid(const bench::Instance& inst) const;

  FeatureOptions features_;
  std::vector<int> uids_;  ///< ascending; parallel to bank_ models
  ml::FlatBank bank_;
};

}  // namespace mpicp::tune
