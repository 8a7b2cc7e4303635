#include "tune/compiled_bank.hpp"

#include <algorithm>
#include <cmath>

#include "simmpi/coll/decision.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "support/trace.hpp"

namespace mpicp::tune {

namespace metrics = support::metrics;

static_assert(kMaxInstanceFeatures <= ml::kMaxKnnDim,
              "every instance feature vector must fit a compiled KNN model");

namespace {

/// One scratch per thread, reused across queries and banks — the only
/// mutable per-query state of the compiled serving path.
ml::FlatScratch& thread_scratch() {
  thread_local ml::FlatScratch scratch;
  return scratch;
}

}  // namespace

std::optional<double> CompiledBank::predicted_time_us(
    int uid, const bench::Instance& inst) const {
  const auto it = std::ranges::lower_bound(uids_, uid);
  if (it == uids_.end() || *it != uid) return std::nullopt;
  double feat[kMaxInstanceFeatures];
  const std::size_t dim = feature_dim(features_);
  instance_features_into(inst, features_, std::span<double>(feat, dim));
  ml::FlatScratch& scratch = thread_scratch();
  bank_.begin_query({feat, dim}, scratch);
  return bank_.predict_one(static_cast<std::size_t>(it - uids_.begin()),
                           {feat, dim}, scratch);
}

int CompiledBank::argmin_uid(const bench::Instance& inst) const {
  // The bank's own argmin: its tree table or fused GAM pass where it
  // has one, each bit-identical to screening every prediction.
  double feat[kMaxInstanceFeatures];
  const std::size_t dim = feature_dim(features_);
  instance_features_into(inst, features_, std::span<double>(feat, dim));
  std::size_t excluded = 0;
  const int best = bank_.argmin({feat, dim}, thread_scratch(), excluded);
  if (excluded > 0) {
    static metrics::Counter& excluded_total =
        metrics::counter("compiled.select.argmin_excluded");
    excluded_total.inc(excluded);
  }
  return best < 0 ? -1 : uids_[static_cast<std::size_t>(best)];
}

int CompiledBank::select_uid(const bench::Instance& inst) const {
  MPICP_REQUIRE(!uids_.empty(), "serving from an empty compiled bank");
  static metrics::Counter& requests =
      metrics::counter("compiled.select.requests");
  requests.inc();
  const int best_uid = argmin_uid(inst);
  MPICP_REQUIRE(best_uid > 0,
                "no usable model prediction for the instance (use "
                "select_uid_or_default for graceful degradation)");
  return best_uid;
}

int CompiledBank::select_uid_or_default(const bench::Instance& inst,
                                        sim::MpiLib lib,
                                        sim::Collective coll) const {
  static metrics::Counter& requests =
      metrics::counter("compiled.select.requests");
  requests.inc();
  if (!uids_.empty()) {
    const int best_uid = argmin_uid(inst);
    if (best_uid > 0) return best_uid;
  }
  // No usable model: behave like an untuned library run.
  static metrics::Counter& fallbacks =
      metrics::counter("compiled.select.default_fallbacks");
  fallbacks.inc();
  return sim::library_default_uid(lib, coll, inst.nodes * inst.ppn,
                                  inst.msize);
}

int CompiledBank::select_uid_or_invalid(const bench::Instance& inst) const {
  if (uids_.empty()) return -1;
  static metrics::Counter& requests =
      metrics::counter("compiled.select.requests");
  requests.inc();
  return argmin_uid(inst);
}

void CompiledBank::select_grid_into(std::span<const bench::Instance> grid,
                                    std::span<int> out) const {
  MPICP_SPAN("compiled.select_grid");
  MPICP_REQUIRE(!uids_.empty(), "serving from an empty compiled bank");
  MPICP_REQUIRE(out.size() == grid.size(),
                "grid selection buffer size mismatch");
  static metrics::Counter& grid_requests =
      metrics::counter("compiled.select.grid_requests");
  static metrics::Counter& grid_instances =
      metrics::counter("compiled.select.grid_instances");
  grid_requests.inc();
  grid_instances.inc(grid.size());
  support::parallel_for(grid.size(), 64, [&](std::size_t i) {
    out[i] = argmin_uid(grid[i]);
  });
  for (std::size_t i = 0; i < grid.size(); ++i) {
    MPICP_REQUIRE(out[i] > 0,
                  "no usable model prediction for a grid instance (use "
                  "select_uid_or_default for graceful degradation)");
  }
}

std::vector<int> CompiledBank::select_grid(
    std::span<const bench::Instance> grid) const {
  std::vector<int> out(grid.size(), -1);
  select_grid_into(grid, out);
  return out;
}

}  // namespace mpicp::tune
