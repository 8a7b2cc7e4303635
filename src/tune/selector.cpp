#include "tune/selector.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <optional>

#include <chrono>

#include "ml/io.hpp"
#include "tune/compiled_bank.hpp"
#include "support/error.hpp"
#include "support/faultinject.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "support/table.hpp"
#include "support/trace.hpp"

namespace mpicp::tune {

namespace metrics = support::metrics;

namespace {

/// Learners tried, in order, for a uid whose configured-learner fit
/// failed: a structurally different learner first (knn has no normal
/// equations to go singular), then the constant median predictor, which
/// fits whenever at least one finite observation exists.
constexpr std::array<const char*, 2> kFallbackLearners = {"knn", "median"};

}  // namespace

std::size_t feature_dim(const FeatureOptions& opts) {
  return opts.include_total_processes ? 4 : 3;
}

void instance_features_into(const bench::Instance& inst,
                            const FeatureOptions& opts,
                            std::span<double> out) {
  MPICP_ASSERT(out.size() == feature_dim(opts),
               "feature buffer size mismatch");
  out[0] =
      std::log2(static_cast<double>(std::max<std::uint64_t>(inst.msize, 1)));
  out[1] = static_cast<double>(inst.nodes);
  out[2] = static_cast<double>(inst.ppn);
  if (opts.include_total_processes) {
    out[3] = static_cast<double>(inst.nodes) * inst.ppn;
  }
}

std::vector<double> instance_features(const bench::Instance& inst,
                                      const FeatureOptions& opts) {
  std::vector<double> x(feature_dim(opts));
  instance_features_into(inst, opts, x);
  return x;
}

std::size_t FitReport::uids_clean() const {
  return static_cast<std::size_t>(
      std::count_if(outcomes.begin(), outcomes.end(),
                    [](const FitOutcome& o) {
                      return o.usable() && o.fallback_depth == 0;
                    }));
}

std::size_t FitReport::uids_fallback() const {
  return static_cast<std::size_t>(
      std::count_if(outcomes.begin(), outcomes.end(),
                    [](const FitOutcome& o) {
                      return o.usable() && o.fallback_depth > 0;
                    }));
}

std::size_t FitReport::uids_unusable() const {
  return static_cast<std::size_t>(
      std::count_if(outcomes.begin(), outcomes.end(),
                    [](const FitOutcome& o) { return !o.usable(); }));
}

std::size_t FitReport::rows_dropped() const {
  std::size_t n = 0;
  for (const FitOutcome& o : outcomes) n += o.rows_dropped;
  return n;
}

bool FitReport::degraded() const {
  return std::any_of(outcomes.begin(), outcomes.end(),
                     [](const FitOutcome& o) { return !o.clean(); });
}

void print_fit_report(std::ostream& os, const FitReport& report) {
  support::TextTable summary({"fit", "uids"});
  summary.add_row({"total", std::to_string(report.uids_total())});
  summary.add_row({"clean", std::to_string(report.uids_clean())});
  summary.add_row({"fallback", std::to_string(report.uids_fallback())});
  summary.add_row({"unusable", std::to_string(report.uids_unusable())});
  summary.add_row(
      {"rows dropped", std::to_string(report.rows_dropped())});
  summary.print(os);
  if (!report.degraded()) return;
  support::TextTable detail(
      {"uid", "rows", "dropped", "learner", "depth", "first error"});
  for (const FitOutcome& o : report.outcomes) {
    if (o.clean()) continue;
    detail.add_row({std::to_string(o.uid), std::to_string(o.rows_total),
                    std::to_string(o.rows_dropped),
                    o.usable() ? o.learner : "(none)",
                    std::to_string(o.fallback_depth), o.error});
  }
  detail.print(os);
}

Selector::Selector(SelectorOptions options)
    : options_(std::move(options)),
      bank_(std::make_unique<const CompiledBank>()) {}

Selector::Selector(Selector&&) noexcept = default;
Selector& Selector::operator=(Selector&&) noexcept = default;
Selector::~Selector() = default;

const FitReport& Selector::fit(const bench::Dataset& ds,
                               const std::vector<int>& train_nodes) {
  MPICP_SPAN("selector.fit");
  MPICP_REQUIRE(!train_nodes.empty(), "empty training node set");
  models_.clear();
  report_ = FitReport{};
  bank_ = std::make_unique<const CompiledBank>();

  // Bucket the raw observations per uid. Membership is tested against a
  // sorted copy of the node set: one binary search per record instead of
  // a linear scan (the O(records × nodes) hot spot on large campaigns).
  std::vector<int> sorted_nodes(train_nodes);
  std::sort(sorted_nodes.begin(), sorted_nodes.end());
  std::map<int, std::vector<const bench::Record*>> rows;
  for (const bench::Record& rec : ds.records()) {
    if (!std::binary_search(sorted_nodes.begin(), sorted_nodes.end(),
                            rec.nodes)) {
      continue;
    }
    // mpicp-lint: allow(no-alloc-in-loop) per-uid buckets grow across the
    // whole ingest pass; their sizes are unknown until it finishes.
    rows[rec.uid].push_back(&rec);
  }
  MPICP_REQUIRE(!rows.empty(), "no training rows for the given node set");

  // The degradation ladder: configured learner first, then the fallback
  // chain (skipping duplicates of the configured learner).
  std::vector<std::string> chain = {options_.learner};
  chain.reserve(1 + kFallbackLearners.size());
  for (const char* name : kFallbackLearners) {
    if (std::find(chain.begin(), chain.end(), name) == chain.end()) {
      chain.emplace_back(name);
    }
  }

  // One independent fit per uid — the embarrassingly parallel half of
  // the paper's design. Each task owns its learner instance and writes
  // into a preallocated slot, so the resulting bank is bit-identical
  // regardless of the thread count. A fit failure stays inside its task
  // (degrading through the chain) instead of riding the parallel_for
  // exception path out of the whole bank.
  std::vector<std::pair<int, const std::vector<const bench::Record*>*>>
      tasks;
  tasks.reserve(rows.size());
  for (const auto& [uid, recs] : rows) tasks.emplace_back(uid, &recs);

  const std::size_t dim = feature_dim(options_.features);
  std::vector<std::unique_ptr<ml::Regressor>> fitted(tasks.size());
  std::vector<FitOutcome> outcomes(tasks.size());
  support::parallel_for(tasks.size(), 1, [&](std::size_t t) {
    MPICP_SPAN("fit.uid");
    const int uid = tasks[t].first;
    const auto& recs = *tasks[t].second;
    FitOutcome& outcome = outcomes[t];
    outcome.uid = uid;
    outcome.rows_total = recs.size();

    // Screen the rows no learner accepts (corrupt in-memory datasets:
    // NaN / negative / zero timings) before they poison a fit.
    std::vector<const bench::Record*> valid;
    valid.reserve(recs.size());
    for (const bench::Record* rec : recs) {
      if (std::isfinite(rec->time_us) && rec->time_us > 0.0) {
        valid.push_back(rec);
      }
    }
    outcome.rows_dropped = recs.size() - valid.size();
    if (valid.empty()) {
      outcome.error = "no valid training rows";
      return;
    }

    ml::Matrix x(valid.size(), dim);
    // mpicp-lint: allow(no-alloc-in-loop) per-uid training buffers; the
    // allocation is amortized by the fit it feeds.
    std::vector<double> y(valid.size());
    for (std::size_t i = 0; i < valid.size(); ++i) {
      instance_features_into(
          {valid[i]->nodes, valid[i]->ppn, valid[i]->msize},
          options_.features, x.row(i));
      y[i] = valid[i]->time_us;
    }
    for (std::size_t level = 0; level < chain.size(); ++level) {
      try {
        if (support::faultinject::consume_fit_failure(uid)) {
          MPICP_RAISE_ERROR("fault injection: forced fit failure");
        }
        auto model = ml::make_regressor(chain[level]);
        const auto t0 = std::chrono::steady_clock::now();
        model->fit(x, y);
        const auto dt = std::chrono::steady_clock::now() - t0;
        static metrics::Family<metrics::Histogram> fit_time_us(
            "fit.time_us.", ml::kLearnerNames);
        fit_time_us.get(chain[level])
            .observe(std::chrono::duration<double, std::micro>(dt).count());
        fitted[t] = std::move(model);
        outcome.learner = chain[level];
        outcome.fallback_depth = static_cast<int>(level);
        return;
      } catch (const std::exception& e) {
        if (outcome.error.empty()) outcome.error = e.what();
      }
    }
    // Whole chain failed: the uid stays out of the bank, recorded above.
  });
  report_.outcomes.reserve(tasks.size());
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    report_.outcomes.push_back(std::move(outcomes[t]));
    if (fitted[t]) {
      models_.emplace(tasks[t].first, std::move(fitted[t]));
    }
  }
  // The registry mirrors the FitReport exactly (the golden test pins
  // this reconciliation), accumulated once on the calling thread so the
  // totals are independent of the thread count.
  static metrics::Counter& calls = metrics::counter("fit.calls");
  static metrics::Counter& uids_total = metrics::counter("fit.uids_total");
  static metrics::Counter& uids_clean = metrics::counter("fit.uids_clean");
  static metrics::Counter& uids_fallback =
      metrics::counter("fit.uids_fallback");
  static metrics::Counter& uids_unusable =
      metrics::counter("fit.uids_unusable");
  static metrics::Counter& rows_dropped =
      metrics::counter("fit.rows_dropped");
  calls.inc();
  uids_total.inc(report_.uids_total());
  uids_clean.inc(report_.uids_clean());
  uids_fallback.inc(report_.uids_fallback());
  uids_unusable.inc(report_.uids_unusable());
  rows_dropped.inc(report_.rows_dropped());
  for (const FitOutcome& o : report_.outcomes) {
    if (o.usable()) {
      static metrics::Histogram& fallback_depth =
          metrics::histogram("fit.fallback_depth");
      fallback_depth.observe(o.fallback_depth);
    }
  }
  MPICP_REQUIRE(!models_.empty(),
                "no uid could be fitted by any learner in the chain");
  lower();
  return report_;
}

double Selector::predicted_time_us(int uid,
                                   const bench::Instance& inst) const {
  const std::optional<double> t = bank_->predicted_time_us(uid, inst);
  MPICP_REQUIRE(t.has_value(), "no model for uid " + std::to_string(uid));
  return *t;
}

std::vector<Selector::Prediction> Selector::predict_all(
    const bench::Instance& inst) const {
  MPICP_SPAN("selector.predict_all");
  MPICP_REQUIRE(!models_.empty(), "selector has not been fitted");
  const auto feat = instance_features(inst, options_.features);
  std::vector<Prediction> out;
  std::vector<const ml::Regressor*> bank;
  out.reserve(models_.size());
  bank.reserve(models_.size());
  for (const auto& [uid, model] : models_) {
    out.push_back({uid, 0.0, true});
    bank.push_back(model.get());
  }
  // Single predictions are cheap; chunk so the pool is only engaged for
  // banks large enough to amortize the dispatch.
  support::parallel_for(bank.size(), 16, [&](std::size_t i) {
    const double t = bank[i]->predict_one(feat);
    out[i].time_us = t;
    out[i].usable = std::isfinite(t) && t >= 0.0;
  });
  return out;
}

int argmin_usable(std::span<const Selector::Prediction> predictions,
                  std::size_t& excluded) {
  // Unusable predictions (NaN/inf/negative) never win the argmin —
  // comparing against them would poison the result.
  int best_uid = -1;
  double best_time = 0.0;
  excluded = 0;
  for (const Selector::Prediction& p : predictions) {
    if (!p.usable) {
      ++excluded;
      continue;
    }
    if (best_uid < 0 || p.time_us < best_time) {
      best_uid = p.uid;
      best_time = p.time_us;
    }
  }
  return best_uid;
}

int Selector::select_uid(const bench::Instance& inst) const {
  return bank_->select_uid(inst);
}

int Selector::select_uid_or_default(const bench::Instance& inst,
                                    sim::MpiLib lib,
                                    sim::Collective coll) const {
  return bank_->select_uid_or_default(inst, lib, coll);
}

void Selector::save(const std::filesystem::path& path) const {
  MPICP_REQUIRE(!models_.empty(), "saving an unfitted selector");
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  std::ofstream os(path);
  if (!os) MPICP_RAISE_ERROR("cannot open " + path.string() + " for writing");
  os << "mpicp-selector 1\n";
  os << options_.learner << '\n';
  os << (options_.features.include_total_processes ? 1 : 0) << '\n';
  os << models_.size() << '\n';
  for (const auto& [uid, model] : models_) {
    os << uid << '\n';
    ml::save_regressor(os, *model);
  }
  if (!os) MPICP_RAISE_ERROR("failed writing selector to " + path.string());
}

Selector Selector::load(const std::filesystem::path& path) {
  std::ifstream is(path);
  if (!is) MPICP_RAISE_PARSE("cannot open selector file " + path.string());
  ml::io::expect_tag(is, "mpicp-selector");
  const int version = ml::io::read_value<int>(is);
  MPICP_CHECK_PARSE(version == 1, "unsupported selector file version");
  SelectorOptions options;
  is >> options.learner;
  options.features.include_total_processes =
      ml::io::read_value<int>(is) != 0;
  Selector selector(options);
  const std::size_t width = feature_dim(options.features);
  const auto count = ml::io::read_value<std::size_t>(is);
  MPICP_CHECK_PARSE(count >= 1 && count < 100000,
                    "implausible selector model count");
  for (std::size_t i = 0; i < count; ++i) {
    // A uid <= 0 could never be selected (every argmin requires a
    // positive uid), and a repeated one would silently drop a model.
    const int uid = ml::io::read_value<int>(is);
    MPICP_CHECK_PARSE(uid > 0, "non-positive uid in selector file");
    MPICP_CHECK_PARSE(!selector.models_.contains(uid),
                      "repeated uid in selector file");
    auto model = ml::load_regressor(is);
    // A model that reads another feature count would read past (or
    // short of) every feature vector this selector builds.
    MPICP_CHECK_PARSE(model->accepts_width(width),
                      "model for uid " + std::to_string(uid) +
                          " does not read " + std::to_string(width) +
                          " features");
    selector.models_.emplace(uid, std::move(model));
  }
  selector.lower();
  return selector;
}

std::vector<int> Selector::uids() const {
  return bank_->uids();
}

const CompiledBank& Selector::compile() const {
  MPICP_REQUIRE(!models_.empty(), "compiling an unfitted selector");
  return *bank_;
}

void Selector::lower() {
  MPICP_SPAN("selector.compile");
  CompiledBank bank;
  bank.features_ = options_.features;
  bank.uids_.reserve(models_.size());
  std::vector<const ml::Regressor*> regressors;
  regressors.reserve(models_.size());
  for (const auto& [uid, model] : models_) {
    bank.uids_.push_back(uid);
    regressors.push_back(model.get());
  }
  bank.bank_ = ml::FlatBank(regressors);
  static metrics::Counter& calls = metrics::counter("compiled.compile.calls");
  static metrics::Counter& compiled_models =
      metrics::counter("compiled.compile.models");
  calls.inc();
  compiled_models.inc(models_.size());
  bank_ = std::make_unique<const CompiledBank>(std::move(bank));
}

}  // namespace mpicp::tune
