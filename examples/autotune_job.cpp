// Scenario: auto-tune the collectives of a batch job (§II of the paper).
//
// A user is about to run an application on a known allocation (n nodes x
// ppn processes). Before the job starts, we query the fitted regression
// models for a ladder of message sizes and emit a tuning file the MPI
// library would load — the paper's SLURM-prolog deployment path.
//
// Trained model banks are cached next to the data (--models): the first
// run fits and saves, subsequent runs load in milliseconds — the
// train-once / deploy-per-job split.
//
// Robustness demo: --fault-rate corrupts a copy of the training CSV with
// the seeded fault injector (support/faultinject) before ingest, then
// runs the full tolerant pipeline — quarantined rows, fit fallbacks and
// the final tuning file are all reported instead of the run aborting.
//
// Observability: --metrics-out writes the process metrics registry as
// JSON (rows quarantined, fit fallbacks, predictions served, ...) and
// --trace-out writes the run's per-stage wall-clock span profile (count,
// total, mean, min, max per span path) as a table, and prints it too.
// See README "Observability".
//
// Usage:
//   autotune_job [--nodes=27] [--ppn=16] [--dataset=d1]
//                [--learner=gam] [--out=tuning.conf]
//                [--models=<path>] [--refit]
//                [--fault-rate=0.1] [--fault-seed=42]
//                [--metrics-out=metrics.json] [--trace-out=trace.txt]
#include <cstdio>
#include <fstream>
#include <sstream>

#include "collbench/generator.hpp"
#include "collbench/specs.hpp"
#include "support/cli.hpp"
#include "support/faultinject.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"
#include "tune/config_writer.hpp"
#include "tune/selector.hpp"

int main(int argc, char** argv) {
  using namespace mpicp;
  const support::CliParser cli(argc, argv);
  const int nodes = static_cast<int>(cli.get_int("nodes", 27));
  const int ppn = static_cast<int>(cli.get_int("ppn", 16));
  const std::string dataset = cli.get("dataset", "d1");
  const std::string learner = cli.get("learner", "gam");
  const std::string out = cli.get("out", "tuning.conf");
  const std::string metrics_out = cli.get("metrics-out", "");
  const std::string trace_out = cli.get("trace-out", "");
  const double fault_rate = cli.get_double("fault-rate", 0.0);
  const auto fault_seed =
      static_cast<std::uint64_t>(cli.get_int("fault-seed", 42));

  const bench::DatasetSpec& spec = bench::dataset_spec(dataset);
  std::printf("loading training data %s (%s/%s on %s) ...\n",
              dataset.c_str(), to_string(spec.lib).c_str(),
              to_string(spec.coll).c_str(), spec.machine.c_str());
  bench::Dataset ds =
      bench::load_or_generate(spec, bench::default_data_dir());

  if (fault_rate > 0.0) {
    // Corrupt a copy of the measurement CSV and re-ingest it through the
    // tolerant path — the production shape of a messy campaign.
    const auto csv_path =
        bench::default_data_dir() / (dataset + ".faulty.csv");
    ds.save_csv(csv_path);
    std::ostringstream clean;
    {
      std::ifstream in(csv_path);
      clean << in.rdbuf();
    }
    support::faultinject::CsvFaultLog log;
    const std::string corrupted = support::faultinject::corrupt_csv(
        clean.str(),
        {.fault_rate = fault_rate, .value_column = 4, .seed = fault_seed},
        &log);
    {
      std::ofstream out_csv(csv_path);
      out_csv << corrupted;
    }
    bench::IngestReport ingest;
    ds = bench::Dataset::load_csv_tolerant(csv_path, spec.name, spec.lib,
                                           spec.coll, spec.machine,
                                           &ingest);
    std::filesystem::remove(csv_path);
    std::printf("injected faults into %zu/%zu rows (%zu dropped):\n",
                log.rows_faulted, log.rows_total, log.rows_dropped);
    std::ostringstream report;
    bench::print_ingest_report(report, ingest);
    std::fputs(report.str().c_str(), stdout);
  }

  const bench::NodeSplit split = bench::node_split(spec.machine);
  const std::filesystem::path model_path = cli.get(
      "models", (bench::default_data_dir() /
                 (dataset + "." + learner + ".models"))
                    .string());
  tune::Selector selector(tune::SelectorOptions{.learner = learner});
  // Exact zero: 0.0 is the CLI default, not a computed value.
  // mpicp-lint: allow(no-float-eq)
  if (!cli.get_bool("refit", false) && fault_rate == 0.0 &&
      std::filesystem::exists(model_path)) {
    std::printf("loading trained models from %s ...\n",
                model_path.string().c_str());
    selector = tune::Selector::load(model_path);
  } else {
    if (selector.fit(ds, split.train_full).degraded()) {
      std::printf("model-bank fit degraded:\n");
      std::ostringstream report;
      tune::print_fit_report(report, selector.fit_report());
      std::fputs(report.str().c_str(), stdout);
    }
    // mpicp-lint: allow(no-float-eq) — CLI default, not computed
    if (fault_rate == 0.0) {
      selector.save(model_path);
      std::printf("trained models saved to %s\n",
                  model_path.string().c_str());
    }
  }

  // The paper: querying 10-15 message sizes is enough for a job config.
  const tune::TuningConfig config = tune::build_tuning_config(
      selector, spec.lib, spec.coll, nodes, ppn,
      bench::standard_msizes());
  tune::write_tuning_file(out, config);

  std::printf("tuning file for %dx%d written to %s:\n", nodes, ppn,
              out.c_str());
  for (const tune::TuningRule& rule : config.rules) {
    const auto& cfg = sim::config_by_uid(spec.lib, spec.coll, rule.uid);
    if (rule.msize_upto == ~std::uint64_t{0}) {
      std::printf("  msize >  previous: uid %d (%s)\n", rule.uid,
                  cfg.label().c_str());
    } else {
      std::printf("  msize <= %-9llu: uid %d (%s)\n",
                  static_cast<unsigned long long>(rule.msize_upto),
                  rule.uid, cfg.label().c_str());
    }
  }

  if (!metrics_out.empty()) {
    const auto snapshot = support::metrics::Registry::instance().snapshot();
    std::ofstream os(metrics_out);
    support::metrics::write_json(os, snapshot);
    std::printf("\nmetrics snapshot written to %s:\n", metrics_out.c_str());
    std::ostringstream table;
    support::metrics::print_metrics(table, snapshot);
    std::fputs(table.str().c_str(), stdout);
  }
  if (!trace_out.empty()) {
    std::ostringstream table;
    support::trace::print_profile(table);
    std::ofstream(trace_out) << table.str();
    std::printf("\nspan profile written to %s:\n", trace_out.c_str());
    std::fputs(table.str().c_str(), stdout);
  }
  return 0;
}
