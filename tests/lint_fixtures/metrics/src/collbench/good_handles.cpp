// Accepted: static handles in every spelling and scope, the allow()
// escape hatch, and a member that is merely named `counter`.

namespace mpicp::bench {

namespace metrics = support::metrics;

static metrics::Counter& files = metrics::counter("ingest.files");

void ingest(Stats& stats, int rows) {
  static metrics::Counter& seen = metrics::counter("ingest.rows_seen");
  static metrics::Histogram& sizes =
      support::metrics::histogram("ingest.row_bytes");
  static metrics::Gauge& window(metrics::gauge("ingest.window"));
  // mpicp-lint: allow(metrics-static-handle)
  metrics::counter("ingest.rare_path").inc();
  stats.counter(rows);
}

}  // namespace mpicp::bench
