// By-name metric lookups per call (findings: lines 8, 11, 14, 17).

namespace mpicp::bench {

namespace metrics = support::metrics;

void ingest(int rows) {
  auto& seen = metrics::counter("ingest.rows_seen");  // kept in a local
  seen.inc(rows);
  auto& dropped =  // spread over two lines
      metrics::histogram("ingest.rows_dropped");
  dropped.observe(rows);
  static int calls = 0;
  metrics::gauge("ingest.calls").set(++calls);  // after a static
  // The closure is static, but its body looks the name up per call.
  static const auto lookup = [](const char* name) {
    return &metrics::counter(name);
  };
  lookup("ingest.rows_late")->inc();
}

}  // namespace mpicp::bench
