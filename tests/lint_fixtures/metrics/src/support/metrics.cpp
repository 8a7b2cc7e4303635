// support/metrics.* implements the by-name lookup, so R15 exempts it.

namespace mpicp::support::metrics {

Counter& rows() { return metrics::counter("rows"); }

}  // namespace mpicp::support::metrics
