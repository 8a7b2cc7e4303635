// R15 is scoped to src/ — by-name lookups in tests stay silent.

void count_one() { mpicp::support::metrics::counter("test.calls").inc(); }
