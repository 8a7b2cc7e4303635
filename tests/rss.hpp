// Resident-set probe shared by the suites that bound a code path's
// memory growth (test_observability, test_serialization).
#pragma once

#include <fstream>
#include <string>

namespace mpicp::rss {

/// This process's resident set size in kB (VmRSS), or -1 if unreadable.
inline long kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stol(line.substr(6));
  }
  return -1;
}

}  // namespace mpicp::rss
