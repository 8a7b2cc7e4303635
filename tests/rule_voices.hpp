// The four voices of a distilled rule table, shared by the rule-table
// suites (test_ruletable, test_properties): a reference walk of the
// stored split thresholds, the table itself, the same table saved and
// loaded, and its to_c_code output compiled and executed. All four must
// pick the same uid on every probe.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "collbench/dataset.hpp"
#include "tune/ruletable.hpp"

namespace mpicp::rule_voices {

/// The reference: the split search's own comparison,
/// `feature_of(inst, f) < threshold`, walked over the stored node pool
/// (no integer bounds involved).
inline int reference_uid(const tune::RuleTable& table,
                         const bench::Instance& inst) {
  const std::vector<tune::RuleTable::Node>& nodes = table.nodes();
  int cur = 0;
  while (nodes[cur].feature >= 0) {
    const tune::RuleTable::Node& n = nodes[cur];
    cur = tune::feature_of(inst, n.feature) < n.threshold ? n.left : n.right;
  }
  return nodes[cur].left;
}

/// A per-process scratch path under the system temp directory.
inline std::filesystem::path scratch_path(const std::string& name) {
  return std::filesystem::temp_directory_path() /
         ("mpicp_" + std::to_string(::getpid()) + "_" + name);
}

/// Compile `to_c_code` output with the system C compiler and execute it
/// on `instances` via a scanf/printf harness; nullopt when no working
/// compiler is on PATH (the caller skips, never passes vacuously).
inline std::optional<std::vector<int>> run_generated_c(
    const std::string& c_source, const std::string& function_name,
    const std::vector<bench::Instance>& instances, const std::string& tag) {
  namespace fs = std::filesystem;
  const fs::path dir = scratch_path("rulec_" + tag);
  fs::create_directories(dir);
  const fs::path src = dir / "rules.c";
  const fs::path bin = dir / "rules_bin";
  const fs::path input = dir / "input.txt";
  const fs::path output = dir / "output.txt";
  {
    std::ofstream os(src);
    os << "#include <stdio.h>\n\n"
       << c_source << "\n"
       << "int main(void) {\n"
       << "  unsigned long long msize; int nodes, ppn;\n"
       << "  while (scanf(\"%llu %d %d\", &msize, &nodes, &ppn) == 3) {\n"
       << "    printf(\"%d\\n\", " << function_name
       << "(msize, nodes, ppn));\n"
       << "  }\n"
       << "  return 0;\n"
       << "}\n";
  }
  {
    std::ofstream os(input);
    for (const bench::Instance& inst : instances) {
      os << inst.msize << ' ' << inst.nodes << ' ' << inst.ppn << '\n';
    }
  }
  const std::string compile = "cc -O1 -o '" + bin.string() + "' '" +
                              src.string() + "' 2>/dev/null";
  if (std::system(compile.c_str()) != 0) return std::nullopt;
  const std::string run = "'" + bin.string() + "' < '" + input.string() +
                          "' > '" + output.string() + "'";
  if (std::system(run.c_str()) != 0) return std::nullopt;
  std::ifstream is(output);
  std::vector<int> uids;
  uids.reserve(instances.size());
  int uid = 0;
  while (is >> uid) uids.push_back(uid);
  fs::remove_all(dir);
  if (uids.size() != instances.size()) return std::nullopt;
  return uids;
}

/// `probes`, plus every probe with one inner node's raw feature set to
/// that node's integer bound and to one below it: the only inputs on
/// which an off-by-one bound or C comparison diverges.
inline std::vector<bench::Instance> with_boundaries(
    const tune::RuleTable& table, const std::vector<bench::Instance>& probes) {
  std::vector<bench::Instance> out = probes;
  for (const tune::RuleTable::Node& n : table.nodes()) {
    if (n.feature < 0 || n.bound == 0) continue;
    for (const std::uint64_t v : {n.bound - 1, n.bound}) {
      if (n.feature > 0 && v > std::numeric_limits<int>::max()) continue;
      for (bench::Instance p : probes) {
        if (n.feature == 0) p.msize = v;
        if (n.feature == 1) p.nodes = static_cast<int>(v);
        if (n.feature == 2) p.ppn = static_cast<int>(v);
        out.push_back(p);
      }
    }
  }
  return out;
}

/// Whether the reference walk, `table`, `table` saved and loaded, and
/// its executed C pick the same uid on every probe and on every
/// boundary probe of `table` (with_boundaries). `c_ran` reports
/// whether a C compiler was available; without one the C voice is
/// left out and the caller decides whether to skip.
[[nodiscard]] inline ::testing::AssertionResult four_voices_agree(
    const tune::RuleTable& table,
    const std::vector<bench::Instance>& given_probes, const std::string& tag,
    bool& c_ran) {
  const std::vector<bench::Instance> probes =
      with_boundaries(table, given_probes);
  const std::filesystem::path path = scratch_path("ruletable_" + tag);
  table.save(path);
  const tune::RuleTable loaded = tune::RuleTable::load(path);
  std::filesystem::remove(path);
  if (loaded.agreement() != table.agreement() ||
      loaded.to_c_code("f") != table.to_c_code("f")) {
    return ::testing::AssertionFailure()
           << tag << ": the loaded table is not the saved one";
  }
  const std::string fn = "mpicp_rules";
  const auto executed =
      run_generated_c(table.to_c_code(fn), fn, probes, tag);
  c_ran = executed.has_value();
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const bench::Instance& inst = probes[i];
    const int reference = reference_uid(table, inst);
    const int fitted = table.uid_for(inst);
    const int reloaded = loaded.uid_for(inst);
    const int c = executed ? (*executed)[i] : reference;
    if (fitted != reference || reloaded != reference || c != reference) {
      return ::testing::AssertionFailure()
             << tag << " diverges at m=" << inst.msize
             << " n=" << inst.nodes << " ppn=" << inst.ppn
             << ": reference " << reference << ", table " << fitted
             << ", loaded " << reloaded << ", C " << c;
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace mpicp::rule_voices
