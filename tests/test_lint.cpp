// Self-test for tools/mpicp_lint: runs the real binary over checked-in
// fixture trees (tests/lint_fixtures/*) and asserts exact rule-id/line
// diagnostics, suppression behaviour, baseline handling — and that the
// repository itself is lint-clean against the checked-in baseline.
//
// The binary path and the fixture/source directories are injected by
// CMake (MPICP_LINT_BIN, MPICP_LINT_FIXTURES, MPICP_SOURCE_DIR).
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <string>
#include <vector>

namespace {

struct LintRun {
  int exit_code = -1;
  std::string output;  // stdout only (diagnostics)
};

LintRun run_lint(const std::string& args) {
  const std::string cmd =
      std::string(MPICP_LINT_BIN) + " " + args + " 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  LintRun run;
  if (!pipe) return run;
  char buf[4096];
  while (std::fgets(buf, sizeof buf, pipe)) run.output += buf;
  const int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

std::string fixture_root(const std::string& name) {
  return std::string(MPICP_LINT_FIXTURES) + "/" + name;
}

/// One parsed `file:line: [rule-id]` diagnostic triple.
struct Finding {
  std::string file;
  int line = 0;
  std::string rule;

  bool operator==(const Finding&) const = default;
  bool operator<(const Finding& o) const {
    return std::tie(file, line, rule) < std::tie(o.file, o.line, o.rule);
  }
};

std::vector<Finding> parse_findings(const std::string& output) {
  std::vector<Finding> out;
  static const std::regex diag(R"(^([^:\s]+):(\d+): \[([a-z\-]+)\] )");
  std::stringstream ss(output);
  std::string line;
  while (std::getline(ss, line)) {
    std::smatch m;
    if (std::regex_search(line, m, diag)) {
      out.push_back({m[1].str(), std::stoi(m[2].str()), m[3].str()});
    }
  }
  return out;
}

TEST(Lint, ListsAllFifteenRules) {
  const LintRun run = run_lint("--list-rules");
  EXPECT_EQ(run.exit_code, 0);
  for (const char* rule :
       {"no-raw-rand", "no-raw-thread", "no-wall-clock", "no-stdout",
        "no-bare-throw", "no-float-eq", "header-hygiene",
        "nodiscard-report", "no-alloc-in-loop", "span-coverage",
        "include-what-you-use-lite", "layer-dag", "lock-discipline",
        "atomic-order-audit", "metrics-static-handle"}) {
    EXPECT_NE(run.output.find(rule), std::string::npos) << rule;
  }
}

TEST(Lint, CleanFixtureTreePasses) {
  const LintRun run = run_lint("--root " + fixture_root("clean"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_TRUE(parse_findings(run.output).empty()) << run.output;
}

TEST(Lint, DirtyFixtureTreeReportsExactDiagnostics) {
  const LintRun run = run_lint("--root " + fixture_root("dirty"));
  EXPECT_EQ(run.exit_code, 1);

  const std::vector<Finding> expected = {
      {"src/bad_clock.cpp", 6, "no-wall-clock"},
      {"src/bad_clock.cpp", 7, "no-wall-clock"},
      {"src/bad_floateq.cpp", 3, "no-float-eq"},
      {"src/bad_header.hpp", 1, "header-hygiene"},
      {"src/bad_header.hpp", 3, "header-hygiene"},
      {"src/bad_header.hpp", 5, "header-hygiene"},
      {"src/bad_nodiscard.hpp", 6, "nodiscard-report"},
      {"src/bad_rand.cpp", 6, "no-raw-rand"},
      {"src/bad_rand.cpp", 7, "no-raw-rand"},
      {"src/bad_rand.cpp", 8, "no-raw-rand"},
      {"src/bad_stdout.cpp", 6, "no-stdout"},
      {"src/bad_stdout.cpp", 7, "no-stdout"},
      {"src/bad_thread.cpp", 5, "no-raw-thread"},
      {"src/bad_thread.cpp", 6, "no-raw-thread"},
      {"src/bad_throw.cpp", 5, "no-bare-throw"},
  };
  std::vector<Finding> got = parse_findings(run.output);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected) << run.output;
}

TEST(Lint, AllocFixtureTreeReportsExactDiagnostics) {
  // R9 fires only under src/ml and src/tune; reserved receivers
  // (reserve() or reserve_more()), capacity-reusing assign(), default
  // construction, unresolvable receivers and inline allow() all stay
  // silent. Exact growth reserves inside a loop (`X.reserve(X.size() +
  // n)`, the quadratic pattern) are flagged through `.` and `->`.
  const LintRun run = run_lint("--root " + fixture_root("alloc"));
  EXPECT_EQ(run.exit_code, 1);

  const std::vector<Finding> expected = {
      {"src/ml/bad_alloc.cpp", 9, "no-alloc-in-loop"},
      {"src/ml/bad_alloc.cpp", 10, "no-alloc-in-loop"},
      {"src/ml/bad_alloc.cpp", 11, "no-alloc-in-loop"},
      {"src/ml/bad_alloc.cpp", 12, "no-alloc-in-loop"},
      {"src/ml/bad_alloc.cpp", 15, "no-alloc-in-loop"},
      {"src/ml/bad_alloc.cpp", 18, "no-alloc-in-loop"},
      {"src/ml/reserve_growth.cpp", 18, "no-alloc-in-loop"},
      {"src/ml/reserve_growth.cpp", 19, "no-alloc-in-loop"},
  };
  std::vector<Finding> got = parse_findings(run.output);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected) << run.output;
}

TEST(Lint, SpanFixtureTreeReportsExactDiagnostics) {
  // R10 fires once per uncovered file, anchored at the first >=15-line
  // function; a file-level MPICP_SPAN, short-only files, and files
  // outside src/tune + src/simmpi all stay silent.
  const LintRun run = run_lint("--root " + fixture_root("spans"));
  EXPECT_EQ(run.exit_code, 1);

  const std::vector<Finding> expected = {
      {"src/tune/needs_span.cpp", 8, "span-coverage"},
  };
  std::vector<Finding> got = parse_findings(run.output);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected) << run.output;
}

TEST(Lint, IwyuFixtureTreeReportsExactDiagnostics) {
  // R11 flags exactly the resolvable-but-unused project include; the
  // own header, a used header, an unresolvable path, and an allow()ed
  // include all stay silent.
  const LintRun run = run_lint("--root " + fixture_root("iwyu"));
  EXPECT_EQ(run.exit_code, 1);

  const std::vector<Finding> expected = {
      {"src/tune/consumer.cpp", 7, "include-what-you-use-lite"},
  };
  std::vector<Finding> got = parse_findings(run.output);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected) << run.output;
}

TEST(Lint, LayerFixtureTreeReportsExactDiagnostics) {
  // R12 flags the upward ml -> tune include and the simmpi <->
  // collbench cycle (anchored at the edge that closes it in sorted DFS
  // order); the allow(layer-dag)ed upward edge, downward includes and
  // same-rank sibling includes all stay silent.
  const LintRun run = run_lint("--root " + fixture_root("layers"));
  EXPECT_EQ(run.exit_code, 1);

  const std::vector<Finding> expected = {
      {"src/ml/bad_up.cpp", 4, "layer-dag"},
      {"src/simmpi/cycle_a.hpp", 4, "layer-dag"},
  };
  std::vector<Finding> got = parse_findings(run.output);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected) << run.output;
}

TEST(Lint, LockFixtureTreeReportsExactDiagnostics) {
  // R13 flags unannotated members of mutex-declaring classes;
  // MPICP_GUARDED_BY, allow(lock-discipline), sync primitives,
  // references, static/constexpr/const members, methods and mutex-free
  // classes all stay silent.
  const LintRun run = run_lint("--root " + fixture_root("locks"));
  EXPECT_EQ(run.exit_code, 1);

  const std::vector<Finding> expected = {
      {"src/support/bad_lock.hpp", 9, "lock-discipline"},
      {"src/support/bad_lock.hpp", 19, "lock-discipline"},
  };
  std::vector<Finding> got = parse_findings(run.output);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected) << run.output;
}

TEST(Lint, AtomicOrderFixtureTreeReportsExactDiagnostics) {
  // R14 flags explicitly weakened memory orders without an adjacent
  // `// order:` justification; same-line tags, comment-block tags,
  // continuation-line walks, seq_cst, the allow() escape hatch and
  // files outside src/ all stay silent.
  const LintRun run = run_lint("--root " + fixture_root("atomics"));
  EXPECT_EQ(run.exit_code, 1);

  const std::vector<Finding> expected = {
      {"src/support/bad_order.cpp", 8, "atomic-order-audit"},
      {"src/support/bad_order.cpp", 12, "atomic-order-audit"},
  };
  std::vector<Finding> got = parse_findings(run.output);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected) << run.output;
}

TEST(Lint, SelfTestPasses) {
  // The embedded fixture expectations and the binary agree — this is
  // the same gate CI runs before the libraries compile.
  const LintRun run = run_lint("--root " MPICP_SOURCE_DIR " --self-test");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("mpicp_lint --self-test: PASS"),
            std::string::npos)
      << run.output;
}

TEST(Lint, SuppressionsSilenceEveryForm) {
  // Same-line allow, own-line allow, and allow(all) — all must hold.
  const LintRun run = run_lint("--root " + fixture_root("suppressed"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(Lint, UnknownRuleInsideAllowIsItselfAFinding) {
  const LintRun run = run_lint("--root " + fixture_root("unknown"));
  EXPECT_EQ(run.exit_code, 1);
  const std::vector<Finding> got = parse_findings(run.output);
  ASSERT_EQ(got.size(), 1u) << run.output;
  EXPECT_EQ(got[0], (Finding{"src/unknown.cpp", 3, "header-hygiene"}));
}

TEST(Lint, BaselineGrandfathersFindings) {
  namespace fs = std::filesystem;
  const fs::path baseline =
      fs::temp_directory_path() / "mpicp_lint_test_baseline.txt";

  // --write-baseline captures the dirty tree's findings...
  const LintRun wrote = run_lint("--root " + fixture_root("dirty") +
                                 " --write-baseline " + baseline.string());
  EXPECT_EQ(wrote.exit_code, 0);
  std::ifstream in(baseline);
  ASSERT_TRUE(in.good());
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("src/bad_rand.cpp: [no-raw-rand]"),
            std::string::npos)
      << text;

  // ...and a rerun against that baseline is clean.
  const LintRun rerun = run_lint("--root " + fixture_root("dirty") +
                                 " --baseline " + baseline.string());
  EXPECT_EQ(rerun.exit_code, 0) << rerun.output;
  fs::remove(baseline);
}

TEST(Lint, MissingBaselineFileIsAUsageError) {
  const LintRun run = run_lint("--root " + fixture_root("clean") +
                               " --baseline /nonexistent/baseline.txt");
  EXPECT_EQ(run.exit_code, 2);
}

// The gate itself: the repository must be lint-clean against the
// checked-in (empty) baseline. This is what keeps the determinism
// conventions machine-enforced from `ctest` onward.
TEST(Lint, RepositoryIsClean) {
  const LintRun run =
      run_lint("--root " MPICP_SOURCE_DIR " --baseline " MPICP_SOURCE_DIR
               "/tools/lint_baseline.txt");
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

}  // namespace
