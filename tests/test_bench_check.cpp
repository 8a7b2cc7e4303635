// Self-test for tools/bench_check: runs the real binary over generated
// bench reports / baselines and asserts the gate semantics — green
// within threshold, exit 1 only on a blocking p99 regression or a
// missing p99 baseline key, advisory (but green) on any other
// directional drift or missing key, and a --write-baseline round-trip
// that compares clean against itself.
//
// The binary path is injected by CMake (MPICP_BENCH_CHECK_BIN).
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

namespace {

namespace fs = std::filesystem;

struct GateRun {
  int exit_code = -1;
  std::string output;  // stdout only
};

GateRun run_gate(const std::string& args) {
  const std::string cmd =
      std::string(MPICP_BENCH_CHECK_BIN) + " " + args + " 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  GateRun run;
  if (!pipe) return run;
  char buf[4096];
  while (std::fgets(buf, sizeof buf, pipe)) run.output += buf;
  const int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

/// Temp directory per test; files written here feed the binary.
class BenchCheckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mpicp_bench_check_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string write(const std::string& name, const std::string& text) {
    const fs::path path = dir_ / name;
    std::ofstream os(path);
    os << text;
    EXPECT_TRUE(os.good()) << path;
    return path.string();
  }

  fs::path dir_;
};

std::string bench_report(double p50, double p99, double qps) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\n  \"bench\": \"serving_load\",\n  \"schema\": 1,\n"
                "  \"metrics\": {\n    \"queries\": 200000,\n"
                "    \"p50_us\": %g,\n    \"p99_us\": %g,\n"
                "    \"throughput_qps\": %g\n  }\n}\n",
                p50, p99, qps);
  return buf;
}

std::string baseline(double p50, double p99, double qps) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\n  \"schema\": 1,\n  \"benches\": {\n"
                "    \"serving_load\": {\n      \"queries\": 200000,\n"
                "      \"p50_us\": %g,\n      \"p99_us\": %g,\n"
                "      \"throughput_qps\": %g\n    }\n  }\n}\n",
                p50, p99, qps);
  return buf;
}

TEST_F(BenchCheckTest, WithinThresholdPasses) {
  const std::string base = write("baseline.json", baseline(0.2, 0.3, 5e6));
  // p99 10% worse: inside the 25% gate.
  const std::string cur =
      write("current.json", bench_report(0.21, 0.33, 4.8e6));
  const GateRun run =
      run_gate("--baseline " + base + " --current " + cur);
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("PASS"), std::string::npos) << run.output;
  EXPECT_EQ(run.output.find("BLOCKING"), std::string::npos) << run.output;
}

TEST_F(BenchCheckTest, InflatedP99IsABlockingFailure) {
  const std::string base = write("baseline.json", baseline(0.2, 0.3, 5e6));
  // p99 60% worse: past any reasonable threshold.
  const std::string cur =
      write("current.json", bench_report(0.2, 0.48, 5e6));
  const std::string report = (dir_ / "compare.txt").string();
  const GateRun run = run_gate("--baseline " + base + " --current " + cur +
                               " --report " + report);
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("BLOCKING"), std::string::npos) << run.output;
  // The comparison artifact mirrors stdout.
  std::ifstream in(report);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("BLOCKING"), std::string::npos) << text;
}

TEST_F(BenchCheckTest, NonP99RegressionIsAdvisoryOnly) {
  const std::string base = write("baseline.json", baseline(0.2, 0.3, 5e6));
  // p50 doubled and throughput halved — ugly, but not the p99 gate.
  const std::string cur =
      write("current.json", bench_report(0.4, 0.3, 2.5e6));
  const GateRun run =
      run_gate("--baseline " + base + " --current " + cur);
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("ADVISORY"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("PASS"), std::string::npos) << run.output;
}

TEST_F(BenchCheckTest, ThresholdIsTunable) {
  const std::string base = write("baseline.json", baseline(0.2, 0.3, 5e6));
  // 10% worse p99 passes at the default 25% but fails at 5%.
  const std::string cur =
      write("current.json", bench_report(0.2, 0.33, 5e6));
  EXPECT_EQ(run_gate("--baseline " + base + " --current " + cur).exit_code,
            0);
  EXPECT_EQ(run_gate("--baseline " + base + " --current " + cur +
                     " --threshold 0.05")
                .exit_code,
            1);
}

TEST_F(BenchCheckTest, WriteBaselineRoundTripsClean) {
  const std::string cur =
      write("current.json", bench_report(0.2, 0.3, 5e6));
  const std::string base = (dir_ / "baseline.json").string();
  EXPECT_EQ(run_gate("--write-baseline " + base + " --current " + cur)
                .exit_code,
            0);
  const GateRun rerun =
      run_gate("--baseline " + base + " --current " + cur);
  EXPECT_EQ(rerun.exit_code, 0) << rerun.output;
  EXPECT_NE(rerun.output.find("PASS"), std::string::npos) << rerun.output;
}

TEST_F(BenchCheckTest, UnknownBenchIsInformationalNotFatal) {
  // A brand-new bench with no baseline entry must not block merges.
  const std::string base = write(
      "baseline.json",
      "{\n  \"schema\": 1,\n  \"benches\": {\n    \"other\": {\n"
      "      \"p99_us\": 1\n    }\n  }\n}\n");
  const std::string cur =
      write("current.json", bench_report(0.2, 0.3, 5e6));
  const GateRun run =
      run_gate("--baseline " + base + " --current " + cur);
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("no baseline bench"), std::string::npos)
      << run.output;
}

TEST_F(BenchCheckTest, BaselineKeyMissingFromTheRunIsReported) {
  const std::string base = write("baseline.json", baseline(0.2, 0.3, 5e6));
  // The bench stopped emitting its p99 gate: that must block.
  const std::string no_p99 = write(
      "no_p99.json",
      "{\n  \"bench\": \"serving_load\",\n  \"schema\": 1,\n"
      "  \"metrics\": {\n    \"queries\": 200000,\n"
      "    \"p50_us\": 0.2,\n    \"throughput_qps\": 5e6\n  }\n}\n");
  const GateRun blocked =
      run_gate("--baseline " + base + " --current " + no_p99);
  EXPECT_EQ(blocked.exit_code, 1) << blocked.output;
  EXPECT_NE(blocked.output.find("p99_us"), std::string::npos)
      << blocked.output;
  EXPECT_NE(blocked.output.find("BLOCKING (missing from current run)"),
            std::string::npos)
      << blocked.output;
  // A missing non-p99 key is reported but stays advisory.
  const std::string no_p50 = write(
      "no_p50.json",
      "{\n  \"bench\": \"serving_load\",\n  \"schema\": 1,\n"
      "  \"metrics\": {\n    \"queries\": 200000,\n"
      "    \"p99_us\": 0.3,\n    \"throughput_qps\": 5e6\n  }\n}\n");
  const GateRun advisory =
      run_gate("--baseline " + base + " --current " + no_p50);
  EXPECT_EQ(advisory.exit_code, 0) << advisory.output;
  EXPECT_NE(advisory.output.find("ADVISORY (missing from current run)"),
            std::string::npos)
      << advisory.output;
  EXPECT_NE(advisory.output.find("PASS"), std::string::npos)
      << advisory.output;
}

TEST_F(BenchCheckTest, MissingOrMalformedInputsAreUsageErrors) {
  const std::string cur =
      write("current.json", bench_report(0.2, 0.3, 5e6));
  EXPECT_EQ(run_gate("--baseline /nonexistent.json --current " + cur)
                .exit_code,
            2);
  const std::string bad = write("bad.json", "{\"not\": [\"a\", \"bench\"]}");
  const std::string base = write("baseline.json", baseline(0.2, 0.3, 5e6));
  EXPECT_EQ(run_gate("--baseline " + base + " --current " + bad).exit_code,
            2);
  EXPECT_EQ(run_gate("--baseline " + base).exit_code, 2);
}

}  // namespace
