// Unit tests for the support library (rng, stats, csv, cli, str, table).
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "support/cli.hpp"
#include "support/csv.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/str.hpp"
#include "support/table.hpp"

namespace mpicp::support {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next() == b.next();
  EXPECT_LT(equal, 4);
}

TEST(Rng, UniformBounds) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntUnbiasedSmallRange) {
  Xoshiro256 rng(11);
  int counts[5] = {0};
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_int(5)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.2, 0.02);
  }
}

TEST(Rng, NormalMoments) {
  Xoshiro256 rng(13);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = rng.normal(3.0, 2.0);
  EXPECT_NEAR(mean(xs), 3.0, 0.1);
  EXPECT_NEAR(stddev(xs), 2.0, 0.1);
}

TEST(Rng, LognormalMedian) {
  Xoshiro256 rng(17);
  std::vector<double> xs(20001);
  for (auto& x : xs) x = rng.lognormal_median(5.0, 0.3);
  EXPECT_NEAR(median(xs), 5.0, 0.15);
  for (const double x : xs) EXPECT_GT(x, 0.0);
}

TEST(Rng, PermutationIsPermutation) {
  Xoshiro256 rng(19);
  const auto perm = rng.permutation(100);
  std::vector<bool> seen(100, false);
  for (const std::size_t v : perm) {
    ASSERT_LT(v, 100u);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(Rng, HashCombineOrderSensitive) {
  EXPECT_NE(hash_combine({1, 2}), hash_combine({2, 1}));
  EXPECT_EQ(hash_combine({1, 2, 3}), hash_combine({1, 2, 3}));
}

TEST(Stats, BasicMoments) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean(xs), 3.0);
  EXPECT_DOUBLE_EQ(median(xs), 3.0);
  EXPECT_DOUBLE_EQ(min(xs), 1.0);
  EXPECT_DOUBLE_EQ(max(xs), 5.0);
  EXPECT_NEAR(stddev(xs), std::sqrt(2.5), 1e-12);
}

TEST(Stats, QuantileInterpolation) {
  const std::vector<double> xs = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 25.0);
}

TEST(Stats, MedianUnsortedEven) {
  const std::vector<double> xs = {5, 1, 4, 2};
  EXPECT_DOUBLE_EQ(median(xs), 3.0);
  // The sorted-input core gives the same value on the sorted samples.
  const std::vector<double> sorted = {1, 2, 4, 5};
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 0.25), quantile(xs, 0.25));
  EXPECT_THROW(quantile_sorted(std::vector<double>{}, 0.5), InvalidArgument);
}

TEST(Stats, Geomean) {
  const std::vector<double> xs = {1.0, 4.0};
  EXPECT_NEAR(geomean(xs), 2.0, 1e-12);
  EXPECT_THROW(geomean(std::vector<double>{1.0, -1.0}), Error);
}

TEST(Stats, EmptyThrows) {
  EXPECT_THROW(mean(std::vector<double>{}), InvalidArgument);
  EXPECT_THROW(median(std::vector<double>{}), InvalidArgument);
}

TEST(Stats, Summarize) {
  const std::vector<double> xs = {2, 4, 6, 8};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.n, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.median, 5.0);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 8.0);
}

TEST(Str, SplitTrim) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(trim("  x \t\n"), "x");
  EXPECT_EQ(trim(""), "");
}

TEST(Str, ParseNumbers) {
  EXPECT_DOUBLE_EQ(parse_double(" 3.5 "), 3.5);
  EXPECT_EQ(parse_int("-42"), -42);
  EXPECT_THROW(parse_double("abc"), ParseError);
  EXPECT_THROW(parse_int("1.5"), ParseError);
}

TEST(Str, FormatBytes) {
  EXPECT_EQ(format_bytes(1), "1");
  EXPECT_EQ(format_bytes(1024), "1Ki");
  EXPECT_EQ(format_bytes(4 * 1024 * 1024), "4Mi");
  EXPECT_EQ(format_bytes(1536), "1536");  // not a whole Ki multiple
}

TEST(Csv, RoundTrip) {
  const auto path =
      std::filesystem::temp_directory_path() / "mpicp_test_roundtrip.csv";
  {
    std::ofstream out(path);
    out << "a,b\n1,2.5\n3,x\n";
  }
  CsvReader r(path);
  EXPECT_EQ(r.header(), (std::vector<std::string>{"a", "b"}));
  ASSERT_TRUE(r.next());
  EXPECT_EQ(parse_int(r.cells()[r.column("a")]), 1);
  EXPECT_DOUBLE_EQ(parse_double(r.cells()[r.column("b")]), 2.5);
  ASSERT_TRUE(r.next());
  EXPECT_EQ(r.cells()[1], "x");
  EXPECT_FALSE(r.next());
  EXPECT_THROW((void)r.column("missing"), ParseError);
  std::filesystem::remove(path);
}

TEST(Csv, RejectsMalformedFiles) {
  const auto dir = std::filesystem::temp_directory_path();
  EXPECT_THROW(CsvReader(dir / "mpicp_does_not_exist.csv"), ParseError);

  const auto empty = dir / "mpicp_empty.csv";
  { std::ofstream out(empty); }
  EXPECT_THROW(CsvReader{empty}, ParseError);
  std::filesystem::remove(empty);
}

TEST(Csv, ReportsRaggedRowsWithTheirLine) {
  const auto ragged =
      std::filesystem::temp_directory_path() / "mpicp_ragged.csv";
  {
    std::ofstream out(ragged);
    out << "a,b\n1,2\n3\n";
  }
  CsvReader r(ragged);
  ASSERT_TRUE(r.next());
  EXPECT_EQ(r.cells().size(), 2u);
  ASSERT_TRUE(r.next());
  EXPECT_EQ(r.cells().size(), 1u);
  EXPECT_EQ(r.lineno(), 3u);
  std::filesystem::remove(ragged);
}

TEST(Csv, SkipsBlankLines) {
  const auto path = std::filesystem::temp_directory_path() /
                    "mpicp_blank_lines.csv";
  {
    std::ofstream out(path);
    out << "a,b\n1,2\n\n \r\n3,4\r\n";
  }
  CsvReader r(path);
  ASSERT_TRUE(r.next());
  EXPECT_EQ(r.lineno(), 2u);
  ASSERT_TRUE(r.next());
  EXPECT_EQ(r.lineno(), 5u);
  EXPECT_EQ(r.cells()[1], "4");
  EXPECT_FALSE(r.next());
  std::filesystem::remove(path);
}

TEST(Cli, OptionsAndPositional) {
  const char* argv[] = {"prog", "--alpha=3", "--flag", "--beta",
                        "7",    "pos1",      "pos2"};
  CliParser cli(7, argv);
  EXPECT_EQ(cli.get_int("alpha", 0), 3);
  EXPECT_EQ(cli.get_int("beta", 0), 7);
  EXPECT_TRUE(cli.get_bool("flag", false));
  EXPECT_FALSE(cli.get_bool("absent", false));
  EXPECT_EQ(cli.get("absent", "dflt"), "dflt");
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[1], "pos2");
}

TEST(Table, RendersAligned) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1.25"});
  t.add_row({"b", "100"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("100"), std::string::npos);
  // Header, separator and two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

}  // namespace
}  // namespace mpicp::support
