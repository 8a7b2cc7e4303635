// Serialization round-trip tests: every learner and the full selector
// must predict identically after save/load.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ml/io.hpp"
#include "ml/learner.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "tune/compiled_bank.hpp"
#include "tune/ruletable.hpp"
#include "tune/selector.hpp"

#include "rss.hpp"

namespace mpicp {
namespace {

struct Synth {
  ml::Matrix x;
  std::vector<double> y;
};

Synth make_synth(std::size_t n, std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  Synth s;
  s.x = ml::Matrix(n, 3);
  s.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.x(i, 0) = rng.uniform(0.0, 22.0);
    s.x(i, 1) = rng.uniform(1.0, 36.0);
    s.x(i, 2) = rng.uniform(1.0, 32.0);
    s.y[i] = std::exp(0.1 * s.x(i, 0) + 0.02 * s.x(i, 1) +
                      0.5 * std::sin(s.x(i, 2)));
  }
  return s;
}

class LearnerRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(LearnerRoundTrip, PredictionsIdenticalAfterSaveLoad) {
  const Synth train = make_synth(300, 1);
  const Synth probe = make_synth(50, 2);
  auto model = ml::make_regressor(GetParam());
  model->fit(train.x, train.y);
  EXPECT_EQ(model->name(), GetParam());

  std::stringstream stream;
  ml::save_regressor(stream, *model);
  const auto restored = ml::load_regressor(stream);
  EXPECT_EQ(restored->name(), model->name());
  for (std::size_t i = 0; i < probe.x.rows(); ++i) {
    EXPECT_DOUBLE_EQ(model->predict_one(probe.x.row(i)),
                     restored->predict_one(probe.x.row(i)))
        << GetParam() << " row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllLearners, LearnerRoundTrip,
                         ::testing::ValuesIn(ml::kLearnerNames));

TEST(SerializationErrors, CorruptHeaderRejected) {
  std::stringstream stream("regresso knn\n");
  EXPECT_THROW(ml::load_regressor(stream), Error);
  std::stringstream unknown("regressor warp9\n");
  EXPECT_THROW(ml::load_regressor(unknown), Error);
}

TEST(SelectorRoundTrip, DecisionsIdenticalAfterSaveLoad) {
  // Small synthetic dataset with two crossing algorithms.
  bench::Dataset ds("t", sim::MpiLib::kOpenMPI, sim::Collective::kBcast,
                    "Hydra");
  support::Xoshiro256 rng(7);
  for (const int n : {2, 4, 8, 16}) {
    for (const int ppn : {1, 4}) {
      for (const std::uint64_t m : {64u, 4096u, 262144u}) {
        const double t1 = 5.0 * n + 0.001 * static_cast<double>(m);
        const double t2 = 20.0 + 0.0004 * static_cast<double>(m) * ppn;
        for (int rep = 0; rep < 2; ++rep) {
          ds.add({1, n, ppn, m, rng.lognormal_median(t1, 0.05)});
          ds.add({2, n, ppn, m, rng.lognormal_median(t2, 0.05)});
        }
      }
    }
  }
  tune::Selector selector(tune::SelectorOptions{.learner = "gam"});
  ASSERT_FALSE(selector.fit(ds, {2, 4, 8, 16}).degraded());

  const auto path = std::filesystem::temp_directory_path() /
                    "mpicp_selector_roundtrip.model";
  selector.save(path);
  const tune::Selector restored = tune::Selector::load(path);
  EXPECT_EQ(restored.options().learner, "gam");
  EXPECT_EQ(restored.uids(), selector.uids());
  for (const int n : {3, 6, 12}) {
    for (const std::uint64_t m : {128u, 65536u}) {
      const bench::Instance inst{n, 2, m};
      EXPECT_EQ(restored.select_uid(inst), selector.select_uid(inst));
      for (const int uid : selector.uids()) {
        EXPECT_DOUBLE_EQ(restored.predicted_time_us(uid, inst),
                         selector.predicted_time_us(uid, inst));
      }
    }
  }
  std::filesystem::remove(path);
}

TEST(SelectorLoad, RejectsRepeatedAndNonPositiveUids) {
  const Synth train = make_synth(60, 3);
  const auto model = ml::make_regressor("linear");
  model->fit(train.x, train.y);
  const auto path =
      std::filesystem::temp_directory_path() / "mpicp_selector_uids.model";
  // A selector file holding the same fitted model under each uid.
  const auto write = [&](const std::vector<int>& uids) {
    std::ofstream os(path);
    os << "mpicp-selector 1\nlinear\n0\n" << uids.size() << '\n';
    for (const int uid : uids) {
      os << uid << '\n';
      ml::save_regressor(os, *model);
    }
  };
  write({1, 2});
  EXPECT_EQ(tune::Selector::load(path).uids(), (std::vector<int>{1, 2}));
  // A repeated uid would drop a model; a uid <= 0 can never be served.
  for (const std::vector<int>& uids : std::vector<std::vector<int>>{
           {1, 1}, {2, 1, 2}, {0, 2}, {-3, 2}, {1, -1}}) {
    write(uids);
    EXPECT_THROW((void)tune::Selector::load(path), ParseError)
        << ::testing::PrintToString(uids);
  }
  std::filesystem::remove(path);
}

/// A stream buffer over `text` that records VmRSS whenever a read runs
/// past its end: a loader that sized a buffer from a declared count
/// holds that buffer at exactly that point.
class RssAtEndBuf : public std::stringbuf {
 public:
  explicit RssAtEndBuf(const std::string& text)
      : std::stringbuf(text, std::ios::in) {}
  long peak_kb = -1;

 protected:
  int_type underflow() override {
    const int_type c = std::stringbuf::underflow();
    if (traits_type::eq_int_type(c, traits_type::eof())) {
      peak_kb = std::max(peak_kb, rss::kb());
    }
    return c;
  }
};

TEST(SerializationErrors, OverstatedSizesFailBeforeAllocatingThem) {
  // A regressor whose sealed header claims 200 000 000 payload bytes,
  // and a rule-table payload whose node arrays declare 200 000 000
  // entries: both end after a few bytes, and must fail on that short
  // read without first allocating what the header declares.
  const std::string model = "regressor-v2 gam 200000000 0\n";
  const std::string rules = "1\n200000000\n";
  using Load = std::function<void(std::istream&)>;
  const Load load_model = [](std::istream& is) {
    (void)ml::load_regressor(is);
  };
  const Load load_rules = [](std::istream& is) {
    (void)ml::io::read_value<double>(is);
    (void)ml::io::read_vector<int>(is);
  };
  const std::vector<std::pair<std::string, Load>> inputs = {
      {model, load_model},
      {rules, load_rules},
  };
  for (const auto& [text, load] : inputs) {
    RssAtEndBuf buf(text);
    std::istream is(&buf);
    const long before = rss::kb();
    ASSERT_GT(before, 0);
    EXPECT_THROW(load(is), ParseError) << text;
    ASSERT_GT(buf.peak_kb, 0) << text;  // the short read was reached
    EXPECT_LT(buf.peak_kb - before, 16 * 1024)
        << "VmRSS grew by " << buf.peak_kb - before << " kB on " << text;
  }

  // The same rule table, re-sealed on disk, through its loader.
  const auto path = std::filesystem::temp_directory_path() /
                    "mpicp_rt_overstated.txt";
  {
    std::ofstream os(path);
    os << "mpicp-ruletable 3 ";
    ml::io::write_sealed(os, rules);
  }
  EXPECT_THROW((void)tune::RuleTable::load(path), ParseError);
  std::filesystem::remove(path);
}

TEST(GamLoad, RejectsImplausibleSizesAndRangesBeforeBuilding) {
  // One smoother over [0, 22] with basis size `nb`, and 1 + nb
  // coefficients; the basis size is checked before any basis is built.
  const auto payload = [](const std::string& nb, const std::string& lo,
                          const std::string& hi, int terms) {
    std::ostringstream os;
    os << "gam\n" << nb << "\n1\n" << lo << '\n' << hi << '\n' << terms;
    for (int t = 0; t < terms; ++t) os << "\n0.5";
    return os.str() + '\n';
  };
  const auto load = [](const std::string& text) {
    auto model = ml::make_regressor("gam");
    std::istringstream is(text);
    model->load(is);
    return model;
  };
  EXPECT_GT(load(payload("10", "0", "22", 11))->predict_one(
                std::vector<double>{3.0}),
            0.0);
  for (const char* nb : {"3", "-1", "1025", "100000"}) {
    EXPECT_THROW((void)load(payload(nb, "0", "22", 11)), ParseError) << nb;
  }
  // A range that is empty, reversed or wider than a double.
  EXPECT_THROW((void)load(payload("10", "22", "22", 11)), ParseError);
  EXPECT_THROW((void)load(payload("10", "22", "0", 11)), ParseError);
  EXPECT_THROW((void)load(payload("10", "-1.7e308", "1.7e308", 11)),
               ParseError);
  EXPECT_THROW((void)load(payload("10", "0", "22", 12)), ParseError);
}

/// The lines of the committed d2 GAM bank.
std::vector<std::string> d2_lines() {
  std::vector<std::string> lines;
  std::ifstream is(std::filesystem::path(MPICP_DATA_DIR) / "d2.gam.models");
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

TEST(SelectorLoad, RejectsModelsOfAnotherFeatureCount) {
  // Line 2 of the header is the feature flag: 1 = four features, the
  // width every d2 GAM reads.
  std::vector<std::string> lines = d2_lines();
  ASSERT_EQ(lines[2], "1");
  const auto path =
      std::filesystem::temp_directory_path() / "mpicp_d2_width.models";
  const auto write = [&] {
    std::ofstream os(path);
    for (const std::string& line : lines) os << line << '\n';
  };
  write();
  EXPECT_EQ(tune::Selector::load(path).uids().size(), 13u);
  lines[2] = "0";  // three features
  write();
  try {
    (void)tune::Selector::load(path);
    ADD_FAILURE() << "a 4-feature model loaded under a 3-feature header";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("uid " + lines[4]),
              std::string::npos)
        << e.what();
  }
  std::filesystem::remove(path);
}

TEST(SelectorLoad, SeededMutationsOfD2GamPayloadsLoadExactlyOrThrow) {
  // Every header line is replaced by every token in turn; then every
  // line of the committed d2 bank's GAM payloads is fair game: a token
  // replaced, one character changed, a line deleted, repeated or
  // swapped, or the file cut short. A mutant must throw an mpicp error,
  // or load and then its compiled bank must pick exactly like the
  // interpreted reference (Selector::predict_all's argmin).
  // Every replacement is small (at most 4096), so no mutant makes even
  // an unchecked loader allocate more than a few MB.
  const std::vector<std::string> lines = d2_lines();
  // Header (4 lines: tag, learner, feature flag, model count), then per
  // model: uid, envelope, 53 payload lines.
  constexpr std::size_t kHeader = 4;
  constexpr std::size_t kPerModel = 55;
  ASSERT_EQ(lines.size(), kHeader + 13 * kPerModel);
  std::vector<std::size_t> payload;
  for (std::size_t i = kHeader; i < lines.size(); ++i) {
    if ((i - kHeader) % kPerModel >= 2) payload.push_back(i);
  }
  const std::vector<std::string> tokens = {
      "-1",  "0",   "1",     "3",      "4",      "5",    "9",
      "11",  "40",  "41",    "255",    "256",    "4096", "0.5",
      "1e300", "-1e300", "1.7e308", "-1.7e308", "1e-300", "1e400", "nan",
      "inf", "-inf",
      "",    "x",   "gam",   "tree"};
  const std::string chars = "0123456789-+.e";
  std::vector<bench::Instance> queries;
  for (const int n : {2, 4, 5, 16, 36, 64}) {
    for (const int ppn : {1, 3, 32, 48}) {
      for (const std::uint64_t m : {1ull, 100ull, 1024ull, 65536ull,
                                    4194304ull}) {
        queries.push_back({n, ppn, m});
      }
    }
  }
  support::ScopedThreads serial(1);
  support::Xoshiro256 rng(20261019);
  const auto path =
      std::filesystem::temp_directory_path() / "mpicp_d2_mutant.models";
  int rejected = 0;
  int loaded = 0;
  const int header_mutants = static_cast<int>(kHeader * tokens.size());
  for (int mutant = 0; mutant < header_mutants + 1000; ++mutant) {
    std::vector<std::string> m = lines;
    const int edits =
        mutant < header_mutants ? 0 : 1 + static_cast<int>(rng.uniform_int(3));
    if (mutant < header_mutants) {
      m[static_cast<std::size_t>(mutant) / tokens.size()] =
          tokens[static_cast<std::size_t>(mutant) % tokens.size()];
    }
    std::size_t cut = m.size();
    for (int e = 0; e < edits; ++e) {
      const std::size_t at = payload[rng.uniform_int(payload.size())];
      std::string& line = m[at];
      switch (rng.uniform_int(6)) {
        case 0:
          line = tokens[rng.uniform_int(tokens.size())];
          break;
        case 1:
          if (!line.empty()) {
            line[rng.uniform_int(line.size())] =
                chars[rng.uniform_int(chars.size())];
          }
          break;
        case 2:
          line.clear();
          break;
        case 3:
          line += '\n' + line;
          break;
        case 4:
          std::swap(line, m[payload[rng.uniform_int(payload.size())]]);
          break;
        default:
          cut = std::min(cut, at);
          break;
      }
    }
    {
      std::ofstream os(path);
      for (std::size_t i = 0; i < cut; ++i) os << m[i] << '\n';
    }
    std::optional<tune::Selector> selector;
    try {
      selector.emplace(tune::Selector::load(path));
    } catch (const Error&) {
      ++rejected;
      continue;
    }
    ++loaded;
    const tune::CompiledBank& bank = selector->compile();
    for (const bench::Instance& inst : queries) {
      std::size_t excluded = 0;
      EXPECT_EQ(bank.select_uid_or_invalid(inst),
                tune::argmin_usable(selector->predict_all(inst), excluded))
          << "mutant " << mutant << " m=" << inst.msize << " n=" << inst.nodes
          << " ppn=" << inst.ppn;
    }
  }
  std::filesystem::remove(path);
  EXPECT_GT(rejected, 0);
  EXPECT_GT(loaded, 0);
}

TEST(SelectorRoundTrip, SavingUnfittedSelectorThrows) {
  tune::Selector selector;
  EXPECT_THROW(selector.save("/tmp/never_written.model"), Error);
}

}  // namespace
}  // namespace mpicp
