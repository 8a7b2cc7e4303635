#include "tune/config_writer.hpp"

#include <algorithm>
#include <charconv>
#include <functional>
#include <fstream>
#include <optional>

#include "support/error.hpp"
#include "support/str.hpp"
#include "support/trace.hpp"

namespace mpicp::tune {

namespace {

constexpr std::uint64_t kInfinity = ~std::uint64_t{0};

/// The whole of `token` as a T: a sign on an unsigned field, a value
/// outside T's range or trailing characters are a ParseError.
template <typename T>
T parse_field(const std::string& token, const std::string& key) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (token.empty() || ec != std::errc{} || ptr != end) {
    MPICP_RAISE_PARSE("tuning file: bad " + key + " value '" + token + "'");
  }
  return value;
}

}  // namespace

int TuningConfig::uid_for(std::uint64_t msize) const {
  for (const TuningRule& rule : rules) {
    if (msize <= rule.msize_upto) return rule.uid;
  }
  MPICP_REQUIRE(!rules.empty(), "empty tuning configuration");
  return rules.back().uid;
}

TuningConfig build_tuning_config(const Selector& selector, sim::MpiLib lib,
                                 sim::Collective coll, int nodes, int ppn,
                                 const std::vector<std::uint64_t>& msizes) {
  MPICP_SPAN("tune.config.build");
  MPICP_REQUIRE(!msizes.empty(), "need at least one message size");
  // Strictly increasing sizes give strictly increasing rule ranges, the
  // only kind read_tuning_file accepts back.
  MPICP_REQUIRE(std::adjacent_find(msizes.begin(), msizes.end(),
                                   std::greater_equal<>()) == msizes.end(),
                "message sizes must strictly increase");
  TuningConfig config;
  config.lib = lib;
  config.coll = coll;
  config.nodes = nodes;
  config.ppn = ppn;
  config.rules.reserve(msizes.size());
  for (std::size_t i = 0; i < msizes.size(); ++i) {
    // Degradation-aware: a message size where every model prediction is
    // unusable gets the library's own default rule instead of aborting
    // the whole tuning file.
    const int uid =
        selector.select_uid_or_default({nodes, ppn, msizes[i]}, lib, coll);
    // A rule covers messages up to halfway (log scale) to the next
    // queried size; the last rule covers everything beyond.
    std::uint64_t upto = kInfinity;
    if (i + 1 < msizes.size()) {
      upto = msizes[i] +
             (msizes[i + 1] - msizes[i]) / 2;  // midpoint boundary
    }
    if (!config.rules.empty() && config.rules.back().uid == uid) {
      config.rules.back().msize_upto = upto;  // fold identical picks
    } else {
      config.rules.push_back({upto, uid});
    }
  }
  return config;
}

void write_tuning_file(const std::filesystem::path& path,
                       const TuningConfig& config) {
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  std::ofstream out(path);
  if (!out) MPICP_RAISE_ERROR("cannot open " + path.string() + " for writing");
  out << "# mpicp collective tuning file\n";
  out << "lib " << to_string(config.lib) << '\n';
  out << "collective " << to_string(config.coll) << '\n';
  out << "nodes " << config.nodes << '\n';
  out << "ppn " << config.ppn << '\n';
  for (const TuningRule& rule : config.rules) {
    const auto& cfg = sim::config_by_uid(config.lib, config.coll, rule.uid);
    out << "rule msize_upto=";
    if (rule.msize_upto == kInfinity) {
      out << "inf";
    } else {
      out << rule.msize_upto;
    }
    out << " uid=" << rule.uid << "  # " << cfg.label() << '\n';
  }
  if (!out) MPICP_RAISE_ERROR("failed writing tuning file " + path.string());
}

TuningConfig read_tuning_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) MPICP_RAISE_PARSE("cannot open tuning file " + path.string());
  TuningConfig config;
  std::string line;
  while (std::getline(in, line)) {
    const auto trimmed = std::string(support::trim(line));
    if (trimmed.empty() || trimmed[0] == '#') continue;
    const auto parts = support::split(trimmed, ' ');
    MPICP_CHECK_PARSE(parts.size() >= 2,
                      "tuning file: directive '" + parts[0] + "' has no value");
    if (parts[0] == "lib") {
      config.lib = sim::mpilib_from_string(parts[1]);
    } else if (parts[0] == "collective") {
      config.coll = sim::collective_from_string(parts[1]);
    } else if (parts[0] == "nodes") {
      config.nodes = parse_field<int>(parts[1], "nodes");
    } else if (parts[0] == "ppn") {
      config.ppn = parse_field<int>(parts[1], "ppn");
    } else if (parts[0] == "rule") {
      std::optional<std::uint64_t> upto;
      std::optional<int> uid;
      for (const std::string& token : parts) {
        if (support::starts_with(token, "msize_upto=")) {
          const std::string v = token.substr(11);
          upto = v == "inf" ? kInfinity
                            : parse_field<std::uint64_t>(v, "msize_upto");
        } else if (support::starts_with(token, "uid=")) {
          uid = parse_field<int>(token.substr(4), "uid");
        }
      }
      MPICP_CHECK_PARSE(upto.has_value(), "tuning rule without msize_upto");
      MPICP_CHECK_PARSE(uid.has_value() && *uid > 0,
                        "tuning rule without a positive uid");
      // uid_for serves the first rule covering a size, so ranges must
      // strictly increase or later rules would silently never apply.
      MPICP_CHECK_PARSE(
          config.rules.empty() || *upto > config.rules.back().msize_upto,
          "tuning rule msize_upto does not strictly increase");
      // mpicp-lint: allow(no-alloc-in-loop) unbounded parse loop; the
      // rule count is unknown until the file ends.
      config.rules.push_back({*upto, *uid});
    } else {
      MPICP_RAISE_PARSE("unknown tuning-file directive '" + parts[0] + "'");
    }
  }
  return config;
}

}  // namespace mpicp::tune
