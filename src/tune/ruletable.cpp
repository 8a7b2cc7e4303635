#include "tune/ruletable.hpp"

#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "ml/io.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"
#include "tune/compiled_bank.hpp"

namespace mpicp::tune {

namespace metrics = support::metrics;

namespace {

/// The tree's comparison `feature_of(inst, f) < thr` is monotone
/// non-increasing in the raw instance value v (uint64 -> double
/// conversion and log2 are both monotone), so the smallest v on which
/// it turns false — found by binary search *with the tree's own
/// transform* — is an integer bound with the same truth table:
/// `v < integer_bound(f, thr)` takes the same branch as the tree on
/// every representable instance. This moves std::log2 out of the
/// dispatch path entirely, into lowering.
///
/// When the comparison holds even at UINT64_MAX (thr = +inf), the
/// bound saturates: `v < UINT64_MAX` diverges only at v == UINT64_MAX.
std::uint64_t integer_bound(int feature, double thr) {
  const auto below = [feature, thr](std::uint64_t v) {
    const double f =
        feature == 0
            ? DecisionRules::feature_of(bench::Instance{.msize = v}, 0)
            : static_cast<double>(v);
    return f < thr;
  };
  if (!below(0)) return 0;
  std::uint64_t lo = 0;  // invariant: below(lo)
  std::uint64_t hi = std::numeric_limits<std::uint64_t>::max();
  if (below(hi)) return hi;  // saturate (see above)
  while (hi - lo > 1) {      // invariant: !below(hi)
    const std::uint64_t mid = lo + (hi - lo) / 2;
    (below(mid) ? lo : hi) = mid;
  }
  return hi;
}

/// Both children of inner node `i` lie after it and inside a pool of
/// `n` nodes. The lowering emits preorder, so this holds for every
/// table it builds, and it guarantees every walk terminates.
bool children_in_preorder(std::size_t i, std::int32_t left,
                          std::int32_t right, std::size_t n) {
  const auto ok = [i, n](std::int32_t c) {
    return c > static_cast<std::int64_t>(i) &&
           static_cast<std::size_t>(c) < n;
  };
  return ok(left) && ok(right);
}

}  // namespace

RuleTable RuleTable::lower(const DecisionRules& rules) {
  MPICP_SPAN("tune.ruletable.lower");
  const std::vector<DecisionRules::Node>& nodes = rules.nodes();
  MPICP_REQUIRE(!nodes.empty(), "lowering an unfitted rule tree");
  RuleTable table;
  const std::size_t n = nodes.size();
  table.feature_.resize(n);
  table.threshold_.resize(n);
  table.left_.resize(n);
  table.right_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const DecisionRules::Node& node = nodes[i];
    if (node.feature < 0) {
      table.feature_[i] = -1;
      table.threshold_[i] = 0.0;
      table.left_[i] = node.uid;
      table.right_[i] = -1;
    } else {
      MPICP_REQUIRE(node.feature < 3, "bad rule feature index");
      MPICP_REQUIRE(children_in_preorder(i, node.left, node.right, n),
                    "rule tree child index out of preorder range");
      table.feature_[i] = static_cast<std::int8_t>(node.feature);
      table.threshold_[i] = node.threshold;
      table.left_[i] = node.left;
      table.right_[i] = node.right;
    }
  }
  metrics::counter("ruletable.lowered").inc();
  table.build_integer_bounds();
  return table;
}

void RuleTable::build_integer_bounds() {
  ithr_.assign(feature_.size(), 0);
  for (std::size_t i = 0; i < feature_.size(); ++i) {
    if (feature_[i] >= 0) {
      ithr_[i] = integer_bound(feature_[i], threshold_[i]);
    }
  }
}

int RuleTable::num_leaves() const {
  int leaves = 0;
  for (const std::int8_t f : feature_) leaves += f < 0 ? 1 : 0;
  return leaves;
}

int RuleTable::uid_for(const bench::Instance& inst) const {
  MPICP_ASSERT(!feature_.empty(), "dispatch on an empty rule table");
  const std::uint64_t u[3] = {inst.msize,
                              static_cast<std::uint64_t>(inst.nodes),
                              static_cast<std::uint64_t>(inst.ppn)};
  std::int32_t cur = 0;
  while (feature_[cur] >= 0) {
    cur = u[feature_[cur]] < ithr_[cur] ? left_[cur] : right_[cur];
  }
  return left_[cur];
}

void RuleTable::save(const std::filesystem::path& path) const {
  MPICP_SPAN("tune.ruletable.save");
  MPICP_REQUIRE(!feature_.empty(), "saving an empty rule table");
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  // Envelope discipline of the model files: serialize the payload to a
  // buffer first so the header carries its exact byte count and FNV-1a
  // checksum.
  std::ostringstream payload;
  ml::io::write_value(payload, agreement_);
  std::vector<int> features(feature_.begin(), feature_.end());
  ml::io::write_vector(payload, features);
  ml::io::write_vector(payload, threshold_);
  std::vector<int> left(left_.begin(), left_.end());
  std::vector<int> right(right_.begin(), right_.end());
  ml::io::write_vector(payload, left);
  ml::io::write_vector(payload, right);
  const std::string body = payload.str();

  std::ofstream os(path);
  if (!os) {
    MPICP_RAISE_ERROR("cannot open " + path.string() + " for writing");
  }
  os << "mpicp-ruletable 3 " << body.size() << ' '
     << std::hex << ml::io::fnv1a64(body) << std::dec << '\n'
     << body;
  if (!os) {
    MPICP_RAISE_ERROR("failed writing rule table to " + path.string());
  }
}

RuleTable RuleTable::load(const std::filesystem::path& path) {
  MPICP_SPAN("tune.ruletable.load");
  std::ifstream is(path);
  if (!is) {
    MPICP_RAISE_PARSE("cannot open rule table file " + path.string());
  }
  ml::io::expect_tag(is, "mpicp-ruletable");
  MPICP_CHECK_PARSE(ml::io::read_value<int>(is) == 3,
                    "unsupported rule table version");
  const auto bytes = ml::io::read_value<std::size_t>(is);
  MPICP_CHECK_PARSE(bytes < (1u << 28), "implausible rule table size");
  std::string checksum_hex;
  if (!(is >> checksum_hex)) {
    MPICP_RAISE_PARSE("rule table: truncated header");
  }
  is.ignore(1);  // the newline terminating the header
  std::string body(bytes, '\0');
  is.read(body.data(), static_cast<std::streamsize>(bytes));
  MPICP_CHECK_PARSE(static_cast<std::size_t>(is.gcount()) == bytes,
                    "rule table: truncated payload");
  std::uint64_t expected = 0;
  try {
    expected = std::stoull(checksum_hex, nullptr, 16);
  } catch (const std::exception&) {
    MPICP_RAISE_PARSE("rule table: malformed checksum '" + checksum_hex +
                      "'");
  }
  MPICP_CHECK_PARSE(ml::io::fnv1a64(body) == expected,
                    "rule table: checksum mismatch (corrupt file)");

  std::istringstream ps(body);
  RuleTable table;
  table.agreement_ = ml::io::read_value<double>(ps);
  const std::vector<int> features = ml::io::read_vector<int>(ps);
  table.threshold_ = ml::io::read_vector<double>(ps);
  const std::vector<int> left = ml::io::read_vector<int>(ps);
  const std::vector<int> right = ml::io::read_vector<int>(ps);
  const std::size_t n = features.size();
  MPICP_CHECK_PARSE(n >= 1, "empty rule table file");
  MPICP_CHECK_PARSE(table.threshold_.size() == n && left.size() == n &&
                        right.size() == n,
                    "rule table array length mismatch");
  table.feature_.resize(n);
  table.left_.resize(n);
  table.right_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    MPICP_CHECK_PARSE(features[i] >= -1 && features[i] < 3,
                      "rule table: bad feature index");
    table.feature_[i] = static_cast<std::int8_t>(features[i]);
    table.left_[i] = left[i];
    table.right_[i] = right[i];
    if (features[i] >= 0) {
      MPICP_CHECK_PARSE(children_in_preorder(i, left[i], right[i], n),
                        "rule table: child index out of preorder range");
    }
  }
  table.build_integer_bounds();
  return table;
}

RuleDistillation distill(const CompiledBank& bank,
                         std::span<const bench::Instance> grid,
                         RuleParams params) {
  MPICP_SPAN("tune.distill");
  MPICP_REQUIRE(!grid.empty(), "cannot distill over an empty grid");
  // Label the grid with the bank's own batched argmin — the picks the
  // rules must reproduce.
  const std::vector<int> labels = bank.select_grid(grid);
  std::vector<LabeledInstance> points;
  points.reserve(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    points.push_back({grid[i], labels[i]});
  }
  RuleDistillation out;
  out.grid_points = grid.size();
  out.rules = DecisionRules::fit(points, params);
  out.table = RuleTable::lower(out.rules);
  // Recount the agreement empirically through the *table* (not the
  // tree): the number the serving gate trusts is measured on the
  // artifact that will serve.
  std::size_t hits = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    hits += out.table.uid_for(grid[i]) == labels[i] ? 1 : 0;
  }
  out.agreement =
      static_cast<double>(hits) / static_cast<double>(grid.size());
  out.table.set_agreement(out.agreement);
  metrics::counter("ruletable.distilled").inc();
  return out;
}

}  // namespace mpicp::tune
