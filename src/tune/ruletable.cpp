#include "tune/ruletable.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>

#include "ml/io.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"
#include "tune/compiled_bank.hpp"

namespace mpicp::tune {

namespace metrics = support::metrics;

namespace {

/// Majority label and its count.
std::pair<int, std::size_t> majority(
    const std::vector<const LabeledInstance*>& points) {
  std::map<int, std::size_t> counts;
  for (const auto* p : points) ++counts[p->uid];
  std::pair<int, std::size_t> best{0, 0};
  for (const auto& [uid, count] : counts) {
    if (count > best.second) best = {uid, count};
  }
  return best;
}

/// The split comparison `feature_of(inst, f) < thr` is monotone
/// non-increasing in the raw instance value v (uint64 -> double
/// conversion and log2 are both monotone), so the smallest v on which
/// it turns false — found by binary search *with feature_of itself* —
/// is an integer bound with the same truth table: `v < integer_bound(f,
/// thr)` takes the same branch as the split on every representable
/// instance. This moves std::log2 out of dispatch and out of the
/// emitted C entirely.
///
/// When the comparison holds even at UINT64_MAX (thr = +inf), the
/// bound saturates: `v < UINT64_MAX` diverges only at v == UINT64_MAX.
std::uint64_t integer_bound(int feature, double thr) {
  const auto below = [feature, thr](std::uint64_t v) {
    const double f = feature == 0
                         ? feature_of(bench::Instance{.msize = v}, 0)
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
/// `n` nodes. fit emits preorder, so this holds for every table it
/// builds, and it guarantees every walk terminates.
bool children_in_preorder(std::size_t i, int left, int right,
                          std::size_t n) {
  const auto ok = [i, n](int c) {
    return c > static_cast<std::int64_t>(i) &&
           static_cast<std::size_t>(c) < n;
  };
  return ok(left) && ok(right);
}

}  // namespace

double feature_of(const bench::Instance& inst, int f) {
  switch (f) {
    case 0:
      return std::log2(
          static_cast<double>(std::max<std::uint64_t>(inst.msize, 1)));
    case 1: return static_cast<double>(inst.nodes);
    case 2: return static_cast<double>(inst.ppn);
    default: MPICP_RAISE_INTERNAL("bad rule feature index");
  }
}

RuleTable RuleTable::fit(const std::vector<LabeledInstance>& points,
                         RuleParams params) {
  MPICP_SPAN("tune.ruletable.fit");
  MPICP_REQUIRE(!points.empty(), "cannot fit rules on an empty grid");
  RuleTable table;
  std::vector<const LabeledInstance*> ptrs;
  ptrs.reserve(points.size());
  for (const auto& p : points) ptrs.push_back(&p);
  table.build(std::move(ptrs), 0, params);
  table.derive_bounds();
  std::size_t hits = 0;
  for (const auto& p : points) hits += table.uid_for(p.inst) == p.uid ? 1 : 0;
  table.agreement_ =
      static_cast<double>(hits) / static_cast<double>(points.size());
  return table;
}

int RuleTable::build(std::vector<const LabeledInstance*> points, int depth,
                     const RuleParams& params) {
  const auto [major_uid, major_count] = majority(points);
  const int node_idx = static_cast<int>(nodes_.size());
  nodes_.push_back({.left = major_uid});
  if (major_count == points.size() || depth >= params.max_depth) {
    return node_idx;
  }

  // Best split = the one minimizing total misclassification against the
  // children's majorities. A child's misclassification never exceeds its
  // share of the parent's, so initializing past the no-split miss means
  // ties with it are still taken (first feature / lowest threshold
  // wins): a split that does not pay off immediately can separate
  // XOR-shaped label regions deeper down, and an impure node only
  // terminates when no candidate split separates anything at all.
  int best_feature = -1;
  double best_threshold = 0.0;
  std::size_t best_miss = std::numeric_limits<std::size_t>::max();
  std::vector<double> sorted;
  for (int f = 0; f < 3; ++f) {
    std::set<double> values;
    for (const auto* p : points) values.insert(feature_of(p->inst, f));
    if (values.size() < 2) continue;
    sorted.assign(values.begin(), values.end());
    for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
      const double thr = 0.5 * (sorted[i] + sorted[i + 1]);
      std::vector<const LabeledInstance*> left;
      std::vector<const LabeledInstance*> right;
      for (const auto* p : points) {
        (feature_of(p->inst, f) < thr ? left : right).push_back(p);
      }
      if (left.empty() || right.empty()) {
        // Degenerate split: the midpoint of two adjacent representable
        // feature values can round onto one of them, leaving a child
        // with zero points. Recursing on it would never terminate —
        // skip the candidate (and fall through to a leaf if every
        // candidate degenerates).
        continue;
      }
      const std::size_t miss = (left.size() - majority(left).second) +
                               (right.size() - majority(right).second);
      if (miss < best_miss) {
        best_miss = miss;
        best_feature = f;
        best_threshold = thr;
      }
    }
  }
  if (best_feature < 0) return node_idx;

  std::vector<const LabeledInstance*> left;
  std::vector<const LabeledInstance*> right;
  for (const auto* p : points) {
    (feature_of(p->inst, best_feature) < best_threshold ? left : right)
        .push_back(p);
  }
  points.clear();
  points.shrink_to_fit();
  nodes_[node_idx].feature = best_feature;
  nodes_[node_idx].threshold = best_threshold;
  const int l = build(std::move(left), depth + 1, params);
  const int r = build(std::move(right), depth + 1, params);
  nodes_[node_idx].left = l;
  nodes_[node_idx].right = r;
  return node_idx;
}

void RuleTable::derive_bounds() {
  for (Node& node : nodes_) {
    if (node.feature >= 0) {
      node.bound = integer_bound(node.feature, node.threshold);
    }
  }
}

int RuleTable::num_leaves() const {
  int leaves = 0;
  for (const Node& node : nodes_) leaves += node.feature < 0 ? 1 : 0;
  return leaves;
}

int RuleTable::uid_for(const bench::Instance& inst) const {
  MPICP_ASSERT(!nodes_.empty(), "dispatch on an empty rule table");
  const std::uint64_t u[3] = {inst.msize,
                              static_cast<std::uint64_t>(inst.nodes),
                              static_cast<std::uint64_t>(inst.ppn)};
  const Node* nodes = nodes_.data();
  int cur = 0;
  while (nodes[cur].feature >= 0) {
    const Node& n = nodes[cur];
    // The hint keeps this a branch. Without it GCC turns the choice
    // into a cmov, which puts every level's loads behind the compare;
    // a predicted branch lets the core run ahead down the tree
    // (bench_rules_codegen --smoke rule_p50_ns about 15 % lower on a
    // 4-vCPU Intel Xeon VM, GCC 12, Release).
    if (u[n.feature] < n.bound) [[likely]] {
      cur = n.left;
    } else {
      cur = n.right;
    }
  }
  return nodes[cur].left;
}

void RuleTable::render(int node, int indent, std::string& out) const {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  const Node& n = nodes_[static_cast<std::size_t>(node)];
  if (n.feature < 0) {
    out += pad + "return " + std::to_string(n.left) + ";\n";
    return;
  }
  static constexpr const char* kCondition[] = {"msize < ", "nodes < ",
                                               "ppn < "};
  out += pad + "if (" + kCondition[n.feature] + std::to_string(n.bound) +
         (n.feature == 0 ? "ULL" : "") + ") {\n";
  render(n.left, indent + 1, out);
  out += pad + "} else {\n";
  render(n.right, indent + 1, out);
  out += pad + "}\n";
}

std::string RuleTable::to_c_code(const std::string& function_name) const {
  MPICP_REQUIRE(!nodes_.empty(), "rendering an empty rule table");
  std::string out;
  // The banner text is part of the pinned C bytes
  // (tests/golden/rule_distill.json), so it keeps its historical name.
  out += "/* generated by mpicp::tune::DecisionRules */\n";
  out += "int " + function_name +
         "(unsigned long long msize, int nodes, int ppn) {\n";
  render(0, 1, out);
  out += "}\n";
  return out;
}

void RuleTable::save(const std::filesystem::path& path) const {
  MPICP_SPAN("tune.ruletable.save");
  MPICP_REQUIRE(!nodes_.empty(), "saving an empty rule table");
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  const std::size_t n = nodes_.size();
  std::vector<int> features(n);
  std::vector<double> thresholds(n);
  std::vector<int> left(n);
  std::vector<int> right(n);
  for (std::size_t i = 0; i < n; ++i) {
    features[i] = nodes_[i].feature;
    thresholds[i] = nodes_[i].threshold;
    left[i] = nodes_[i].left;
    right[i] = nodes_[i].right;
  }
  std::ostringstream payload;
  ml::io::write_value(payload, agreement_);
  ml::io::write_vector(payload, features);
  ml::io::write_vector(payload, thresholds);
  ml::io::write_vector(payload, left);
  ml::io::write_vector(payload, right);

  std::ofstream os(path);
  if (!os) {
    MPICP_RAISE_ERROR("cannot open " + path.string() + " for writing");
  }
  os << "mpicp-ruletable 3 ";
  ml::io::write_sealed(os, payload.str());
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
  std::istringstream ps(ml::io::read_sealed(is, 1u << 28, "rule table"));
  RuleTable table;
  table.agreement_ = ml::io::read_value<double>(ps);
  const std::vector<int> features = ml::io::read_vector<int>(ps);
  const std::vector<double> thresholds = ml::io::read_vector<double>(ps);
  const std::vector<int> left = ml::io::read_vector<int>(ps);
  const std::vector<int> right = ml::io::read_vector<int>(ps);
  const std::size_t n = features.size();
  MPICP_CHECK_PARSE(n >= 1, "empty rule table file");
  MPICP_CHECK_PARSE(thresholds.size() == n && left.size() == n &&
                        right.size() == n,
                    "rule table array length mismatch");
  table.nodes_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    MPICP_CHECK_PARSE(features[i] >= -1 && features[i] < 3,
                      "rule table: bad feature index");
    if (features[i] >= 0) {
      MPICP_CHECK_PARSE(children_in_preorder(i, left[i], right[i], n),
                        "rule table: child index out of preorder range");
    }
    table.nodes_[i] = {.feature = features[i],
                       .threshold = thresholds[i],
                       .left = left[i],
                       .right = right[i]};
  }
  table.derive_bounds();
  return table;
}

RuleDistillation distill(const CompiledBank& bank,
                         std::span<const bench::Instance> grid,
                         RuleParams params) {
  MPICP_SPAN("tune.distill");
  MPICP_REQUIRE(!grid.empty(), "cannot distill over an empty grid");
  // Label the grid with the bank's own argmin — the picks the rules
  // must reproduce; fit() stamps the table's agreement with them.
  const std::vector<int> labels = bank.select_grid(grid);
  std::vector<LabeledInstance> points;
  points.reserve(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    points.push_back({grid[i], labels[i]});
  }
  RuleDistillation out{.table = RuleTable::fit(points, params),
                       .grid_points = grid.size()};
  static metrics::Counter& distilled = metrics::counter("ruletable.distilled");
  distilled.inc();
  return out;
}

}  // namespace mpicp::tune
