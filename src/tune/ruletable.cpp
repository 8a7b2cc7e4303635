#include "tune/ruletable.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include "ml/io.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "support/trace.hpp"
#include "tune/compiled_bank.hpp"

namespace mpicp::tune {

namespace metrics = support::metrics;

namespace {

/// The dispatch features, identical to DecisionRules::feature_of
/// evaluated once per instance: log2 is the only one that costs
/// anything. `feat` must hold at least 3 doubles.
inline void features_of(const bench::Instance& inst, double* feat) {
  feat[0] = std::log2(
      static_cast<double>(std::max<std::uint64_t>(inst.msize, 1)));
  feat[1] = static_cast<double>(inst.nodes);
  feat[2] = static_cast<double>(inst.ppn);
}

/// Per-instance feature stride in the batched kernel: 3 live features
/// padded to 4 so the row offset is a shift, not a multiply.
constexpr std::size_t kFeatStride = 4;

/// The legacy double comparison `feature(v) < thr` is monotone
/// non-increasing in the raw instance value v (uint64 -> double
/// conversion and log2 are both monotone), so the smallest v on which
/// it turns false — found by binary search *with the exact legacy
/// transform* — is an integer bound with the same truth table:
/// `v < integer_bound(f, thr)` takes the same branch as the legacy
/// compare on every representable instance. This moves std::log2 out
/// of the dispatch path entirely, into lowering.
///
/// When the comparison holds even at UINT64_MAX (thr = +inf, which
/// only the synthetic pass-through slots use), the bound saturates:
/// `v < UINT64_MAX` diverges only at v == UINT64_MAX, and pass-through
/// slots route both children to the same leaf, so the result is still
/// identical.
std::uint64_t integer_bound(int feature, double thr) {
  const auto below = [feature, thr](std::uint64_t v) {
    const double f =
        feature == 0
            ? std::log2(static_cast<double>(std::max<std::uint64_t>(v, 1)))
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

/// The raw integer features the integerized comparisons consume, in
/// the same order as DecisionRules::feature_of.
inline void raw_features_of(const bench::Instance& inst,
                            std::uint64_t* u) {
  u[0] = inst.msize;
  u[1] = static_cast<std::uint64_t>(inst.nodes);
  u[2] = static_cast<std::uint64_t>(inst.ppn);
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
      MPICP_REQUIRE(node.left >= 0 && node.left < static_cast<int>(n) &&
                        node.right >= 0 && node.right < static_cast<int>(n),
                    "rule tree child index out of range");
      table.feature_[i] = static_cast<std::int8_t>(node.feature);
      table.threshold_[i] = node.threshold;
      table.left_[i] = node.left;
      table.right_[i] = node.right;
    }
  }
  metrics::counter("ruletable.lowered").inc();
  table.build_blocked();
  return table;
}

void RuleTable::build_blocked() {
  MPICP_ASSERT(!feature_.empty(), "blocking an empty rule table");
  // Integerized thresholds for the whole pool (the spill walk uses
  // them; the block below copies its prefix).
  ithr_.assign(feature_.size(), 0);
  for (std::size_t i = 0; i < feature_.size(); ++i) {
    if (feature_[i] >= 0) {
      ithr_[i] = integer_bound(feature_[i], threshold_[i]);
    }
  }
  // Blocked levels: the deepest comparison level, capped so the block
  // stays a few cache lines. Subtrees below the cap spill back into
  // the flat pool.
  int levels = 0;
  std::vector<std::pair<std::int32_t, int>> stack;
  stack.reserve(64);
  stack.push_back({0, 0});
  while (!stack.empty()) {
    const auto [i, d] = stack.back();
    stack.pop_back();
    if (feature_[i] < 0) continue;
    levels = std::max(levels, d + 1);
    if (levels >= block_depth_cap_) {
      levels = block_depth_cap_;
      break;
    }
    stack.push_back({left_[i], d + 1});
    stack.push_back({right_[i], d + 1});
  }
  blk_levels_ = levels;
  const std::size_t inner = (std::size_t{1} << levels) - 1;
  const std::size_t exits = std::size_t{1} << levels;
  blk_ithr_.assign(inner, 0);
  blk_feat_.assign(inner, 0);
  blk_exit_.assign(exits, 0);
  std::vector<std::int32_t> assign(inner + exits, -1);
  assign[0] = 0;
  for (std::size_t s = 0; s < inner; ++s) {
    const std::int32_t i = assign[s];
    if (feature_[i] >= 0) {
      blk_feat_[s] = feature_[i];
      blk_ithr_[s] = ithr_[i];
      assign[2 * s + 1] = left_[i];
      assign[2 * s + 2] = right_[i];
    } else {
      // Pass-through slot for a leaf shallower than the block: both
      // children route to the same leaf, so the predicated step lands
      // where the legacy walk stops regardless of the comparison.
      blk_feat_[s] = 0;
      blk_ithr_[s] = std::numeric_limits<std::uint64_t>::max();
      assign[2 * s + 1] = i;
      assign[2 * s + 2] = i;
    }
  }
  for (std::size_t e = 0; e < exits; ++e) blk_exit_[e] = assign[inner + e];
}

int RuleTable::num_leaves() const {
  int leaves = 0;
  for (const std::int8_t f : feature_) leaves += f < 0 ? 1 : 0;
  return leaves;
}

int RuleTable::uid_for(const bench::Instance& inst) const {
  MPICP_ASSERT(!feature_.empty(), "dispatch on an empty rule table");
  std::uint64_t u[3];
  raw_features_of(inst, u);
  // Predicated walk through the blocked prefix — no data-dependent
  // branches, no log2 (integerized thresholds) — then the flat pool
  // finishes any spill (a no-op when the exit slot is already a leaf).
  const std::uint32_t exit_off = (1u << blk_levels_) - 1;
  std::uint32_t slot = 0;
  for (int d = 0; d < blk_levels_; ++d) {
    slot = 2 * slot + 1 +
           static_cast<std::uint32_t>(
               !(u[blk_feat_[slot]] < blk_ithr_[slot]));
  }
  std::int32_t cur = blk_exit_[slot - exit_off];
  while (feature_[cur] >= 0) {
    cur = u[feature_[cur]] < ithr_[cur] ? left_[cur] : right_[cur];
  }
  return left_[cur];
}

int RuleTable::uid_for_legacy(const bench::Instance& inst) const {
  MPICP_ASSERT(!feature_.empty(), "dispatch on an empty rule table");
  // The PR 8 walk: same arithmetic, data-dependent branches.
  double feat[3];
  features_of(inst, feat);
  std::int32_t cur = 0;
  std::int8_t f = feature_[0];
  while (f >= 0) {
    cur = feat[f] < threshold_[cur] ? left_[cur] : right_[cur];
    f = feature_[cur];
  }
  return left_[cur];
}

void RuleTable::select_grid_into(std::span<const bench::Instance> grid,
                                 std::span<int> out) const {
  MPICP_SPAN("tune.ruletable.select_grid");
  MPICP_REQUIRE(!feature_.empty(), "dispatch on an empty rule table");
  MPICP_REQUIRE(out.size() == grid.size(),
                "rule table output buffer size mismatch");
  // Cached references: registration takes a mutex + map walk, and the
  // registry never deallocates instruments, so pay it once per process
  // instead of once per ns-scale grid call.
  static metrics::Counter& grid_requests =
      metrics::counter("ruletable.grid_requests");
  static metrics::Counter& grid_instances =
      metrics::counter("ruletable.grid_instances");
  grid_requests.inc();
  grid_instances.inc(grid.size());
  const std::size_t n = grid.size();
  const std::size_t batches = (n + kDispatchBatch - 1) / kDispatchBatch;
  const std::uint32_t exit_off = (1u << blk_levels_) - 1;
  // Batched level-synchronous dispatch: each batch walks the block one
  // level at a time across all its instances, so the independent
  // comparisons pipeline instead of serializing on one branchy walk.
  const auto dispatch_batch = [&](std::size_t bi) {
    const std::size_t lo = bi * kDispatchBatch;
    const std::size_t count = std::min(kDispatchBatch, n - lo);
    std::uint64_t u[kDispatchBatch * kFeatStride];
    std::uint32_t slot[kDispatchBatch];
    for (std::size_t b = 0; b < count; ++b) {
      raw_features_of(grid[lo + b], u + b * kFeatStride);
      slot[b] = 0;
    }
    for (int d = 0; d < blk_levels_; ++d) {
      for (std::size_t b = 0; b < count; ++b) {
        const std::uint32_t s = slot[b];
        slot[b] = 2 * s + 1 +
                  static_cast<std::uint32_t>(
                      !(u[b * kFeatStride + blk_feat_[s]] <
                        blk_ithr_[s]));
      }
    }
    for (std::size_t b = 0; b < count; ++b) {
      std::int32_t cur = blk_exit_[slot[b] - exit_off];
      const std::uint64_t* f = u + b * kFeatStride;
      while (feature_[cur] >= 0) {
        cur = f[feature_[cur]] < ithr_[cur] ? left_[cur] : right_[cur];
      }
      out[lo + b] = left_[cur];
    }
  };
  // Grids of one pool chunk (64 batches ≈ 1024 instances) or less run
  // inline: parallel_for would serialize them anyway, and skipping it
  // skips a std::function construction per ns-scale call.
  constexpr std::size_t kGridChunk = 64;
  if (batches <= kGridChunk) {
    for (std::size_t bi = 0; bi < batches; ++bi) dispatch_batch(bi);
  } else {
    support::parallel_for(batches, kGridChunk, dispatch_batch);
  }
}

std::vector<int> RuleTable::select_grid(
    std::span<const bench::Instance> grid) const {
  std::vector<int> out(grid.size(), -1);
  select_grid_into(grid, out);
  return out;
}

void RuleTable::save(const std::filesystem::path& path) const {
  MPICP_SPAN("tune.ruletable.save");
  MPICP_REQUIRE(!feature_.empty(), "saving an empty rule table");
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  // Envelope discipline of the model files: serialize the payload to a
  // buffer first so the header carries its exact byte count and FNV-1a
  // checksum. The blocked-layout geometry follows the agreement.
  std::ostringstream payload;
  ml::io::write_value(payload, agreement_);
  ml::io::write_value(payload, block_depth_cap_);
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
  os << "mpicp-ruletable 2 " << body.size() << ' '
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
  MPICP_CHECK_PARSE(ml::io::read_value<int>(is) == 2,
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
  table.block_depth_cap_ = ml::io::read_value<int>(ps);
  MPICP_CHECK_PARSE(
      table.block_depth_cap_ >= 0 && table.block_depth_cap_ <= 20,
      "rule table: implausible block depth");
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
      const bool in_range =
          left[i] >= 0 && left[i] < static_cast<int>(n) && right[i] >= 0 &&
          right[i] < static_cast<int>(n);
      MPICP_CHECK_PARSE(in_range, "rule table: child index out of range");
    }
  }
  table.build_blocked();
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
