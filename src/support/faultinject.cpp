#include "support/faultinject.hpp"

#include <atomic>
#include <sstream>

#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"
#include "support/thread_safety.hpp"

namespace mpicp::support::faultinject {

const char* csv_fault_label(CsvFault kind) {
  switch (kind) {
    case CsvFault::kNaNValue: return "nan-value";
    case CsvFault::kNegativeValue: return "negative-value";
    case CsvFault::kOutlierValue: return "outlier-value";
    case CsvFault::kMalformedToken: return "malformed-token";
    case CsvFault::kTruncatedRow: return "truncated-row";
    case CsvFault::kDroppedRow: return "dropped-row";
  }
  return "unknown";
}

namespace {

/// The six kinds in deterministic rotation, so every kind appears once
/// the faulted-row count reaches six regardless of the seed.
constexpr CsvFault kCycle[] = {
    CsvFault::kNaNValue,      CsvFault::kNegativeValue,
    CsvFault::kOutlierValue,  CsvFault::kMalformedToken,
    CsvFault::kTruncatedRow,  CsvFault::kDroppedRow,
};

}  // namespace

CsvFault csv_fault_cycle(std::size_t i) {
  return kCycle[i % std::size(kCycle)];
}

std::optional<std::string> corrupt_csv_row(const std::string& line,
                                           CsvFault kind,
                                           std::size_t value_column) {
  auto cells = split(line, ',');
  const std::size_t col =
      value_column < cells.size() ? value_column : cells.size() - 1;
  switch (kind) {
    case CsvFault::kNaNValue:
      cells[col] = "nan";
      break;
    case CsvFault::kNegativeValue:
      cells[col] = "-" + cells[col];
      break;
    case CsvFault::kOutlierValue:
      // Past any plausible collective timing (see bench::kMaxTimeUs), no
      // matter how small the original value was.
      cells[col] = "1e15";
      break;
    case CsvFault::kMalformedToken:
      cells[col] = "##corrupt##";
      break;
    case CsvFault::kTruncatedRow: {
      // Cut the line at its last separator, as a killed benchmark
      // process flushing a partial write would — guaranteed to change
      // the cell count (a mid-cell cut can accidentally leave a row
      // that still parses, which would break exact fault accounting).
      const std::string joined = join(cells, ",");
      const std::size_t cut = joined.rfind(',');
      return joined.substr(0, cut == std::string::npos ? 0 : cut);
    }
    case CsvFault::kDroppedRow:
      return std::nullopt;
  }
  return join(cells, ",");
}

std::string corrupt_csv(const std::string& text, const CsvFaultPlan& plan,
                        CsvFaultLog* log) {
  MPICP_REQUIRE(plan.fault_rate >= 0.0 && plan.fault_rate <= 1.0,
                "fault rate must be in [0, 1]");
  std::istringstream in(text);
  std::ostringstream out;
  std::string line;
  CsvFaultLog local;
  Xoshiro256 rng(plan.seed);
  bool header = true;
  std::size_t kind_cursor = 0;
  while (std::getline(in, line)) {
    if (header) {
      out << line << '\n';
      header = false;
      continue;
    }
    if (trim(line).empty()) continue;
    ++local.rows_total;
    if (rng.uniform() >= plan.fault_rate) {
      out << line << '\n';
      continue;
    }
    const CsvFault kind = csv_fault_cycle(kind_cursor++);
    ++local.rows_faulted;
    ++local.by_kind[csv_fault_label(kind)];
    const auto corrupted = corrupt_csv_row(line, kind, plan.value_column);
    if (!corrupted) {
      ++local.rows_dropped;
      continue;
    }
    out << *corrupted << '\n';
  }
  if (log) *log = local;
  return out.str();
}

std::string corrupt_stream(const std::string& text,
                           const StreamFaultPlan& plan) {
  std::string out = text;
  if (plan.truncate_at >= 0 &&
      static_cast<std::size_t>(plan.truncate_at) < out.size()) {
    out.resize(static_cast<std::size_t>(plan.truncate_at));
  }
  Xoshiro256 rng(plan.seed);
  for (int i = 0; i < plan.char_flips && !out.empty(); ++i) {
    const std::size_t pos = rng.uniform_int(out.size());
    // Swap a digit-ish character for a different one; replacing with an
    // arbitrary byte could produce an identical character or kill the
    // line structure, which is a different fault (truncation covers it).
    out[pos] = out[pos] == '7' ? '3' : '7';
  }
  return out;
}

// ---- process-global sabotage --------------------------------------------

namespace {

std::atomic<bool> g_active{false};
Mutex g_mu;
const Faults* g_faults MPICP_GUARDED_BY(g_mu) = nullptr;  // armed (borrowed)
std::map<int, int> g_fit_budget
    MPICP_GUARDED_BY(g_mu);  // mutable copy of fit_failures

}  // namespace

ScopedFaults::ScopedFaults(Faults faults) : faults_(std::move(faults)) {
  const MutexLock lock(g_mu);
  previous_ = g_faults;
  g_faults = &faults_;
  g_fit_budget = g_faults->fit_failures;
  // order: fast-path hint only; readers that act on it re-check the
  // armed table under g_mu.
  g_active.store(true, std::memory_order_relaxed);
}

ScopedFaults::~ScopedFaults() {
  const MutexLock lock(g_mu);
  g_faults = previous_;
  g_fit_budget =
      g_faults ? g_faults->fit_failures : std::map<int, int>{};
  // order: fast-path hint only (see ScopedFaults constructor).
  g_active.store(g_faults != nullptr, std::memory_order_relaxed);
}

bool active() {
  // order: fast-path hint only (see ScopedFaults constructor).
  return g_active.load(std::memory_order_relaxed);
}

bool consume_fit_failure(int uid) {
  if (!active()) return false;
  const MutexLock lock(g_mu);
  const auto it = g_fit_budget.find(uid);
  if (it == g_fit_budget.end() || it->second <= 0) return false;
  --it->second;
  return true;
}

}  // namespace mpicp::support::faultinject
