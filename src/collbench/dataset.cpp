#include "collbench/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <utility>

#include "support/csv.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/stats.hpp"
#include "support/str.hpp"
#include "support/table.hpp"
#include "support/trace.hpp"

namespace mpicp::bench {

Dataset::Dataset(std::string name, sim::MpiLib lib, sim::Collective coll,
                 std::string machine)
    : name_(std::move(name)),
      lib_(lib),
      coll_(coll),
      machine_(std::move(machine)) {}

std::size_t Dataset::KeyHash::operator()(const Key& k) const noexcept {
  // Exact fields in, one mixed word out: equal keys hash equal and no
  // field range is assumed, so distinct configurations never merge.
  std::uint64_t h = 0;
  for (const std::uint64_t v :
       {static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.uid)),
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.inst.nodes)),
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.inst.ppn)),
        k.inst.msize}) {
    h = (h ^ v) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
  }
  return static_cast<std::size_t>(h);
}

void Dataset::add(const Record& rec) {
  MPICP_REQUIRE(validate_record(rec).empty(), "malformed dataset record");
  add_unchecked(rec);
}

void Dataset::add_unchecked(const Record& rec) {
  records_.push_back(rec);
  const Instance inst{rec.nodes, rec.ppn, rec.msize};
  const auto [it, first] = samples_.try_emplace({rec.uid, inst});
  std::vector<double>& times = it->second;
  times.insert(std::upper_bound(times.begin(), times.end(), rec.time_us),
               rec.time_us);
  if (first) {
    uids_.insert(rec.uid);
    if (instances_.insert(inst).second) {
      node_counts_.insert(inst.nodes);
      ppns_.insert(inst.ppn);
      msizes_.insert(inst.msize);
    }
  }
}

std::vector<int> Dataset::uids() const {
  return {uids_.begin(), uids_.end()};
}

std::vector<int> Dataset::node_counts() const {
  return {node_counts_.begin(), node_counts_.end()};
}

std::vector<int> Dataset::ppns() const {
  return {ppns_.begin(), ppns_.end()};
}

std::vector<std::uint64_t> Dataset::msizes() const {
  return {msizes_.begin(), msizes_.end()};
}

bool Dataset::has(int uid, const Instance& inst) const {
  return samples_.contains({uid, inst});
}

double Dataset::time_us(int uid, const Instance& inst) const {
  const auto it = samples_.find({uid, inst});
  if (it == samples_.end()) {
    MPICP_RAISE_ARG("dataset " + name_ + ": no measurement for uid " +
                          std::to_string(uid) + " at n=" +
                          std::to_string(inst.nodes) + " ppn=" +
                          std::to_string(inst.ppn) + " m=" +
                          std::to_string(inst.msize));
  }
  return support::quantile_sorted(it->second, 0.5);
}

Dataset::Best Dataset::best(const Instance& inst) const {
  Best best;
  for (const int uid : uids_) {
    const auto it = samples_.find({uid, inst});
    if (it == samples_.end()) continue;
    const double t = support::quantile_sorted(it->second, 0.5);
    if (best.uid == 0 || t < best.time_us) best = {uid, t};
  }
  MPICP_REQUIRE(best.uid != 0, "no measurements for instance");
  return best;
}

std::vector<Instance> Dataset::instances() const {
  return {instances_.begin(), instances_.end()};
}

void Dataset::save_csv(const std::filesystem::path& path) const {
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  std::ofstream out(path);
  if (!out) MPICP_RAISE_ERROR("cannot open " + path.string() + " for writing");
  out << "uid,nodes,ppn,msize,time_us\n";
  for (const Record& r : records_) {
    out << r.uid << ',' << r.nodes << ',' << r.ppn << ',' << r.msize << ','
        << support::format_double(r.time_us, 17) << '\n';
  }
  if (!out) MPICP_RAISE_ERROR("failed writing CSV file " + path.string());
}

ClassifiedRow classify_row(std::span<const std::string_view> cells,
                           const RecordColumns& columns) {
  ClassifiedRow row;
  if (cells.size() != columns.width) {
    row.reason = "row width mismatch";
    return row;
  }
  std::int64_t uid = 0;
  std::int64_t nodes = 0;
  std::int64_t ppn = 0;
  std::int64_t msize = 0;
  try {
    uid = support::parse_int(cells[columns.uid]);
    nodes = support::parse_int(cells[columns.nodes]);
    ppn = support::parse_int(cells[columns.ppn]);
    msize = support::parse_int(cells[columns.msize]);
    row.record.time_us = support::parse_double(cells[columns.time_us]);
  } catch (const ParseError&) {
    row.reason = "unparseable field";
    return row;
  }
  if (!std::in_range<int>(uid) || !std::in_range<int>(nodes) ||
      !std::in_range<int>(ppn) || msize < 0) {
    row.reason = "bad configuration key";
    return row;
  }
  row.record.uid = static_cast<int>(uid);
  row.record.nodes = static_cast<int>(nodes);
  row.record.ppn = static_cast<int>(ppn);
  row.record.msize = static_cast<std::uint64_t>(msize);
  row.reason = validate_record(row.record);
  return row;
}

std::string validate_record(const Record& rec) {
  if (!std::isfinite(rec.time_us)) return "non-finite time";
  if (rec.time_us <= 0.0) return "non-positive time";
  if (rec.time_us > kMaxTimeUs) return "implausible time";
  if (rec.uid < 1 || rec.nodes < 1 || rec.ppn < 1) {
    return "bad configuration key";
  }
  return "";
}

namespace {

namespace metrics = support::metrics;

constexpr std::size_t kMaxSamples = 10;

/// Reads `path` row by row, in file order: each row classify_row
/// accepts is added to `ds` (classify_row has already applied add's
/// check), each one it rejects goes to `reject(lineno, reason)`.
template <typename Reject>
Dataset load_rows(const std::filesystem::path& path, Dataset ds,
                  Reject&& reject) {
  support::CsvReader reader(path);
  const RecordColumns columns{.width = reader.header().size(),
                              .uid = reader.column("uid"),
                              .nodes = reader.column("nodes"),
                              .ppn = reader.column("ppn"),
                              .msize = reader.column("msize"),
                              .time_us = reader.column("time_us")};
  while (reader.next()) {
    const ClassifiedRow row = classify_row(reader.cells(), columns);
    if (row.reason.empty()) {
      ds.add_unchecked(row.record);
    } else {
      reject(reader.lineno(), row.reason);
    }
  }
  return ds;
}

}  // namespace

Dataset Dataset::load_csv(const std::filesystem::path& path,
                          std::string name, sim::MpiLib lib,
                          sim::Collective coll, std::string machine) {
  return load_rows(path,
                   Dataset(std::move(name), lib, coll, std::move(machine)),
                   [&](std::size_t lineno, const std::string& reason) {
                     MPICP_RAISE_PARSE(path.string() + ":" +
                                       std::to_string(lineno) + ": " +
                                       reason);
                   });
}

Dataset Dataset::load_csv_tolerant(const std::filesystem::path& path,
                                   std::string name, sim::MpiLib lib,
                                   sim::Collective coll,
                                   std::string machine,
                                   IngestReport* report) {
  MPICP_SPAN("ingest.load_csv_tolerant");
  IngestReport local;
  Dataset ds = load_rows(
      path, Dataset(std::move(name), lib, coll, std::move(machine)),
      [&](std::size_t lineno, const std::string& reason) {
        ++local.rows_quarantined;
        ++local.reasons[reason];
        if (local.samples.size() < kMaxSamples) {
          local.samples.push_back({lineno, reason});
        }
      });
  local.rows_ingested = ds.num_records();
  local.rows_seen = local.rows_ingested + local.rows_quarantined;
  static metrics::Counter& files = metrics::counter("ingest.files");
  static metrics::Counter& rows_seen = metrics::counter("ingest.rows_seen");
  static metrics::Counter& rows_ingested =
      metrics::counter("ingest.rows_ingested");
  static metrics::Counter& rows_quarantined =
      metrics::counter("ingest.rows_quarantined");
  static metrics::Family<metrics::Counter> quarantined(
      "ingest.quarantine.", kQuarantineReasons);
  files.inc();
  rows_seen.inc(local.rows_seen);
  rows_ingested.inc(local.rows_ingested);
  rows_quarantined.inc(local.rows_quarantined);
  for (const auto& [reason, count] : local.reasons) {
    quarantined.get(reason).inc(count);
  }
  if (report) *report = local;
  return ds;
}

void print_ingest_report(std::ostream& os,
                         const IngestReport& report) {
  support::TextTable table({"ingest", "rows"});
  table.add_row({"seen", std::to_string(report.rows_seen)});
  table.add_row({"ingested", std::to_string(report.rows_ingested)});
  table.add_row({"quarantined", std::to_string(report.rows_quarantined)});
  for (const auto& [reason, count] : report.reasons) {
    table.add_row({"  " + reason, std::to_string(count)});
  }
  table.print(os);
  for (const IngestReport::Sample& s : report.samples) {
    os << "  quarantined line " << s.lineno << ": " << s.reason << '\n';
  }
}

}  // namespace mpicp::bench
