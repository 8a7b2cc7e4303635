#include "collbench/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <span>
#include <string_view>
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
  MPICP_REQUIRE(rec.uid >= 1 && rec.time_us > 0.0 && rec.nodes >= 1 &&
                    rec.ppn >= 1,
                "malformed dataset record");
  add_unchecked(rec);
}

void Dataset::add_unchecked(const Record& rec) {
  records_.push_back(rec);
  const Instance inst{rec.nodes, rec.ppn, rec.msize};
  const auto [it, first] = samples_.try_emplace({rec.uid, inst});
  it->second.push_back(rec.time_us);
  if (first) {
    uids_.insert(rec.uid);
    if (instances_.insert(inst).second) {
      node_counts_.insert(inst.nodes);
      ppns_.insert(inst.ppn);
      msizes_.insert(inst.msize);
    }
  }
  MedianCache& cache = median_cache_;
  const support::MutexLock lock(cache.mu);
  cache.values.clear();
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
  const Key k{uid, inst};
  MedianCache& cache = median_cache_;
  {
    const support::MutexLock lock(cache.mu);
    const auto cached = cache.values.find(k);
    if (cached != cache.values.end()) return cached->second;
  }
  const auto it = samples_.find(k);
  if (it == samples_.end()) {
    MPICP_RAISE_ARG("dataset " + name_ + ": no measurement for uid " +
                          std::to_string(uid) + " at n=" +
                          std::to_string(inst.nodes) + " ppn=" +
                          std::to_string(inst.ppn) + " m=" +
                          std::to_string(inst.msize));
  }
  const double med = support::median(it->second);
  const support::MutexLock lock(cache.mu);
  cache.values.emplace(k, med);
  return med;
}

Dataset::Best Dataset::best(const Instance& inst) const {
  Best best;
  for (const int uid : uids_) {
    if (!has(uid, inst)) continue;
    const double t = time_us(uid, inst);
    if (best.uid == 0 || t < best.time_us) best = {uid, t};
  }
  MPICP_REQUIRE(best.uid != 0, "no measurements for instance");
  return best;
}

std::vector<Instance> Dataset::instances() const {
  return {instances_.begin(), instances_.end()};
}

void Dataset::save_csv(const std::filesystem::path& path) const {
  support::CsvTable table({"uid", "nodes", "ppn", "msize", "time_us"});
  for (const Record& r : records_) {
    table.add_row({std::to_string(r.uid), std::to_string(r.nodes),
                   std::to_string(r.ppn), std::to_string(r.msize),
                   support::format_double(r.time_us, 17)});
  }
  support::write_csv(path, table);
}

namespace {

namespace metrics = support::metrics;

/// The five columns of a dataset CSV, resolved once per file.
struct RecordColumns {
  explicit RecordColumns(const support::CsvReader& reader)
      : uid(reader.column("uid")),
        nodes(reader.column("nodes")),
        ppn(reader.column("ppn")),
        msize(reader.column("msize")),
        time_us(reader.column("time_us")) {}

  std::size_t uid;
  std::size_t nodes;
  std::size_t ppn;
  std::size_t msize;
  std::size_t time_us;
};

/// A row's configuration key, its cells parsed in the order uid, nodes,
/// ppn, msize; throws ParseError at the first unparseable one.
ParsedKey parse_key(std::span<const std::string_view> cells,
                    const RecordColumns& c) {
  return {support::parse_int(cells[c.uid]),
          support::parse_int(cells[c.nodes]),
          support::parse_int(cells[c.ppn]),
          support::parse_int(cells[c.msize])};
}

constexpr std::size_t kMaxSamples = 10;

void quarantine(IngestReport& report, std::size_t lineno,
                const std::string& reason) {
  ++report.rows_quarantined;
  ++report.reasons[reason];
  if (report.samples.size() < kMaxSamples) {
    report.samples.push_back({lineno, reason});
  }
}

/// Accounts the rows `first` quarantined ahead of those `report` did.
void prepend(IngestReport& report, IngestReport first) {
  report.rows_quarantined += first.rows_quarantined;
  for (const auto& [reason, count] : first.reasons) {
    report.reasons[reason] += count;
  }
  for (const IngestReport::Sample& s : report.samples) {
    if (first.samples.size() == kMaxSamples) break;
    first.samples.push_back(s);
  }
  report.samples = std::move(first.samples);
}

}  // namespace

Dataset Dataset::load_csv(const std::filesystem::path& path,
                          std::string name, sim::MpiLib lib,
                          sim::Collective coll, std::string machine) {
  support::CsvReader reader(path);
  const RecordColumns c(reader);
  Dataset ds(std::move(name), lib, coll, std::move(machine));
  // A row-width mismatch anywhere in the file is the error, as when the
  // whole table was read before its first cell was parsed; failing that,
  // the first row that fails to parse or to add. So a row's failure is
  // held back until the rest of the file has passed the width check.
  std::exception_ptr row_error;
  std::size_t data_row = 0;
  while (reader.next()) {
    const auto cells = reader.cells();
    if (cells.size() != reader.header().size()) {
      MPICP_RAISE_PARSE(path.string() + ":" +
                        std::to_string(reader.lineno()) +
                        ": row width mismatch");
    }
    ++data_row;
    if (row_error) continue;
    try {
      Record rec;
      MPICP_CHECK_PARSE(narrow_key(parse_key(cells, c), rec),
                        path.string() + ": data row " +
                            std::to_string(data_row) +
                            ": configuration key out of range");
      rec.time_us = support::parse_double(cells[c.time_us]);
      ds.add(rec);
    } catch (const Error&) {
      row_error = std::current_exception();
    }
  }
  if (row_error) std::rethrow_exception(row_error);
  return ds;
}

bool narrow_key(const ParsedKey& key, Record& rec) {
  if (!std::in_range<int>(key.uid) || !std::in_range<int>(key.nodes) ||
      !std::in_range<int>(key.ppn) || key.msize < 0) {
    return false;
  }
  rec.uid = static_cast<int>(key.uid);
  rec.nodes = static_cast<int>(key.nodes);
  rec.ppn = static_cast<int>(key.ppn);
  rec.msize = static_cast<std::uint64_t>(key.msize);
  return true;
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

Dataset Dataset::load_csv_tolerant(const std::filesystem::path& path,
                                   std::string name, sim::MpiLib lib,
                                   sim::Collective coll,
                                   std::string machine,
                                   IngestReport* report) {
  MPICP_SPAN("ingest.load_csv_tolerant");
  support::CsvReader reader(path);
  const RecordColumns c(reader);
  Dataset ds(std::move(name), lib, coll, std::move(machine));
  // Rows of the wrong width are accounted ahead of every other
  // quarantined row, as when the whole table was read before its first
  // cell was parsed: the report's samples list them first.
  IngestReport local;
  IngestReport misshapen;
  while (reader.next()) {
    ++local.rows_seen;
    const std::size_t lineno = reader.lineno();
    const auto cells = reader.cells();
    if (cells.size() != reader.header().size()) {
      quarantine(misshapen, lineno, "row width mismatch");
      continue;
    }
    Record rec;
    bool key_in_range = false;
    try {
      key_in_range = narrow_key(parse_key(cells, c), rec);
      rec.time_us = support::parse_double(cells[c.time_us]);
    } catch (const ParseError&) {
      quarantine(local, lineno, "unparseable field");
      continue;
    }
    const std::string reason =
        key_in_range ? validate_record(rec) : "bad configuration key";
    if (!reason.empty()) {
      quarantine(local, lineno, reason);
    } else {
      ds.add(rec);
      ++local.rows_ingested;
    }
  }
  prepend(local, std::move(misshapen));
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
