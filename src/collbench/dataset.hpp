// Measurement datasets (the Table II artifacts).
//
// A Dataset holds the raw benchmark observations of one (collective, MPI
// library, machine) triple over the full grid of algorithm configuration
// uids × nodes × ppn × message sizes, plus aggregation (median per
// configuration) and the exhaustive-search "best" lookup that the
// paper's evaluation uses as its reference point.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <ostream>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "simmpi/coll/registry.hpp"
#include "simmpi/coll/types.hpp"

namespace mpicp::bench {

/// One benchmark observation.
struct Record {
  int uid = 0;
  int nodes = 0;
  int ppn = 0;
  std::uint64_t msize = 0;
  double time_us = 0.0;
};

/// A communication problem instance (the paper's I = (F, m, n, N); the
/// collective F is carried by the owning Dataset).
struct Instance {
  int nodes = 0;
  int ppn = 0;
  std::uint64_t msize = 0;

  /// Lexicographic in (nodes, ppn, msize): the order instances() lists.
  auto operator<=>(const Instance&) const = default;
};

/// Timings above this are quarantined as implausible (1e9 us is ~17
/// minutes for a single collective — far past anything the Table II
/// grids produce; legitimate slow outliers stay well below it).
inline constexpr double kMaxTimeUs = 1e9;

/// Structured account of one tolerant CSV ingest: every input row is
/// either ingested or quarantined under a reason, and the counts add
/// up (rows_seen == rows_ingested + rows_quarantined).
struct IngestReport {
  std::size_t rows_seen = 0;
  std::size_t rows_ingested = 0;
  std::size_t rows_quarantined = 0;
  std::map<std::string, std::size_t> reasons;  ///< reason -> count

  struct Sample {
    std::size_t lineno = 0;
    std::string reason;
  };
  /// The first ten quarantined rows, in file order, for log output.
  std::vector<Sample> samples;

  bool clean() const { return rows_quarantined == 0; }
};

/// Where a row's five fields sit among its cells, and how many cells a
/// row must have. The defaults are the stream's fixed layout
/// (uid,nodes,ppn,msize,time_us); the CSV loaders take theirs from the
/// file's header.
struct RecordColumns {
  std::size_t width = 5;
  std::size_t uid = 0;
  std::size_t nodes = 1;
  std::size_t ppn = 2;
  std::size_t msize = 3;
  std::size_t time_us = 4;
};

/// One row classified: the record it holds, or the reason (one of
/// kQuarantineReasons) it is rejected under.
struct ClassifiedRow {
  Record record;
  std::string reason;  ///< "" when the row is ingestible
};

/// The one validity rule for a row of cells, checked in this order: the
/// row's width, that every field parses, that the key fits its fields (a
/// uid, node or ppn count inside `int`, a non-negative message size, so
/// an out-of-range value never wraps into a valid-looking key), then
/// validate_record. The strict and tolerant CSV loaders and
/// StreamPipeline::push_row all read their rows through this.
[[nodiscard]] ClassifiedRow classify_row(
    std::span<const std::string_view> cells, const RecordColumns& columns);

/// Semantic validation of one observation against the tolerant-ingest
/// rules. Returns the quarantine reason — exactly the strings
/// Dataset::load_csv_tolerant accounts under ("non-finite time",
/// "non-positive time", "implausible time", "bad configuration key") —
/// or "" when the record is ingestible. Dataset::add and
/// StreamPipeline::push hold every record to it.
[[nodiscard]] std::string validate_record(const Record& rec);

/// Every reason a tolerant reader quarantines a row under: the
/// structural ones ("row width mismatch", "unparseable field") and
/// those validate_record returns.
inline constexpr const char* kQuarantineReasons[] = {
    "row width mismatch", "unparseable field", "bad configuration key",
    "non-finite time",    "non-positive time", "implausible time"};

class Dataset {
 public:
  Dataset(std::string name, sim::MpiLib lib, sim::Collective coll,
          std::string machine);

  const std::string& name() const { return name_; }
  sim::MpiLib lib() const { return lib_; }
  sim::Collective collective() const { return coll_; }
  const std::string& machine() const { return machine_; }

  /// Appends a record that passes validate_record; throws
  /// InvalidArgument otherwise.
  void add(const Record& rec);

  /// Fault-injection entry: append a record without validation, so tests
  /// can plant NaN/negative/outlier timings and exercise the downstream
  /// screening (Selector::fit drops such rows per uid). Never use for
  /// real measurements — add() is the validated path.
  void add_unchecked(const Record& rec);

  std::size_t num_records() const { return records_.size(); }
  const std::vector<Record>& records() const { return records_; }

  /// All uids / node counts / ppns / message sizes present (sorted),
  /// read from the index add() keeps.
  std::vector<int> uids() const;
  std::vector<int> node_counts() const;
  std::vector<int> ppns() const;
  std::vector<std::uint64_t> msizes() const;

  bool has(int uid, const Instance& inst) const;

  /// Median measured time of one configuration; throws if absent. A
  /// read of the samples add() keeps sorted: no allocation, no lock.
  double time_us(int uid, const Instance& inst) const;

  /// Empirically best configuration for an instance (argmin of median
  /// time over all uids measured there, scanned in ascending uid order,
  /// so an exact tie goes to the lowest uid).
  struct Best {
    int uid = 0;
    double time_us = 0.0;
  };
  Best best(const Instance& inst) const;

  /// All instances (n, ppn, m) present in the dataset (sorted).
  std::vector<Instance> instances() const;

  // ---- persistence ----------------------------------------------------
  void save_csv(const std::filesystem::path& path) const;
  /// Strict ingest: raises ParseError "<path>:<line>: <reason>" at the
  /// first row, in file order, that classify_row rejects.
  [[nodiscard]] static Dataset load_csv(const std::filesystem::path& path,
                          std::string name, sim::MpiLib lib,
                          sim::Collective coll, std::string machine);

  /// Tolerant ingest: every row classify_row rejects is quarantined into
  /// `report`, in file order, instead of aborting the load. File-level
  /// failures (missing file, bad header) still throw. On a file
  /// load_csv accepts this is byte-for-byte equivalent to it.
  [[nodiscard]] static Dataset load_csv_tolerant(
      const std::filesystem::path& path,
                                   std::string name, sim::MpiLib lib,
                                   sim::Collective coll,
                                   std::string machine,
                                   IngestReport* report = nullptr);

 private:
  /// Exact identity of one configuration's measurements.
  struct Key {
    int uid = 0;
    Instance inst;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept;
  };

  std::string name_;
  sim::MpiLib lib_;
  sim::Collective coll_;
  std::string machine_;
  std::vector<Record> records_;
  // Each configuration's timings, kept sorted as rows are added.
  std::unordered_map<Key, std::vector<double>, KeyHash> samples_;
  // The index: distinct values of every key field, kept sorted as rows
  // are added. A row whose (uid, instance) is already in samples_ adds
  // nothing to it, so only the first row of a configuration touches it.
  std::set<int> uids_;
  std::set<Instance> instances_;
  std::set<int> node_counts_;
  std::set<int> ppns_;
  std::set<std::uint64_t> msizes_;
};

/// Render an ingest health report as an aligned table (support/table).
void print_ingest_report(std::ostream& os, const IngestReport& report);

}  // namespace mpicp::bench
