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
#include <string>
#include <unordered_map>
#include <vector>

#include "simmpi/coll/registry.hpp"
#include "simmpi/coll/types.hpp"
#include "support/thread_safety.hpp"

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
  /// The first few quarantined rows, for log output.
  std::vector<Sample> samples;

  bool clean() const { return rows_quarantined == 0; }
};

/// One row's configuration key as parsed from text, before narrowing.
struct ParsedKey {
  std::int64_t uid = 0;
  std::int64_t nodes = 0;
  std::int64_t ppn = 0;
  std::int64_t msize = 0;
};

/// Narrows a parsed key into `rec`. Returns false, leaving `rec`
/// untouched, when a value does not fit its field: a uid, node or ppn
/// count outside `int`, or a negative message size. Every CSV and
/// stream reader takes its keys through this, so an out-of-range value
/// never wraps into a valid-looking key; the tolerant readers
/// quarantine such a row as "bad configuration key", the strict loader
/// raises ParseError.
[[nodiscard]] bool narrow_key(const ParsedKey& key, Record& rec);

/// Semantic validation of one observation against the tolerant-ingest
/// rules. Returns the quarantine reason — exactly the strings
/// Dataset::load_csv_tolerant accounts under ("non-finite time",
/// "non-positive time", "implausible time", "bad configuration key") —
/// or "" when the record is ingestible. Streaming consumers reuse this
/// so their quarantine accounting matches file ingest byte for byte.
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

  /// Median measured time of one configuration; throws if absent.
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
  [[nodiscard]] static Dataset load_csv(const std::filesystem::path& path,
                          std::string name, sim::MpiLib lib,
                          sim::Collective coll, std::string machine);

  /// Tolerant ingest: structurally or semantically bad rows (wrong cell
  /// count, unparseable fields, non-finite / non-positive / implausible
  /// timings) are quarantined into `report` instead of aborting the
  /// load. File-level failures (missing file, bad header) still throw.
  /// On a clean file this is byte-for-byte equivalent to load_csv.
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
  std::unordered_map<Key, std::vector<double>, KeyHash> samples_;
  // The index: distinct values of every key field, kept sorted as rows
  // are added. A row whose (uid, instance) is already in samples_ adds
  // nothing to it, so only the first row of a configuration touches it.
  std::set<int> uids_;
  std::set<Instance> instances_;
  std::set<int> node_counts_;
  std::set<int> ppns_;
  std::set<std::uint64_t> msizes_;
  // Lazily cached medians — the only mutable state behind the const
  // query API, so it carries its own lock: time_us()/best() are called
  // concurrently from the parallel evaluator and selector paths. Each
  // Dataset owns its cache: a copy or move starts with an empty one
  // (medians are recomputed on demand), so copies that diverge never
  // read each other's medians, and Dataset stays copyable and movable.
  struct MedianCache {
    MedianCache() = default;
    MedianCache(const MedianCache& /*other*/) noexcept {}
    MedianCache& operator=(const MedianCache& other) {
      if (this != &other) {
        const support::MutexLock lock(mu);
        values.clear();
      }
      return *this;
    }

    support::Mutex mu;
    std::unordered_map<Key, double, KeyHash> values MPICP_GUARDED_BY(mu);
  };
  mutable MedianCache median_cache_;
};

/// Render an ingest health report as an aligned table (support/table).
void print_ingest_report(std::ostream& os, const IngestReport& report);

}  // namespace mpicp::bench
