// bench_check: the CI bench-regression gate. Compares one or more
// BENCH_*.json reports (bench/bench_json.hpp schema) against the
// committed bench/baseline.json and fails — exit 1 — only when a
// p99-class latency key regresses by more than the threshold, or when
// a p99-class baseline key is missing from the current run of its
// bench (dropping a gate takes a visible edit to baseline.json). Every
// other drift (p50, throughput, speedup, neutral counters, other
// missing keys) is advisory: it lands in the comparison report
// artifact but keeps the gate green, so noisy-but-harmless runner
// variance cannot block a merge while tail-latency regressions still
// can.
//
// Usage:
//   bench_check --baseline bench/baseline.json \
//               --current BENCH_prediction.json [--current ...] \
//               [--threshold 0.25] [--report bench-compare.txt]
//   bench_check --write-baseline bench/baseline.json --current ...
//
// Exit codes: 0 green (possibly with advisories), 1 blocking p99
// regression or missing p99 key, 2 usage or parse error.
//
// Like mpicp_lint, this tool depends only on the standard library so
// it builds before (and independently of) the project libraries.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

// ---------------------------------------------------------------------
// Minimal JSON reader for the flat bench schema: objects, strings and
// numbers only (arrays/booleans/null never appear in bench reports and
// are rejected loudly rather than mis-parsed).
// ---------------------------------------------------------------------
struct JsonValue {
  enum class Kind { kString, kNumber, kObject };
  Kind kind = Kind::kNumber;
  std::string str;
  double num = 0.0;
  std::map<std::string, JsonValue> obj;  // insertion order irrelevant
};

struct Parser {
  const std::string& text;
  std::size_t pos = 0;
  std::string error;

  explicit Parser(const std::string& t) : text(t) {}

  void skip_ws() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }

  bool fail(const std::string& why) {
    if (error.empty()) {
      error = why + " at offset " + std::to_string(pos);
    }
    return false;
  }

  bool parse_string(std::string* out) {
    skip_ws();
    if (pos >= text.size() || text[pos] != '"') {
      return fail("expected '\"'");
    }
    ++pos;
    out->clear();
    while (pos < text.size() && text[pos] != '"') {
      if (text[pos] == '\\') return fail("escapes unsupported");
      out->push_back(text[pos++]);
    }
    if (pos >= text.size()) return fail("unterminated string");
    ++pos;
    return true;
  }

  bool parse_number(double* out) {
    skip_ws();
    const char* start = text.c_str() + pos;
    char* end = nullptr;
    *out = std::strtod(start, &end);
    if (end == start) return fail("expected number");
    pos += static_cast<std::size_t>(end - start);
    return true;
  }

  bool parse_value(JsonValue* out) {
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    if (c == '{') return parse_object(out);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return parse_string(&out->str);
    }
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      out->kind = JsonValue::Kind::kNumber;
      return parse_number(&out->num);
    }
    return fail("unsupported JSON value (arrays/bool/null not allowed)");
  }

  bool parse_object(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    skip_ws();
    if (pos >= text.size() || text[pos] != '{') return fail("expected '{'");
    ++pos;
    skip_ws();
    if (pos < text.size() && text[pos] == '}') {
      ++pos;
      return true;
    }
    while (true) {
      std::string key;
      if (!parse_string(&key)) return false;
      skip_ws();
      if (pos >= text.size() || text[pos] != ':') return fail("expected ':'");
      ++pos;
      JsonValue value;
      if (!parse_value(&value)) return false;
      out->obj.emplace(std::move(key), std::move(value));
      skip_ws();
      if (pos < text.size() && text[pos] == ',') {
        ++pos;
        continue;
      }
      if (pos < text.size() && text[pos] == '}') {
        ++pos;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }
};

bool read_file(const std::string& path, std::string* out,
               std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  out->assign((std::istreambuf_iterator<char>(in)),
              std::istreambuf_iterator<char>());
  return true;
}

// ---------------------------------------------------------------------
// Bench-report model: one report = bench name + flat metric map.
// ---------------------------------------------------------------------
using Metrics = std::map<std::string, double>;

struct BenchReport {
  std::string name;
  Metrics metrics;
};

bool load_bench_report(const std::string& path, BenchReport* out,
                       std::string* error) {
  std::string text;
  if (!read_file(path, &text, error)) return false;
  Parser parser(text);
  JsonValue root;
  if (!parser.parse_object(&root)) {
    *error = path + ": " + parser.error;
    return false;
  }
  const auto bench_it = root.obj.find("bench");
  const auto metrics_it = root.obj.find("metrics");
  if (bench_it == root.obj.end() ||
      bench_it->second.kind != JsonValue::Kind::kString ||
      metrics_it == root.obj.end() ||
      metrics_it->second.kind != JsonValue::Kind::kObject) {
    *error = path + ": not a bench report (need \"bench\" + \"metrics\")";
    return false;
  }
  out->name = bench_it->second.str;
  for (const auto& [key, value] : metrics_it->second.obj) {
    if (value.kind != JsonValue::Kind::kNumber) {
      *error = path + ": metric '" + key + "' is not a number";
      return false;
    }
    out->metrics[key] = value.num;
  }
  return true;
}

// Baseline schema: {"schema": 1, "benches": {"<name>": {"<key>": n}}}.
bool load_baseline(const std::string& path,
                   std::map<std::string, Metrics>* out,
                   std::string* error) {
  std::string text;
  if (!read_file(path, &text, error)) return false;
  Parser parser(text);
  JsonValue root;
  if (!parser.parse_object(&root)) {
    *error = path + ": " + parser.error;
    return false;
  }
  const auto benches_it = root.obj.find("benches");
  if (benches_it == root.obj.end() ||
      benches_it->second.kind != JsonValue::Kind::kObject) {
    *error = path + ": not a baseline (need a \"benches\" object)";
    return false;
  }
  for (const auto& [name, metrics] : benches_it->second.obj) {
    if (metrics.kind != JsonValue::Kind::kObject) {
      *error = path + ": bench '" + name + "' is not an object";
      return false;
    }
    Metrics m;
    for (const auto& [key, value] : metrics.obj) {
      if (value.kind != JsonValue::Kind::kNumber) {
        *error = path + ": '" + name + "." + key + "' is not a number";
        return false;
      }
      m[key] = value.num;
    }
    (*out)[name] = std::move(m);
  }
  return true;
}

bool write_baseline(const std::string& path,
                    const std::map<std::string, Metrics>& benches,
                    std::string* error) {
  std::ofstream os(path);
  if (!os) {
    *error = "cannot open " + path + " for writing";
    return false;
  }
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "{\n  \"schema\": 1,\n  \"benches\": {";
  bool first_bench = true;
  for (const auto& [name, metrics] : benches) {
    os << (first_bench ? "\n" : ",\n") << "    \"" << name << "\": {";
    bool first_key = true;
    for (const auto& [key, value] : metrics) {
      os << (first_key ? "\n" : ",\n") << "      \"" << key
         << "\": " << value;
      first_key = false;
    }
    os << "\n    }";
    first_bench = false;
  }
  os << "\n  }\n}\n";
  return static_cast<bool>(os);
}

// ---------------------------------------------------------------------
// Comparison semantics. Only p99-class latency keys can block; other
// directional keys (p50, *_us, throughput, speedup) regressing past
// the threshold are advisory; everything else (counters, run shape) is
// informational.
// ---------------------------------------------------------------------
bool contains(const std::string& s, const std::string& needle) {
  return s.find(needle) != std::string::npos;
}

enum class Direction { kLowerBetter, kHigherBetter, kNeutral };

Direction direction_of(const std::string& key) {
  if (contains(key, "speedup") || contains(key, "throughput") ||
      contains(key, "qps")) {
    return Direction::kHigherBetter;
  }
  // "_us" as suffix or infix: p99_us, single_us_interpreted, ...
  if (contains(key, "_us") || contains(key, "latency") ||
      contains(key, "p50") || contains(key, "p99")) {
    return Direction::kLowerBetter;
  }
  return Direction::kNeutral;
}

bool is_blocking_key(const std::string& key) {
  return contains(key, "p99");
}

struct Row {
  std::string bench;
  std::string key;
  double baseline = 0.0;
  double current = 0.0;
  double change = 0.0;  // relative, + means worse for directional keys
  std::string status;   // "ok" | "improved" | "info" | "ADVISORY" | "BLOCKING"
  bool missing = false;  // baseline key absent from the current run
};

std::string format_pct(double change) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%+.1f%%", change * 100.0);
  return buf;
}

std::string format_value(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

void compare_report(const BenchReport& report, const Metrics& baseline,
                    double threshold, std::vector<Row>* rows,
                    int* blocking) {
  for (const auto& [key, current] : report.metrics) {
    Row row{report.name, key, 0.0, current, 0.0, "info"};
    const auto base_it = baseline.find(key);
    if (base_it == baseline.end()) {
      row.status = "info (no baseline key)";
      rows->push_back(row);
      continue;
    }
    row.baseline = base_it->second;
    const Direction dir = direction_of(key);
    if (dir == Direction::kNeutral || row.baseline == 0.0) {
      rows->push_back(row);
      continue;
    }
    const double delta = (current - row.baseline) / row.baseline;
    row.change = dir == Direction::kLowerBetter ? delta : -delta;
    if (row.change <= 0.0) {
      row.status = row.change < 0.0 ? "improved" : "ok";
    } else if (row.change <= threshold) {
      row.status = "ok";
    } else if (is_blocking_key(key)) {
      row.status = "BLOCKING";
      ++*blocking;
    } else {
      row.status = "ADVISORY";
    }
    rows->push_back(row);
  }
  // A baseline key the run no longer emits: blocking when it is a p99
  // gate, so a bench cannot drop one silently.
  for (const auto& [key, base] : baseline) {
    if (report.metrics.count(key) != 0) continue;
    Row row{report.name, key, base, 0.0, 0.0, "", true};
    if (is_blocking_key(key)) {
      row.status = "BLOCKING (missing from current run)";
      ++*blocking;
    } else {
      row.status = "ADVISORY (missing from current run)";
    }
    rows->push_back(row);
  }
}

void print_rows(std::ostream& os, const std::vector<Row>& rows,
                double threshold, int blocking) {
  os << "bench_check: threshold " << format_pct(threshold)
     << " on p99-class keys\n\n";
  os << "bench               key                                   "
     << "baseline      current       worse-by   status\n";
  for (const Row& row : rows) {
    char line[256];
    std::snprintf(line, sizeof line, "%-19s %-37s %-13s %-13s %-10s %s\n",
                  row.bench.c_str(), row.key.c_str(),
                  format_value(row.baseline).c_str(),
                  row.missing ? "-" : format_value(row.current).c_str(),
                  row.missing ? "-" : format_pct(row.change).c_str(),
                  row.status.c_str());
    os << line;
  }
  os << "\nresult: "
     << (blocking > 0 ? "FAIL (" + std::to_string(blocking) +
                            " blocking p99 regression(s) or missing "
                            "p99 key(s))"
                      : "PASS")
     << "\n";
}

int usage() {
  std::fprintf(
      stderr,
      "usage: bench_check --baseline FILE --current FILE [--current ...]\n"
      "                   [--threshold 0.25] [--report FILE]\n"
      "       bench_check --write-baseline FILE --current FILE [...]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string write_path;
  std::string report_path;
  std::vector<std::string> current_paths;
  double threshold = 0.25;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--baseline") {
      const char* v = next();
      if (!v) return usage();
      baseline_path = v;
    } else if (arg == "--write-baseline") {
      const char* v = next();
      if (!v) return usage();
      write_path = v;
    } else if (arg == "--current") {
      const char* v = next();
      if (!v) return usage();
      current_paths.push_back(v);
    } else if (arg == "--threshold") {
      const char* v = next();
      if (!v) return usage();
      threshold = std::strtod(v, nullptr);
      if (!(threshold > 0.0)) {
        std::fprintf(stderr, "bench_check: bad threshold '%s'\n", v);
        return 2;
      }
    } else if (arg == "--report") {
      const char* v = next();
      if (!v) return usage();
      report_path = v;
    } else {
      std::fprintf(stderr, "bench_check: unknown argument '%s'\n",
                   arg.c_str());
      return usage();
    }
  }
  if (current_paths.empty() ||
      (baseline_path.empty() == write_path.empty())) {
    return usage();
  }

  std::string error;
  std::vector<BenchReport> reports(current_paths.size());
  for (std::size_t i = 0; i < current_paths.size(); ++i) {
    if (!load_bench_report(current_paths[i], &reports[i], &error)) {
      std::fprintf(stderr, "bench_check: %s\n", error.c_str());
      return 2;
    }
  }

  if (!write_path.empty()) {
    std::map<std::string, Metrics> benches;
    for (const BenchReport& report : reports) {
      benches[report.name] = report.metrics;
    }
    if (!write_baseline(write_path, benches, &error)) {
      std::fprintf(stderr, "bench_check: %s\n", error.c_str());
      return 2;
    }
    std::printf("bench_check: wrote baseline for %zu bench(es) to %s\n",
                benches.size(), write_path.c_str());
    return 0;
  }

  std::map<std::string, Metrics> baseline;
  if (!load_baseline(baseline_path, &baseline, &error)) {
    std::fprintf(stderr, "bench_check: %s\n", error.c_str());
    return 2;
  }

  int blocking = 0;
  std::vector<Row> rows;
  for (const BenchReport& report : reports) {
    const auto it = baseline.find(report.name);
    if (it == baseline.end()) {
      // Report every key of a bench without a baseline; none can block.
      if (report.metrics.empty()) {
        rows.push_back({report.name, "(entire bench)", 0.0, 0.0, 0.0,
                        "info (no baseline bench)"});
      }
      for (const auto& [key, current] : report.metrics) {
        rows.push_back(
            {report.name, key, 0.0, current, 0.0, "info (no baseline bench)"});
      }
      continue;
    }
    compare_report(report, it->second, threshold, &rows, &blocking);
  }

  std::ostringstream os;
  print_rows(os, rows, threshold, blocking);
  std::fputs(os.str().c_str(), stdout);
  if (!report_path.empty()) {
    std::ofstream rf(report_path);
    rf << os.str();
    if (!rf) {
      std::fprintf(stderr, "bench_check: cannot write report %s\n",
                   report_path.c_str());
      return 2;
    }
  }
  return blocking > 0 ? 1 : 0;
}
