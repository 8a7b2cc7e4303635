#include "harness.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <utility>

namespace perfbench {

std::uint64_t InputRng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t InputRng::range(std::uint64_t lo, std::uint64_t hi) {
  return lo + next() % (hi - lo + 1);
}

double InputRng::unit() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

double percentile_smoothed(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t idx = std::min(
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1, sorted.size() - 1);
  const std::size_t k = sorted.size() / 2000;
  const std::size_t lo = idx >= k ? idx - k : 0;
  const std::size_t hi = std::min(idx + k, sorted.size() - 1);
  double sum = 0.0;
  for (std::size_t i = lo; i <= hi; ++i) sum += sorted[i];
  return sum / static_cast<double>(hi - lo + 1);
}

double highest_supported_percentile(std::size_t count) {
  double best = 0.0;
  for (const double q : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
    const double rank = std::ceil(q * static_cast<double>(count));
    if (static_cast<double>(count) - rank >= 10.0) best = q;
  }
  return best;
}

LatencySummary summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  LatencySummary s;
  s.count = samples.size();
  s.p50 = percentile_smoothed(samples, 0.50);
  s.p99 = percentile_smoothed(samples, 0.99);
  s.top_q = highest_supported_percentile(samples.size());
  s.top = percentile_sorted(samples, s.top_q);
  return s;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, q);
}

double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0;
  long pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double clock_read_ns() {
  constexpr int kReads = 64;
  std::vector<double> per_read;
  per_read.reserve(512);
  for (int rep = 0; rep < 512; ++rep) {
    const auto start = Clock::now();
    Clock::time_point last = start;
    for (int i = 0; i < kReads; ++i) last = Clock::now();
    per_read.push_back(
        std::chrono::duration<double, std::nano>(last - start).count() /
        kReads);
  }
  return median(std::move(per_read));
}

HostProbe::HostProbe() : next_(std::size_t{1} << 23) {
  // Sattolo's shuffle: one cycle through every slot.
  for (std::uint32_t i = 0; i < next_.size(); ++i) next_[i] = i;
  InputRng rng(0x9e37);
  for (std::size_t i = next_.size() - 1; i > 0; --i) {
    std::swap(next_[i], next_[rng.range(0, i - 1)]);
  }
}

double HostProbe::measure() {
  constexpr std::size_t kLoads = std::size_t{1} << 18;
  const auto t0 = Clock::now();
  std::uint32_t at = 0;
  for (std::size_t i = 0; i < kLoads; ++i) at = next_[at];
  const double ns =
      std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
      static_cast<double>(kLoads);
  volatile std::uint32_t sink = at;
  (void)sink;
  return ns;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

void MetricSet::set(const std::string& name, double value,
                    const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

bool MetricSet::has(const std::string& name) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const Entry& e) { return e.name == name; });
}

double MetricSet::value(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return e.value;
  }
  return 0.0;
}

void MetricSet::print(const char* title) const {
  std::printf("%s\n", title);
  for (const Entry& e : entries_) {
    std::printf("  %-34s %18.6g %s\n", e.name.c_str(), e.value,
                e.unit.c_str());
  }
}

std::string MetricSet::json(const std::vector<std::string>& names) const {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Entry* found = nullptr;
    for (const Entry& e : entries_) {
      if (e.name == names[i]) found = &e;
    }
    const double value = found ? found->value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(value) ? value : 0.0);
    out += (i ? ", \"" : "\"") + names[i] + "\": {\"value\": " + buf +
           ", \"unit\": \"" + (found ? found->unit : "") + "\"}";
  }
  return out + "}";
}

int self_test() {
  int failures = 0;
  const auto check = [&](bool ok, const char* what) {
    if (!ok) {
      std::printf("self-test FAILED: %s\n", what);
      ++failures;
    }
  };

  std::vector<double> ramp;
  for (int i = 1; i <= 100; ++i) ramp.push_back(i);
  check(percentile_sorted(ramp, 0.50) == 50.0, "p50 of 1..100 is 50");
  check(percentile_sorted(ramp, 0.99) == 99.0, "p99 of 1..100 is 99");
  check(percentile_sorted(ramp, 1.0) == 100.0, "p100 is the maximum");
  check(percentile_sorted(ramp, 0.0) == 1.0, "p0 is the minimum");
  check(percentile_sorted({}, 0.5) == 0.0, "empty sample reads 0");
  check(percentile_smoothed(ramp, 0.50) == 50.0,
        "smoothing is a no-op below 2000 samples");
  std::vector<double> big;
  for (int i = 1; i <= 4000; ++i) big.push_back(i);
  check(percentile_smoothed(big, 0.50) == 2000.0,
        "smoothed p50 of a ramp is its p50");
  big.back() = 1e9;
  check(percentile_smoothed(big, 0.99) == 3960.0,
        "smoothed p99 ignores the far tail");
  check(median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  check(median({4.0, 1.0, 2.0, 3.0}) == 2.5, "even median");
  std::vector<double> shuffled;
  for (int i = 40; i >= 1; --i) shuffled.push_back(i);
  check(quantile(shuffled, 0.9) == 36.0, "q90 of 40 values is the 5th best");
  check(quantile(shuffled, 0.1) == 4.0, "q10 of 40 values is the 4th least");
  check(quantile({}, 0.9) == 0.0, "empty quantile reads 0");
  check(highest_supported_percentile(19) == 0.0, "19 samples: none");
  check(highest_supported_percentile(20) == 0.5, "20 samples: p50");
  check(highest_supported_percentile(100) == 0.9, "100 samples: p90");
  check(highest_supported_percentile(1000) == 0.99, "1000 samples: p99");
  check(highest_supported_percentile(10000) == 0.999,
        "10000 samples: p99.9");
  const LatencySummary s = summarize({5.0, 1.0, 4.0, 2.0, 3.0});
  check(s.count == 5 && s.p50 == 3.0 && s.p99 == 5.0, "summarize");

  check(fnv1a("", 0) == 0xcbf29ce484222325ULL, "fnv1a of empty input");
  check(fnv1a("a", 1) == 0xaf63dc4c8601ec8cULL, "fnv1a of \"a\"");
  check(fnv1a("foobar", 6) == 0x85944171f73967e8ULL, "fnv1a of \"foobar\"");
  check(fnv1a("bar", 3, fnv1a("foo", 3)) == fnv1a("foobar", 6),
        "fnv1a continues across chunks");

  check(valid_metric_name("tune.compile_s.xgboost"), "dotted name");
  check(valid_metric_name("serve_p99_us_nt"), "underscore name");
  check(valid_metric_name("0-ok"), "leading digit");
  check(!valid_metric_name(""), "empty name");
  check(!valid_metric_name(".lead"), "leading dot");
  check(!valid_metric_name("white space"), "space in name");
  check(!valid_metric_name("micro\xc2\xb5s"), "non-ASCII name");
  check(!valid_metric_name(std::string(65, 'a')), "65-character name");

  InputRng a(7);
  InputRng b(7);
  bool same = true;
  bool in_range = true;
  for (int i = 0; i < 1000; ++i) {
    same = same && a.next() == b.next();
    const std::uint64_t r = a.range(2, 64);
    b.range(2, 64);
    in_range = in_range && r >= 2 && r <= 64;
  }
  check(same, "input RNG repeats for one seed");
  check(in_range, "input RNG range bounds");
  check(InputRng(1).next() != InputRng(2).next(), "seeds differ");

  MetricSet m;
  m.set("x", 1.5, "s");
  m.set("x", 2.5, "s");
  check(m.value("x") == 2.5 && m.value("y") == 0.0, "metric set value");
  check(m.has("x") && m.json({"x"}) ==
                                 "{\"x\": {\"value\": 2.5, \"unit\": \"s\"}}",
        "metric set overwrite and json");
  return failures;
}

}  // namespace perfbench
