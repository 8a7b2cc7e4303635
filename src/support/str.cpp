#include "support/str.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "support/error.hpp"

namespace mpicp::support {

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string_view> views;
  split_views(s, sep, views);
  return {views.begin(), views.end()};
}

void split_views(std::string_view s, char sep,
                 std::vector<std::string_view>& out) {
  out.clear();
  while (true) {
    const std::size_t pos = s.find(sep);
    out.push_back(s.substr(0, pos));
    if (pos == std::string_view::npos) return;
    s.remove_prefix(pos + 1);
  }
}

std::string_view trim(std::string_view s) {
  const auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\n';
  };
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

double parse_double(std::string_view s) {
  s = trim(s);
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    MPICP_RAISE_PARSE("cannot parse '" + std::string(s) + "' as double");
  }
  return v;
}

std::int64_t parse_int(std::string_view s) {
  s = trim(s);
  std::int64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    MPICP_RAISE_PARSE("cannot parse '" + std::string(s) + "' as integer");
  }
  return v;
}

std::string format_bytes(std::uint64_t bytes) {
  static constexpr const char* kUnits[] = {"", "Ki", "Mi", "Gi"};
  int unit = 0;
  std::uint64_t v = bytes;
  while (unit < 3 && v >= 1024 && v % 1024 == 0) {
    v /= 1024;
    ++unit;
  }
  return std::to_string(v) + kUnits[unit];
}

std::string format_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", precision, v);
  return buf;
}

std::string join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

}  // namespace mpicp::support
