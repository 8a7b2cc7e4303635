// String helpers (split/trim/format) used by CSV, CLI and table printing.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mpicp::support {

std::vector<std::string> split(std::string_view s, char sep);
/// split without copies: `out` is cleared and filled with views into `s`.
void split_views(std::string_view s, char sep,
                 std::vector<std::string_view>& out);
std::string_view trim(std::string_view s);
bool starts_with(std::string_view s, std::string_view prefix);

/// Parse helpers that throw mpicp::ParseError with context on failure.
double parse_double(std::string_view s);
std::int64_t parse_int(std::string_view s);

/// Render a byte count as a compact human-readable string (e.g. "64Ki").
std::string format_bytes(std::uint64_t bytes);

/// Fixed-precision double without trailing noise (for CSV/tables).
std::string format_double(double v, int precision = 6);

/// Join a list of strings with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

}  // namespace mpicp::support
