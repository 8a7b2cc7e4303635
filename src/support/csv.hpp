// Minimal CSV reading for measurement datasets.
//
// The format is deliberately simple (no quoting — our data are numbers and
// identifier-like strings). Reads stream row by row and report each row's
// file line number, so the loaders' errors can name it.
#pragma once

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace mpicp::support {

/// Streams a CSV file one row at a time, so a loader parses its cells
/// without materializing the table. The header is read on construction;
/// next() skips blank lines and splits the following line, trimmed as a
/// whole, at every comma. The cells view the reader's line buffer: they
/// stay valid until the next call to next().
class CsvReader {
 public:
  /// Throws ParseError when the file cannot be opened or is empty.
  explicit CsvReader(const std::filesystem::path& path);

  const std::vector<std::string>& header() const { return header_; }
  /// Column index by name; throws ParseError if absent.
  std::size_t column(std::string_view name) const;

  /// Advances to the next non-blank line; false at the end of the file.
  bool next();
  /// 1-based file line number of the current row.
  std::size_t lineno() const { return lineno_; }
  /// The current row's cells, as many as it has commas plus one (which
  /// need not be the header's width).
  std::span<const std::string_view> cells() const { return cells_; }

 private:
  std::ifstream in_;
  std::vector<std::string> header_;
  std::string line_;
  std::vector<std::string_view> cells_;
  std::size_t lineno_ = 1;
};

}  // namespace mpicp::support
