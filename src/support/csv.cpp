#include "support/csv.hpp"

#include "support/error.hpp"
#include "support/str.hpp"

namespace mpicp::support {

CsvReader::CsvReader(const std::filesystem::path& path) : in_(path) {
  if (!in_) MPICP_RAISE_PARSE("cannot open CSV file " + path.string());
  if (!std::getline(in_, line_)) {
    MPICP_RAISE_PARSE("CSV file " + path.string() + " is empty");
  }
  header_ = split(trim(line_), ',');
  cells_.reserve(header_.size());
}

std::size_t CsvReader::column(std::string_view name) const {
  for (std::size_t i = 0; i < header_.size(); ++i) {
    if (header_[i] == name) return i;
  }
  MPICP_RAISE_PARSE("CSV column '" + std::string(name) + "' not found");
}

bool CsvReader::next() {
  while (std::getline(in_, line_)) {
    ++lineno_;
    const std::string_view row = trim(line_);
    if (row.empty()) continue;
    split_views(row, ',', cells_);
    return true;
  }
  return false;
}

}  // namespace mpicp::support
