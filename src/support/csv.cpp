#include "support/csv.hpp"

#include "support/error.hpp"
#include "support/str.hpp"

namespace mpicp::support {

CsvTable::CsvTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  MPICP_REQUIRE(!header_.empty(), "CSV header must not be empty");
}

void CsvTable::add_row(std::vector<std::string> row) {
  MPICP_REQUIRE(row.size() == header_.size(),
                "CSV row width does not match header");
  rows_.push_back(std::move(row));
}

const std::vector<std::string>& CsvTable::row(std::size_t i) const {
  MPICP_REQUIRE(i < rows_.size(), "CSV row index out of range");
  return rows_[i];
}

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
    std::string_view rest = trim(line_);
    if (rest.empty()) continue;
    cells_.clear();
    while (true) {
      const std::size_t pos = rest.find(',');
      cells_.push_back(rest.substr(0, pos));
      if (pos == std::string_view::npos) return true;
      rest.remove_prefix(pos + 1);
    }
  }
  return false;
}

void write_csv(const std::filesystem::path& path, const CsvTable& table) {
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  std::ofstream out(path);
  if (!out) MPICP_RAISE_ERROR("cannot open " + path.string() + " for writing");
  out << join(table.header(), ",") << '\n';
  for (std::size_t i = 0; i < table.num_rows(); ++i) {
    out << join(table.row(i), ",") << '\n';
  }
  if (!out) MPICP_RAISE_ERROR("failed writing CSV file " + path.string());
}

}  // namespace mpicp::support
