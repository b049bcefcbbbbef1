#include "eval/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "common/error.hpp"

namespace netmaster::eval {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  NM_REQUIRE(!headers_.empty(), "table needs at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  NM_REQUIRE(cells.size() == headers_.size(),
             "row width must match header width");
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << (c == 0 ? "| " : " | ") << std::setw(static_cast<int>(widths[c]))
         << cells[c];
    }
    os << " |\n";
  };
  print_row(headers_);
  os << '|';
  for (std::size_t c = 0; c < widths.size(); ++c) {
    os << std::string(widths[c] + 2, '-') << '|';
  }
  os << '\n';
  for (const auto& row : rows_) print_row(row);
}

std::string Table::num(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

std::string Table::pct(double fraction, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << fraction * 100.0
     << '%';
  return os.str();
}

}  // namespace netmaster::eval
