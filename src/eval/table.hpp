// ASCII table formatting shared by benches and examples.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace netmaster::eval {

/// Column-aligned ASCII table.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  void print(std::ostream& os) const;

  /// Fixed-precision numeric cell.
  static std::string num(double value, int precision = 3);
  /// Percentage cell ("12.3%").
  static std::string pct(double fraction, int precision = 1);

  const std::vector<std::string>& headers() const { return headers_; }
  const std::vector<std::vector<std::string>>& rows() const {
    return rows_;
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace netmaster::eval
