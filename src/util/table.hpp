// ASCII table rendering for the benchmark harnesses.
//
// Every bench binary regenerating a paper table or figure prints its rows
// through this class so output is uniform.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace nscc::util {

class Table {
 public:
  explicit Table(std::string title = "") : title_(std::move(title)) {}

  Table& columns(std::vector<std::string> names);

  /// Begin a new row; subsequent cell() calls fill it left to right.
  Table& row();
  Table& cell(const std::string& v);
  Table& cell(const char* v);
  Table& cell(double v, int precision = 3);
  Table& cell(std::int64_t v);
  Table& cell(std::uint64_t v);
  Table& cell(int v) { return cell(static_cast<std::int64_t>(v)); }

  [[nodiscard]] std::size_t row_count() const noexcept { return rows_.size(); }

  /// Render with aligned columns and a rule under the header.
  void print(std::ostream& os) const;
  [[nodiscard]] std::string to_string() const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format helper: fixed precision without trailing garbage.
[[nodiscard]] std::string format_double(double v, int precision);

}  // namespace nscc::util
