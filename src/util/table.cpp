#include "util/table.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

namespace nscc::util {

std::string format_double(double v, int precision) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << v;
  return os.str();
}

Table& Table::columns(std::vector<std::string> names) {
  header_ = std::move(names);
  return *this;
}

Table& Table::row() {
  rows_.emplace_back();
  return *this;
}

Table& Table::cell(const std::string& v) {
  rows_.back().push_back(v);
  return *this;
}

Table& Table::cell(const char* v) { return cell(std::string(v)); }

Table& Table::cell(double v, int precision) {
  return cell(format_double(v, precision));
}

Table& Table::cell(std::int64_t v) { return cell(std::to_string(v)); }

Table& Table::cell(std::uint64_t v) { return cell(std::to_string(v)); }

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size(), 0);
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  if (!title_.empty()) os << "== " << title_ << " ==\n";
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& v = c < row.size() ? row[c] : std::string{};
      os << (c == 0 ? "" : "  ");
      os << v;
      for (std::size_t pad = v.size(); pad < widths[c]; ++pad) os << ' ';
    }
    os << '\n';
  };
  emit_row(header_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w;
  total += widths.empty() ? 0 : 2 * (widths.size() - 1);
  for (std::size_t i = 0; i < total; ++i) os << '-';
  os << '\n';
  for (const auto& row : rows_) emit_row(row);
}

std::string Table::to_string() const {
  std::ostringstream os;
  print(os);
  return os.str();
}

}  // namespace nscc::util
