#include "ttsim/common/table.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <ostream>
#include <sstream>

namespace ttsim {
namespace {

bool looks_numeric(const std::string& s) {
  if (s.empty()) return false;
  bool digit = false;
  for (char c : s) {
    if (std::isdigit(static_cast<unsigned char>(c))) digit = true;
    else if (c != '.' && c != '-' && c != '+' && c != 'e' && c != 'E' && c != 'x' && c != '%')
      return false;
  }
  return digit;
}

std::string pad(const std::string& s, std::size_t width, bool right_align) {
  if (s.size() >= width) return s;
  const std::string fill(width - s.size(), ' ');
  return right_align ? fill + s : s + fill;
}

}  // namespace

std::string Table::fmt(double v, int precision) {
  std::ostringstream os;
  if (v != 0.0 && (std::fabs(v) < 1e-4 || std::fabs(v) >= 1e7)) {
    os.precision(precision);
    os << std::scientific << v;
  } else {
    os.precision(precision);
    os << std::fixed << v;
    std::string s = os.str();
    // Trim trailing zeros after the decimal point but keep at least one
    // decimal digit. Precision 0 prints no point, and its zeros are digits.
    if (s.find('.') != std::string::npos) {
      while (s.back() == '0' && s[s.size() - 2] != '.') s.pop_back();
    }
    return s;
  }
  return os.str();
}

void Table::print(std::ostream& os) const { os << to_string(); }

std::string Table::to_string() const {
  std::size_t cols = headers_.size();
  for (const auto& r : rows_) cols = std::max(cols, r.size());
  std::vector<std::size_t> width(cols, 0);
  std::vector<bool> right(cols, true);
  for (std::size_t c = 0; c < headers_.size(); ++c)
    width[c] = std::max(width[c], headers_[c].size());
  for (const auto& r : rows_) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      width[c] = std::max(width[c], r[c].size());
      if (!looks_numeric(r[c])) right[c] = false;
    }
  }

  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& r, bool header) {
    os << "| ";
    for (std::size_t c = 0; c < cols; ++c) {
      const std::string cell = c < r.size() ? r[c] : "";
      os << pad(cell, width[c], !header && right[c]);
      os << (c + 1 < cols ? " | " : " |");
    }
    os << '\n';
  };
  if (!headers_.empty()) {
    emit_row(headers_, true);
    os << "|";
    for (std::size_t c = 0; c < cols; ++c) os << std::string(width[c] + 2, '-') << "|";
    os << '\n';
  }
  for (const auto& r : rows_) emit_row(r, false);
  return os.str();
}

std::string Table::to_markdown() const { return to_string(); }

}  // namespace ttsim
