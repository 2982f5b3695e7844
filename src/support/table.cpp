#include "support/table.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "support/check.hpp"

namespace mh {

std::string paper_scientific(long double value) {
  MH_REQUIRE(std::isfinite(value) && value >= 0.0L);
  if (value == 0.0L) return "0.00E+000";
  // On the long double itself: a double would flush values below ~1e-308 to 0.
  int exponent = static_cast<int>(std::floor(log10l(value)));
  long double mantissa = value / powl(10.0L, exponent);
  // Guard against log10 rounding placing the mantissa outside [1, 10).
  if (mantissa >= 10.0L) {
    mantissa /= 10.0L;
    ++exponent;
  } else if (mantissa < 1.0L) {
    mantissa *= 10.0L;
    --exponent;
  }
  // Rounding the mantissa to two digits can push it to 10.00.
  if (mantissa > 9.995L) {
    mantissa = 1.0L;
    ++exponent;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2Lf%c%03d", mantissa, 'E', exponent);
  // snprintf lacks a signed-3-digit-exponent conversion; fix the sign by hand.
  std::string mant(buf, 4);  // "X.YZ"
  std::snprintf(buf, sizeof buf, "%s%s%03d", mant.c_str(), exponent < 0 ? "E-" : "E+",
                std::abs(exponent));
  return buf;
}

std::string fixed(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, value);
  return buf;
}

TextTable::TextTable(std::vector<std::string> header) : header_(std::move(header)) {
  MH_REQUIRE(!header_.empty());
}

void TextTable::add_row(std::vector<std::string> cells) {
  MH_REQUIRE(cells.size() == header_.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::render() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c) width[c] = std::max(width[c], row[c].size());

  std::ostringstream out;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << (c == 0 ? "" : "  ");
      out << row[c];
      for (std::size_t pad = row[c].size(); pad < width[c]; ++pad) out << ' ';
    }
    out << '\n';
  };
  emit(header_);
  std::string rule;
  for (std::size_t c = 0; c < header_.size(); ++c) {
    if (c != 0) rule += "  ";
    rule += std::string(width[c], '-');
  }
  out << rule << '\n';
  for (const auto& row : rows_) emit(row);
  return out.str();
}

}  // namespace mh
