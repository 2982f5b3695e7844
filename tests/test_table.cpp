#include "support/table.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace mh {
namespace {

TEST(PaperScientific, MatchesTableOneFormatting) {
  EXPECT_EQ(paper_scientific(5.70e-54L), "5.70E-054");
  EXPECT_EQ(paper_scientific(9.05e-1L), "9.05E-001");
  EXPECT_EQ(paper_scientific(1.02e-264L), "1.02E-264");
  EXPECT_EQ(paper_scientific(1.37e-1L), "1.37E-001");
}

TEST(PaperScientific, HandlesZeroAndOne) {
  EXPECT_EQ(paper_scientific(0.0L), "0.00E+000");
  EXPECT_EQ(paper_scientific(1.0L), "1.00E+000");
}

TEST(PaperScientific, RoundsMantissaCarry) {
  // 9.999e-4 rounds to 1.00e-3.
  EXPECT_EQ(paper_scientific(9.999e-4L), "1.00E-003");
}

TEST(PaperScientific, BelowDoubleRange) {
  EXPECT_EQ(paper_scientific(1e-400L), "1.00E-400");
}

TEST(PaperScientific, RejectsNegative) {
  EXPECT_THROW(paper_scientific(-1.0L), std::invalid_argument);
}

TEST(PaperScientific, RejectsNonFinite) {
  EXPECT_THROW(paper_scientific(std::numeric_limits<long double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(paper_scientific(std::numeric_limits<long double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(Fixed, FormatsDigits) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fixed(2.0, 0), "2");
}

TEST(TextTable, AlignsColumns) {
  TextTable t({"a", "bbbb"});
  t.add_row({"xx", "y"});
  const std::string out = t.render();
  EXPECT_NE(out.find("a   bbbb"), std::string::npos);
  EXPECT_NE(out.find("xx  y"), std::string::npos);
}

TEST(TextTable, RejectsMismatchedRow) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

}  // namespace
}  // namespace mh
