#include "ttsim/common/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "ttsim/common/compare.hpp"

namespace ttsim {
namespace {

TEST(Table, RendersHeadersAndRows) {
  Table t{"Version", "GPt/s"};
  t.add_row("Initial", 0.0065);
  t.add_row("Double buffering", 0.014);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("Version"), std::string::npos);
  EXPECT_NE(s.find("Initial"), std::string::npos);
  EXPECT_NE(s.find("0.0065"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, FmtTrimsTrailingZeros) {
  EXPECT_EQ(Table::fmt(1.5), "1.5");
  EXPECT_EQ(Table::fmt(2.0), "2.0");
  EXPECT_EQ(Table::fmt(0.014), "0.014");
}

TEST(Table, FmtTrimsOnlyAfterADecimalPoint) {
  // Precision 0 prints an integer: its trailing zeros are significant.
  EXPECT_EQ(Table::fmt(159.68, 0), "160");
  EXPECT_EQ(Table::fmt(100.0, 0), "100");
  EXPECT_EQ(Table::fmt(0.0, 0), "0");
  EXPECT_EQ(Table::fmt(-160.0, 0), "-160");
  EXPECT_EQ(Table::fmt(10.0, 2), "10.0");
  EXPECT_EQ(Table::fmt(-2.50, 2), "-2.5");
  EXPECT_EQ(Table::fmt(-100.0, 1), "-100.0");
}

TEST(Table, FmtUsesScientificForExtremes) {
  const std::string tiny = Table::fmt(1.2e-7);
  EXPECT_NE(tiny.find('e'), std::string::npos);
  // The scientific branch is never trimmed: the exponent's zeros are digits.
  EXPECT_EQ(Table::fmt(1.5e8, 2), "1.50e+08");
  EXPECT_EQ(Table::fmt(-2.0e-5, 1), "-2.0e-05");
  EXPECT_EQ(Table::fmt(3.0e10, 0), "3e+10");
}

TEST(Table, MixedColumnWidthsAligned) {
  Table t{"A", "B"};
  t.add_row("x", 1);
  t.add_row("longer-label", 100);
  std::istringstream in(t.to_string());
  std::string first, second;
  std::getline(in, first);
  std::getline(in, second);  // rule
  std::string r1, r2;
  std::getline(in, r1);
  std::getline(in, r2);
  EXPECT_EQ(r1.size(), r2.size());
}

TEST(ComparisonReport, PerfectAgreement) {
  ComparisonReport rep("Table I", "test");
  rep.add("a", 1.0, 1.0, "GPt/s");
  rep.add("b", 2.0, 2.0, "GPt/s");
  EXPECT_DOUBLE_EQ(rep.ordering_agreement(), 1.0);
  EXPECT_DOUBLE_EQ(rep.geomean_ratio(), 1.0);
}

TEST(ComparisonReport, OrderingAgreementDetectsFlip) {
  ComparisonReport rep("X", "test");
  rep.add("a", 1.0, 5.0, "s");
  rep.add("b", 2.0, 4.0, "s");
  rep.add("c", 3.0, 3.0, "s");
  // paper says a<b<c; measured says a>b>c: all 3 pairs disagree.
  EXPECT_DOUBLE_EQ(rep.ordering_agreement(), 0.0);
}

TEST(ComparisonReport, ScaledValuesKeepOrderingButShiftGeomean) {
  ComparisonReport rep("X", "test");
  rep.add("a", 1.0, 2.0, "s");
  rep.add("b", 2.0, 4.0, "s");
  EXPECT_DOUBLE_EQ(rep.ordering_agreement(), 1.0);
  EXPECT_NEAR(rep.geomean_ratio(), 2.0, 1e-12);
}

TEST(ComparisonReport, NearTiesCountAsAgreement) {
  ComparisonReport rep("X", "test");
  rep.add("a", 1.00, 1.2, "s");
  rep.add("b", 1.01, 0.9, "s");  // paper values within 3% => tie
  EXPECT_DOUBLE_EQ(rep.ordering_agreement(), 1.0);
}

TEST(ComparisonReport, ToStringContainsShapeSummary) {
  ComparisonReport rep("Table V", "replication");
  rep.add("x1", 0.011, 0.012, "s");
  const std::string s = rep.to_string();
  EXPECT_NE(s.find("Table V"), std::string::npos);
  EXPECT_NE(s.find("ordering agreement"), std::string::npos);
}

}  // namespace
}  // namespace ttsim
