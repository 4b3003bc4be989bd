//===- tests/support/TablePrinterTest.cpp ---------------------------------===//

#include "support/TablePrinter.h"

#include <gtest/gtest.h>

using namespace fsmc;

TEST(TablePrinter, HeaderOnly) {
  TablePrinter T({"A", "B"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("| A | B |"), std::string::npos);
  EXPECT_NE(Out.find("|---|---|"), std::string::npos);
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter T({"Name", "N"});
  T.addRow({"x", "12345"});
  T.addRow({"longer-name", "7"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("| longer-name | 7     |"), std::string::npos);
  EXPECT_NE(Out.find("| x           | 12345 |"), std::string::npos);
}

TEST(TablePrinter, MissingCellsRenderEmpty) {
  TablePrinter T({"A", "B", "C"});
  T.addRow({"1"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("| 1 |"), std::string::npos);
}

TEST(TablePrinter, CellHelpers) {
  EXPECT_EQ(TablePrinter::cell(uint64_t(42)), "42");
  EXPECT_EQ(TablePrinter::cell(-3), "-3");
}
