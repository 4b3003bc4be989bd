//===- support/TablePrinter.h - Paper-style result tables ------*- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tiny fixed-width table builder whose output is also a markdown table:
/// EXPERIMENTS.md's generated tables (bench/paper_tables) and fsmc_run's
/// counter reports.
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_SUPPORT_TABLEPRINTER_H
#define FSMC_SUPPORT_TABLEPRINTER_H

#include <cstdint>
#include <string>
#include <vector>

namespace fsmc {

class OutStream;

/// Accumulates rows of string cells and renders them with aligned columns.
class TablePrinter {
public:
  explicit TablePrinter(std::vector<std::string> Headers);

  /// Appends a data row; missing trailing cells render empty, extra cells
  /// are asserted against in debug builds.
  void addRow(std::vector<std::string> Cells);

  /// Renders the full table (header, separator, rows) as a string.
  std::string render() const;

  /// Emits the rendered table through \p OS as one atomic write (whole
  /// tables never interleave with concurrent progress output).
  void print(OutStream &OS) const;

  /// Helpers for common cell formats.
  static std::string cell(uint64_t V) { return std::to_string(V); }
  static std::string cell(int V) { return std::to_string(V); }

private:
  std::vector<std::string> Headers;
  std::vector<std::vector<std::string>> Rows;
};

} // namespace fsmc

#endif // FSMC_SUPPORT_TABLEPRINTER_H
