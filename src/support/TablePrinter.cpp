//===- support/TablePrinter.cpp -------------------------------------------===//

#include "support/TablePrinter.h"

#include "support/OutStream.h"

#include <cassert>

using namespace fsmc;

TablePrinter::TablePrinter(std::vector<std::string> Headers)
    : Headers(std::move(Headers)) {}

void TablePrinter::addRow(std::vector<std::string> Cells) {
  assert(Cells.size() <= Headers.size() && "row has more cells than headers");
  Cells.resize(Headers.size());
  Rows.push_back(std::move(Cells));
}

void TablePrinter::print(OutStream &OS) const {
  std::string Text = render();
  OS.write(Text.data(), Text.size());
}

std::string TablePrinter::render() const {
  std::vector<size_t> Widths(Headers.size());
  for (size_t I = 0; I < Headers.size(); ++I)
    Widths[I] = Headers[I].size();
  for (const auto &Row : Rows)
    for (size_t I = 0; I < Row.size(); ++I)
      if (Row[I].size() > Widths[I])
        Widths[I] = Row[I].size();

  auto renderRow = [&](const std::vector<std::string> &Row) {
    std::string Line = "|";
    for (size_t I = 0; I < Headers.size(); ++I) {
      const std::string &Cell = I < Row.size() ? Row[I] : std::string();
      Line += " " + Cell + std::string(Widths[I] - Cell.size(), ' ') + " |";
    }
    Line += "\n";
    return Line;
  };

  std::string Out = renderRow(Headers);
  std::string Sep = "|";
  for (size_t I = 0; I < Headers.size(); ++I)
    Sep += std::string(Widths[I] + 2, '-') + "|";
  Out += Sep + "\n";
  for (const auto &Row : Rows)
    Out += renderRow(Row);
  return Out;
}
