//===- bench/paper_tables.cpp - EXPERIMENTS.md's generated tables --------===//
//
// Part of the fsmc project: a reproduction of "Fair stateless model
// checking" (Musuvathi & Qadeer, PLDI 2008).
//
// Runs every table of PaperTables.h and compares the result with the
// marked blocks of EXPERIMENTS.md:
//
//   paper_tables            exit 1 at the first line that differs,
//                           after the table that holds it
//   paper_tables --update   rewrite the blocks in place
//
// A block is the text between `<!-- paper_tables:begin NAME -->` and
// `<!-- paper_tables:end NAME -->`. Each table's time and the peak RSS go
// to stderr; no cell carries a time.
//
//===----------------------------------------------------------------------===//

#include "PaperTables.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <sys/resource.h>

using namespace fsmc;

namespace {

std::string marker(const char *Edge, const char *Name) {
  return std::string("<!-- paper_tables:") + Edge + " " + Name + " -->\n";
}

/// \p Doc with the block \p Name replaced by \p Text; false when the
/// markers are missing.
bool splice(std::string &Doc, const char *Name, const std::string &Text) {
  std::string Begin = marker("begin", Name), End = marker("end", Name);
  size_t B = Doc.find(Begin);
  size_t E = B == std::string::npos ? B : Doc.find(End, B);
  if (E == std::string::npos)
    return false;
  B += Begin.size();
  Doc.replace(B, E - B, Text);
  return true;
}

/// Prints the first line where \p Have and \p Want differ.
void reportFirstDifference(const std::string &Path, const std::string &Have,
                           const std::string &Want) {
  std::istringstream H(Have), W(Want);
  std::string HL, WL;
  for (int Line = 1;; ++Line) {
    bool HasH = bool(std::getline(H, HL)), HasW = bool(std::getline(W, WL));
    if (HasH && HasW && HL == WL)
      continue;
    std::fprintf(stderr, "%s:%d differs from the generated tables\n"
                         "  file:      %s\n  generated: %s\n"
                         "Run paper_tables --update to regenerate it.\n",
                 Path.c_str(), Line, HasH ? HL.c_str() : "<end of file>",
                 HasW ? WL.c_str() : "<end of file>");
    return;
  }
}

} // namespace

int main(int Argc, char **Argv) {
  bool Update = Argc == 2 && std::strcmp(Argv[1], "--update") == 0;
  if (Argc > 2 || (Argc == 2 && !Update)) {
    std::fprintf(stderr, "usage: paper_tables [--update]\n");
    return 2;
  }
  const std::string Path = std::string(FSMC_SOURCE_DIR) + "/EXPERIMENTS.md";
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "cannot read %s\n", Path.c_str());
    return 2;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();
  const std::string Have = Buf.str();

  std::string Want = Have;
  for (const paper::Table &T : paper::tables()) {
    auto Start = std::chrono::steady_clock::now();
    std::string Text = T.Render();
    std::chrono::duration<double> Took =
        std::chrono::steady_clock::now() - Start;
    std::fprintf(stderr, "%-10s %6.1f s\n", T.Name, Took.count());
    if (!splice(Want, T.Name, Text)) {
      std::fprintf(stderr, "%s: no paper_tables markers for %s\n",
                   Path.c_str(), T.Name);
      return 2;
    }
    // Earlier blocks matched, so a difference is in this one.
    if (!Update && Want != Have) {
      reportFirstDifference(Path, Have, Want);
      return 1;
    }
  }
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  std::fprintf(stderr, "peak RSS %ld MB\n", Usage.ru_maxrss / 1024);
  if (Want == Have) {
    std::fprintf(stderr, "%s: every generated block is current\n",
                 Path.c_str());
    return 0;
  }
  std::ofstream(Path) << Want;
  std::fprintf(stderr, "%s: generated blocks rewritten\n", Path.c_str());
  return 0;
}
