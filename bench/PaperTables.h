//===- bench/PaperTables.h - The paper's tables, defined once ---*- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every table and figure of the paper's evaluation as searches on
/// execution budgets, and the markdown EXPERIMENTS.md shows for them.
/// paper_tables renders these blocks into EXPERIMENTS.md (or checks that
/// it holds them); tests/paper runs the cheap cells from the same
/// definitions. Every cell is a count, so it depends only on the code:
/// a `*` reads "not finished within the table's budget".
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_BENCH_PAPERTABLES_H
#define FSMC_BENCH_PAPERTABLES_H

#include "core/Checker.h"

#include <functional>
#include <string>
#include <vector>

namespace fsmc {
namespace paper {

/// Executions each search of a table may run, named in its caption.
constexpr uint64_t Fig2Budget = 1000000;
/// Table 2's budget also bounds Figures 5/6, which show the executions
/// of its searches: fair cb=2 on WSQ 2 finishes at 1,530,536.
constexpr uint64_t Table2Budget = 2000000;
constexpr uint64_t Table3Budget = 100000;
constexpr uint64_t Section43Budget = 200000;
constexpr uint64_t AblationBudget = 100000;

/// One cell's search: the program and the options it runs under.
struct Search {
  std::function<TestProgram()> Make;
  CheckerOptions Options;

  CheckResult run() const { return check(Make(), Options); }
};

/// Figure 2: the unfair DFS of the Figure 1 program cut at \p DepthBound.
Search fig2Search(uint64_t DepthBound);

/// The strategy axis of Table 2 and Figures 5/6: cb=1..3 and dfs.
struct Strategy {
  const char *Label;
  SearchKind Kind;
  int ContextBound;
};
extern const Strategy Strategies[4];

/// A Table 2 column: the stateful reference search ("total states"), the
/// fair search, or the unfair search cut at a depth bound with a random
/// tail (\p DepthBound > 0).
enum class Column { Total, Fair, Unfair };

/// Table 2's cell of \p Make under \p S. Figures 5/6 show the
/// executions of the same searches.
Search table2Search(std::function<TestProgram()> Make, const Strategy &S,
                    Column C, uint64_t DepthBound = 0);

/// Table 2's configurations: dining philosophers 2 and 3, the
/// work-stealing queue with 1 and 2 stealers.
std::function<TestProgram()> dining(int Philosophers);
std::function<TestProgram()> wsq(int Stealers);

/// A Table 3 row: a seeded bug and the paper's executions to find it.
struct Bug {
  const char *Name;
  const char *Paper; ///< "fair / no fair" executions in the paper.
  std::function<TestProgram()> Make;
  /// WSQ bug 1 is a missing fence: it exists only under a store-buffer
  /// memory model, so its row runs both searches under tso.
  MemoryModel Memory = MemoryModel::Sc;
};
std::vector<Bug> table3Bugs();

/// Table 3's search for \p B: cb=2, plus depth bound 250 and a random
/// tail without fairness (the paper's configuration).
Search table3Search(const Bug &B, bool Fair);

/// A Section 4.3 row: a liveness finding (or its repaired program) and
/// the verdict the checker must reach.
struct Finding {
  const char *Name;
  const char *Paper;
  Search S;
  Verdict Expected;
};
std::vector<Finding> section43Findings();

/// One generated block of EXPERIMENTS.md: the text between its
/// `<!-- paper_tables:begin NAME -->` and `end NAME` markers.
struct Table {
  const char *Name;
  std::string (*Render)();
};
/// Every block, in the order EXPERIMENTS.md shows them.
const std::vector<Table> &tables();

} // namespace paper
} // namespace fsmc

#endif // FSMC_BENCH_PAPERTABLES_H
