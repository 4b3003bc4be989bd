//===- tests/paper/Table2Test.cpp -----------------------------------------===//
//
// Table 2 of the paper (Section 4.2.1) pinned cell by cell: the distinct
// states the fair context-bounded search visits, and the "Total States"
// of the stateful reference search (unfair, visited-state pruning), on
// dining philosophers (2 and 3) and the work-stealing queue (1 and 2
// stealers). bench/table2_coverage prints the whole table, with the
// depth-bounded unfair columns; these are its fair and total columns.
//
// Both columns count state signatures (support/Hashing.h, the
// per-workload extractors in src/workloads), so a hash change that loses
// or merges states moves these numbers. The paper's shape holds in them:
// fairness reaches every state of the total, and under a small context
// bound it reaches more (its priority-induced switches are free).
//
//===----------------------------------------------------------------------===//

#include "core/Checker.h"
#include "workloads/DiningPhilosophers.h"
#include "workloads/WorkStealQueue.h"

#include <gtest/gtest.h>

#include <functional>

using namespace fsmc;

namespace {

/// One Table 2 cell: fair distinct states, the stateful total, and the
/// fair search's executions (0 = not pinned).
struct Cell {
  int ContextBound;
  uint64_t FairStates;
  uint64_t TotalStates;
  uint64_t FairExecutions;
};

CheckerOptions cellOptions(int ContextBound) {
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = ContextBound;
  O.TrackCoverage = true;
  O.DetectDivergence = false;
  O.ExecutionBound = 5000;
  return O;
}

void expectCells(const std::function<TestProgram()> &Make,
                 std::initializer_list<Cell> Cells) {
  for (const Cell &C : Cells) {
    SCOPED_TRACE("cb=" + std::to_string(C.ContextBound));
    CheckResult Fair = check(Make(), cellOptions(C.ContextBound));
    EXPECT_EQ(Fair.Kind, Verdict::Pass);
    EXPECT_EQ(Fair.Stats.DistinctStates, C.FairStates);
    if (C.FairExecutions) {
      EXPECT_EQ(Fair.Stats.Executions, C.FairExecutions);
    }

    CheckerOptions O = cellOptions(C.ContextBound);
    O.Fair = false;
    O.StatefulPruning = true;
    CheckResult Total = check(Make(), O);
    EXPECT_EQ(Total.Kind, Verdict::Pass);
    EXPECT_EQ(Total.Stats.DistinctStates, C.TotalStates);
  }
}

std::function<TestProgram()> dining(int Philosophers) {
  DiningConfig C;
  C.Philosophers = Philosophers;
  C.Kind = DiningConfig::Variant::Mixed;
  return [C] { return makeDiningProgram(C); };
}

std::function<TestProgram()> wsq(int Stealers) {
  WsqConfig C;
  C.Stealers = Stealers;
  C.Tasks = 2;
  return [C] { return makeWsqProgram(C); };
}

} // namespace

TEST(Table2, DiningPhilosophers2) {
  expectCells(dining(2), {{1, 34, 34, 19}, {2, 34, 34, 34}, {3, 34, 34, 37}});
}

TEST(Table2, DiningPhilosophers3) {
  expectCells(dining(3), {{1, 237, 228, 274},
                          {2, 250, 250, 2687},
                          {3, 250, 250, 15001}});
}

TEST(Table2, WorkStealingQueue1Stealer) {
  expectCells(wsq(1), {{1, 273, 252, 0}, {2, 393, 389, 0}, {3, 397, 397, 0}});
}

TEST(Table2, WorkStealingQueue2StealersCb1) {
  expectCells(wsq(2), {{1, 1187, 833, 0}});
}
