//===- tests/paper/PaperTablesTest.cpp ------------------------------------===//
//
// The cheap cells of the paper's tables, pinned from the definitions
// EXPERIMENTS.md is generated from (bench/PaperTables.h): Figure 2's
// exponential growth, Table 2's fair and total state counts, Table 3's
// executions to each bug, and Section 4.3's liveness verdicts. The
// paper_tables diff test runs every cell; these keep the fast gate on
// the paper's claims.
//
// Every number is hardware-independent: each search visits executions in
// one deterministic order (the unfair random tails are seeded), so a
// change to the scheduler, the explorer, the hash or a workload that
// moves one fails here.
//
//===----------------------------------------------------------------------===//

#include "PaperTables.h"

#include <gtest/gtest.h>

#include <string>

using namespace fsmc;
using namespace fsmc::paper;

namespace {

/// Fair distinct states, the stateful total and the fair search's
/// executions (0 = not pinned) at context bound ContextBound.
struct Cell {
  int ContextBound;
  uint64_t FairStates;
  uint64_t TotalStates;
  uint64_t FairExecutions;
};

void expectCells(const std::function<TestProgram()> &Make,
                 std::initializer_list<Cell> Cells) {
  for (const Cell &C : Cells) {
    SCOPED_TRACE("cb=" + std::to_string(C.ContextBound));
    const Strategy &S = Strategies[C.ContextBound - 1];
    CheckResult Fair = table2Search(Make, S, Column::Fair).run();
    EXPECT_EQ(Fair.Kind, Verdict::Pass);
    EXPECT_TRUE(Fair.Stats.SearchExhausted);
    EXPECT_EQ(Fair.Stats.DistinctStates, C.FairStates);
    if (C.FairExecutions) {
      EXPECT_EQ(Fair.Stats.Executions, C.FairExecutions);
    }
    CheckResult Total = table2Search(Make, S, Column::Total).run();
    EXPECT_EQ(Total.Kind, Verdict::Pass);
    EXPECT_TRUE(Total.Stats.SearchExhausted);
    EXPECT_EQ(Total.Stats.DistinctStates, C.TotalStates);
  }
}

std::string message(const CheckResult &R) {
  return R.Bug ? R.Bug->Message : std::string();
}

/// Section 4.3's row whose finding starts with \p Name.
Finding finding(const std::string &Name) {
  for (Finding &F : section43Findings())
    if (std::string(F.Name).rfind(Name, 0) == 0)
      return F;
  ADD_FAILURE() << "no Section 4.3 row " << Name;
  return {};
}

} // namespace

// Figure 2: without fairness, the executions cut at the depth bound grow
// by an order of magnitude every five steps of the bound.
TEST(Fig2, NonterminatingExecutionsGrowExponentially) {
  CheckResult At15 = fig2Search(15).run(), At20 = fig2Search(20).run();
  EXPECT_TRUE(At15.Stats.SearchExhausted);
  EXPECT_TRUE(At20.Stats.SearchExhausted);
  EXPECT_EQ(At15.Stats.NonterminatingExecutions, 3635u);
  EXPECT_EQ(At20.Stats.NonterminatingExecutions, 53478u);
  EXPECT_EQ(At15.Stats.Executions, 3697u);
  EXPECT_EQ(At20.Stats.Executions, 53910u);
  EXPECT_GT(At20.Stats.NonterminatingExecutions,
            10 * At15.Stats.NonterminatingExecutions);
}

// Table 2 (Section 4.2.1): fairness reaches every state of the stateful
// total, and under a small context bound it reaches more (its
// priority-induced switches are free).
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

// Table 3 (Section 4.2.3): the fair search finds every seeded bug, WSQ
// bug 1 under --memory=tso.
TEST(Table3, FairFindsEveryBug) {
  const uint64_t Executions[] = {2406, 342, 306, 91628, 35510, 20, 20};
  std::vector<Bug> Bugs = table3Bugs();
  ASSERT_EQ(Bugs.size(), std::size(Executions));
  for (size_t I = 0; I < Bugs.size(); ++I) {
    SCOPED_TRACE(Bugs[I].Name);
    CheckResult R = table3Search(Bugs[I], /*Fair=*/true).run();
    ASSERT_TRUE(R.foundBug());
    EXPECT_EQ(R.Bug->AtExecution + 1, Executions[I]);
  }
}

// Where the unfair search (depth bound 250, random tail) finds the bug at
// all, it needs more executions than the fair one.
TEST(Table3, FairNeedsFewerExecutionsThanUnfair) {
  const std::pair<size_t, uint64_t> Found[] = {
      {1, 42379}, {2, 26680}, {5, 47}, {6, 47}};
  std::vector<Bug> Bugs = table3Bugs();
  for (auto [Row, Unfair] : Found) {
    SCOPED_TRACE(Bugs[Row].Name);
    CheckResult F = table3Search(Bugs[Row], /*Fair=*/true).run();
    CheckResult U = table3Search(Bugs[Row], /*Fair=*/false).run();
    ASSERT_TRUE(F.foundBug());
    ASSERT_TRUE(U.foundBug());
    EXPECT_EQ(U.Bug->AtExecution + 1, Unfair);
    EXPECT_LT(F.Bug->AtExecution, U.Bug->AtExecution);
  }
}

// Figure 7 under the fair unbounded DFS with a good-samaritan bound of
// 1000: the shutdown loop spins without yielding once the other workers
// have exited. This is the performance ledger's wg_gs1000 search.
TEST(Section43, Fig7UnderTheLedgerBoundTakes3023Executions) {
  CheckResult R = finding("Figure 7, fair DFS").S.run();
  EXPECT_EQ(R.Kind, Verdict::GoodSamaritanViolation);
  EXPECT_NE(message(R).find("without yielding"), std::string::npos)
      << message(R);
  EXPECT_EQ(R.Stats.Executions, 3023u);
}

// Figure 1: two philosophers who try-lock and back off can cycle forever
// with both yielding. Only the unbounded fair search sustains the cycle
// (each lap costs preemptions under a context bound).
TEST(Section43, Fig1DiningTryLockRetryIsALivelock) {
  CheckResult R = finding("Figure 1").S.run();
  EXPECT_EQ(R.Kind, Verdict::Livelock);
  EXPECT_NE(message(R).find("livelock: fair nonterminating execution"),
            std::string::npos)
      << message(R);
  EXPECT_EQ(R.Stats.Executions, 2789u);
}
