//===- bench/PaperTables.cpp - The paper's tables, defined once ----------===//
//
// Part of the fsmc project: a reproduction of "Fair stateless model
// checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//

#include "PaperTables.h"

#include "support/TablePrinter.h"
#include "workloads/Channels.h"
#include "workloads/DiningPhilosophers.h"
#include "workloads/Promise.h"
#include "workloads/SpinWait.h"
#include "workloads/WorkStealQueue.h"
#include "workloads/WorkerGroup.h"
#include "workloads/WorkloadRegistry.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <iterator>
#include <thread>

using namespace fsmc;
using namespace fsmc::paper;

namespace {

/// \p V with thousands separators, as EXPERIMENTS.md writes counts.
std::string count(uint64_t V) {
  std::string S = std::to_string(V);
  for (int I = int(S.size()) - 3; I > 0; I -= 3)
    S.insert(size_t(I), ",");
  return S;
}

/// \p V, starred when \p R did not finish within its budget.
std::string finished(uint64_t V, const CheckResult &R) {
  return R.Stats.SearchExhausted ? count(V) : count(V) + "\\*";
}

/// Executions to the bug \p R found, or the paper's "-" for none.
std::string toBug(const CheckResult &R) {
  return R.foundBug() ? count(R.Bug->AtExecution + 1) : "-";
}

std::string caption(const char *Budget, uint64_t N) {
  return "Budget: " + count(N) + " executions per search (`paper::" +
         Budget + "`); `\\*` = not finished within it.\n\n";
}

/// Runs \p Searches on up to four threads. Each search is serial, so its
/// counts do not depend on the others; results keep the input order.
std::vector<CheckResult> runAll(const std::vector<Search> &Searches) {
  std::vector<CheckResult> Results(Searches.size());
  std::atomic<size_t> Next{0};
  auto Work = [&] {
    for (size_t I = Next++; I < Searches.size(); I = Next++)
      Results[I] = Searches[I].run();
  };
  unsigned Width = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<std::future<void>> Pool;
  for (unsigned I = 1; I < Width; ++I)
    Pool.push_back(std::async(std::launch::async, Work));
  Work();
  for (std::future<void> &F : Pool)
    F.get();
  return Results;
}

/// The Figure 1 program: two philosophers who try-lock and back off.
std::function<TestProgram()> diningTryLock(bool CaptureState) {
  DiningConfig C;
  C.Philosophers = 2;
  C.Kind = DiningConfig::Variant::TryLockRetry;
  C.CaptureState = CaptureState;
  return [C] { return makeDiningProgram(C); };
}

CheckerOptions unfair(uint64_t DepthBound, uint64_t Budget) {
  CheckerOptions O;
  O.Fair = false;
  O.DepthBound = DepthBound;
  O.RandomTailCap = 5000;
  O.DetectDivergence = false;
  O.MaxExecutions = Budget;
  return O;
}

//===--- Figure 2 ---------------------------------------------------------===//

std::string renderFig2() {
  std::vector<Search> S;
  for (uint64_t Db = 15; Db <= 40; Db += 5)
    S.push_back(fig2Search(Db));
  CheckerOptions Fair;
  Fair.ExecutionBound = 200;
  Fair.MaxExecutions = Fig2Budget;
  S.push_back({diningTryLock(/*CaptureState=*/false), Fair});
  std::vector<CheckResult> R = runAll(S);

  TablePrinter T({"depth bound", "nonterminating executions", "executions"});
  for (size_t I = 0; I + 1 < S.size(); ++I)
    T.addRow({count(S[I].Options.DepthBound),
              finished(R[I].Stats.NonterminatingExecutions, R[I]),
              finished(R[I].Stats.Executions, R[I])});
  const CheckResult &F = R.back();
  return caption("Fig2Budget", Fig2Budget) + T.render() +
         "\nThe fair DFS of the same program (execution bound 200) reports "
         "a " + std::string(verdictName(F.Kind)) + " after " +
         count(F.Stats.Executions) + " executions.\n";
}

//===--- Table 1 ----------------------------------------------------------===//

uint64_t countLines(const std::vector<std::string> &Files) {
  uint64_t Lines = 0;
  for (const std::string &Rel : Files) {
    std::ifstream In(std::string(FSMC_SOURCE_DIR) + "/" + Rel);
    std::string Line;
    while (std::getline(In, Line))
      ++Lines;
  }
  return Lines;
}

/// The registry's workload \p Name; exits 2 when there is none, so a
/// renamed workload cannot leave a row with another program's numbers.
const RegisteredWorkload &workload(const char *Name) {
  for (const RegisteredWorkload &Reg : allWorkloads())
    if (Reg.Name == Name)
      return Reg;
  std::fprintf(stderr, "paper_tables: no workload named '%s'\n", Name);
  std::exit(2);
}

std::string renderTable1() {
  // The registry's names, with the paper's LOC / threads / sync ops.
  static const char *const Rows[][2] = {
      {"Dining Philosophers", "54 / 3 / 48"},
      {"Work-Stealing Queue", "1,266 / 3 / 99"},
      {"Promise", "14,044 / 3 / 26"},
      {"APE", "18,947 / 4 / 247"},
      {"Dryad Channels", "16,036 / 5 / 273"},
      {"Dryad Fifo", "18,093 / 25 / 4,892"},
      {"Mini-kernel (Singularity)", "174,601 / 14 / 167,924"}};
  std::vector<Search> S;
  for (const auto &Row : Rows) {
    const RegisteredWorkload &Reg = workload(Row[0]);
    CheckerOptions O = Reg.MeasureOptions;
    O.ExecutionBound = 500000;
    S.push_back({Reg.Make, O});
  }
  std::vector<CheckResult> R = runAll(S);

  TablePrinter T({"program", "paper (LOC / threads / sync ops)",
                  "measured (LOC / threads / sync ops)"});
  for (size_t I = 0; I < S.size(); ++I)
    T.addRow({Rows[I][0], Rows[I][1],
              count(countLines(workload(Rows[I][0]).SourceFiles)) + " / " +
                  count(uint64_t(R[I].Stats.MaxThreads)) + " / " +
                  count(R[I].Stats.MaxSyncOps)});
  return "Threads and sync ops are maxima per execution over a seeded " +
         count(S[0].Options.MaxExecutions) +
         "-execution random walk; LOC counts this repository's source "
         "files of the workload.\n\n" +
         T.render();
}

//===--- Table 2 and Figures 5/6 ------------------------------------------===//

struct Config {
  const char *Name;
  std::function<TestProgram()> Make;
};

const Config Configs[] = {{"Dining 2", dining(2)},
                          {"Dining 3", dining(3)},
                          {"WSQ 1 stealer", wsq(1)},
                          {"WSQ 2 stealers", wsq(2)}};

constexpr uint64_t DepthBounds[] = {20, 30, 40, 50, 60};

/// Table 2's columns: total, fair, and unfair at each of DepthBounds.
constexpr size_t Columns = 2 + std::size(DepthBounds);

/// Every search of Table 2, run once per process: by configuration, then
/// strategy, then column. Figures 5/6 read their executions.
const std::vector<CheckResult> &table2Results() {
  static const std::vector<CheckResult> R = [] {
    std::vector<Search> S;
    for (const Config &C : Configs)
      for (const Strategy &St : Strategies) {
        S.push_back(table2Search(C.Make, St, Column::Total));
        S.push_back(table2Search(C.Make, St, Column::Fair));
        for (uint64_t Db : DepthBounds)
          S.push_back(table2Search(C.Make, St, Column::Unfair, Db));
      }
    return runAll(S);
  }();
  return R;
}

std::string renderTable2() {
  const std::vector<CheckResult> &R = table2Results();
  TablePrinter T({"configuration", "strategy", "total", "fair", "db=20",
                  "db=30", "db=40", "db=50", "db=60"});
  size_t I = 0;
  for (const Config &C : Configs)
    for (const Strategy &St : Strategies) {
      std::vector<std::string> Row{C.Name, St.Label};
      for (size_t K = 0; K < Columns; ++K, ++I)
        Row.push_back(finished(R[I].Stats.DistinctStates, R[I]));
      T.addRow(Row);
    }
  return caption("Table2Budget", Table2Budget) + T.render();
}

/// Executions to finish each strategy's fair and unfair searches of
/// Configs[\p Config]: Table 2's searches, read for their cost.
std::string renderCompletionGrid(size_t Config) {
  const std::vector<CheckResult> &R = table2Results();
  TablePrinter T({"strategy", "fair", "db=20", "db=30", "db=40", "db=50",
                  "db=60"});
  for (size_t St = 0; St < std::size(Strategies); ++St) {
    std::vector<std::string> Row{Strategies[St].Label};
    size_t First = (Config * std::size(Strategies) + St) * Columns;
    for (size_t K = 1; K < Columns; ++K)
      Row.push_back(finished(R[First + K].Stats.Executions, R[First + K]));
    T.addRow(Row);
  }
  return caption("Table2Budget", Table2Budget) + T.render();
}

std::string renderFig5() { return renderCompletionGrid(1); }

std::string renderFig6() { return renderCompletionGrid(3); }

//===--- Table 3 ----------------------------------------------------------===//

std::string renderTable3() {
  std::vector<Bug> Bugs = table3Bugs();
  std::vector<Search> S;
  for (const Bug &B : Bugs) {
    S.push_back(table3Search(B, /*Fair=*/true));
    S.push_back(table3Search(B, /*Fair=*/false));
  }
  std::vector<CheckResult> R = runAll(S);

  TablePrinter T({"bug", "paper (fair / no fair)", "fair", "no fair"});
  for (size_t I = 0; I < Bugs.size(); ++I)
    T.addRow({Bugs[I].Name, Bugs[I].Paper, toBug(R[2 * I]),
              toBug(R[2 * I + 1])});
  return "Budget: " + count(Table3Budget) +
         " executions per search (`paper::Table3Budget`); `-` = bug not "
         "found within it.\n\n" +
         T.render();
}

//===--- Section 4.3 ------------------------------------------------------===//

std::string renderSection43() {
  std::vector<Finding> F = section43Findings();
  std::vector<Search> S;
  for (const Finding &Fd : F)
    S.push_back(Fd.S);
  std::vector<CheckResult> R = runAll(S);

  TablePrinter T({"finding", "paper", "verdict", "executions"});
  for (size_t I = 0; I < F.size(); ++I) {
    std::string Verdict = verdictName(R[I].Kind);
    if (R[I].Kind != F[I].Expected)
      Verdict += std::string(" (expected ") + verdictName(F[I].Expected) + ")";
    T.addRow({F[I].Name, F[I].Paper, Verdict,
              R[I].foundBug() ? count(R[I].Stats.Executions)
                              : finished(R[I].Stats.Executions, R[I])});
  }
  return caption("Section43Budget", Section43Budget) + T.render();
}

//===--- Ablations --------------------------------------------------------===//

std::string renderAblation() {
  SpinWaitConfig Spin;
  std::function<TestProgram()> SpinWait = [Spin] {
    return makeSpinWaitProgram(Spin);
  };
  std::vector<Search> S;
  for (int K : {1, 2, 4})
    for (const auto &Make : {SpinWait, dining(2)}) {
      CheckerOptions O;
      O.YieldK = K;
      O.TrackCoverage = true;
      O.DetectDivergence = false;
      O.ExecutionBound = 5000;
      O.MaxExecutions = AblationBudget;
      S.push_back({Make, O});
    }
  CheckerOptions Fair;
  Fair.MaxExecutions = AblationBudget;
  S.push_back({SpinWait, Fair});
  CheckerOptions Unfair = unfair(40, AblationBudget);
  Unfair.RandomTail = false;
  S.push_back({SpinWait, Unfair});
  std::vector<CheckResult> R = runAll(S);

  TablePrinter K({"program", "k", "executions", "states", "priority edges",
                  "max depth"});
  for (size_t I = 0; I < 6; ++I)
    K.addRow({I % 2 ? "dining 2 (mixed)" : "spinwait",
              count(uint64_t(S[I].Options.YieldK)),
              finished(R[I].Stats.Executions, R[I]),
              count(R[I].Stats.DistinctStates),
              count(R[I].Stats.FairEdgeAdditions),
              count(R[I].Stats.MaxDepth)});
  TablePrinter F({"program", "fairness", "executions",
                  "nonterminating executions", "max depth"});
  for (size_t I = 6; I < 8; ++I)
    F.addRow({"spinwait", I == 6 ? "on" : "off (db=40)",
              finished(R[I].Stats.Executions, R[I]),
              count(R[I].Stats.NonterminatingExecutions),
              count(R[I].Stats.MaxDepth)});
  return caption("AblationBudget", AblationBudget) + K.render() + "\n" +
         F.render();
}

} // namespace

const Strategy paper::Strategies[4] = {
    {"cb=1", SearchKind::ContextBounded, 1},
    {"cb=2", SearchKind::ContextBounded, 2},
    {"cb=3", SearchKind::ContextBounded, 3},
    {"dfs", SearchKind::Dfs, 0},
};

Search paper::fig2Search(uint64_t DepthBound) {
  // Figure 2 counts the executions cut at the bound: no random tail.
  CheckerOptions O = unfair(DepthBound, Fig2Budget);
  O.RandomTail = false;
  return {diningTryLock(/*CaptureState=*/false), O};
}

std::function<TestProgram()> paper::dining(int Philosophers) {
  DiningConfig C;
  C.Philosophers = Philosophers;
  C.Kind = DiningConfig::Variant::Mixed;
  return [C] { return makeDiningProgram(C); };
}

std::function<TestProgram()> paper::wsq(int Stealers) {
  WsqConfig C;
  C.Stealers = Stealers;
  C.Tasks = 2;
  return [C] { return makeWsqProgram(C); };
}

Search paper::table2Search(std::function<TestProgram()> Make,
                           const Strategy &S, Column C, uint64_t DepthBound) {
  CheckerOptions O = C == Column::Unfair ? unfair(DepthBound, Table2Budget)
                                         : CheckerOptions();
  O.Kind = S.Kind;
  O.ContextBound = S.ContextBound;
  O.TrackCoverage = true;
  O.DetectDivergence = false;
  O.ExecutionBound = 5000;
  O.MaxExecutions = Table2Budget;
  if (C == Column::Total) {
    O.Fair = false;
    O.StatefulPruning = true;
  }
  return {std::move(Make), O};
}

std::vector<Bug> paper::table3Bugs() {
  auto Wsq = [](WsqBug B) {
    WsqConfig C;
    C.Stealers = 1;
    C.Tasks = 2;
    C.Bug = B;
    C.CaptureState = false;
    return [C] { return makeWsqProgram(C); };
  };
  // The close must land mid-stream but only after real progress (bugs 3
  // and 4): the unfair search burns its depth bound unrolling the drain
  // loop long before the racing window opens.
  auto Channel = [](ChannelBug B, int Producers, int Consumers,
                    int Capacity, int CloseAfter) {
    ChannelsConfig C;
    C.Bug = B;
    C.Producers = Producers;
    C.Consumers = Consumers;
    C.Messages = 2;
    C.Capacity = Capacity;
    C.CloseAfter = CloseAfter;
    return [C] { return makeChannelsProgram(C); };
  };
  return {
      {"WSQ bug 1 (tso)", "82 / 182", Wsq(WsqBug::PopReordered),
       MemoryModel::Tso},
      {"WSQ bug 2", "112 / 432", Wsq(WsqBug::StealNoRestore)},
      {"WSQ bug 3", "212 / 843", Wsq(WsqBug::PopNoRecheck)},
      {"Dryad bug 1", "310 / 11,024",
       Channel(ChannelBug::IfInsteadOfWhile, 1, 2, 2, -1)},
      {"Dryad bug 2", "4,002 / 47,030",
       Channel(ChannelBug::LostSignal, 2, 1, 2, -1)},
      {"Dryad bug 3", "25,113 / -",
       Channel(ChannelBug::RacyClose, 2, 2, 2, 3)},
      {"Dryad bug 4", "677 / -",
       Channel(ChannelBug::BadCloseFix, 2, 2, 2, 3)},
  };
}

Search paper::table3Search(const Bug &B, bool Fair) {
  CheckerOptions O = Fair ? CheckerOptions() : unfair(250, Table3Budget);
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = 2;
  O.DetectDivergence = false;
  O.MaxExecutions = Table3Budget;
  O.Memory = B.Memory;
  if (Fair)
    O.ExecutionBound = 5000;
  return {B.Make, O};
}

std::vector<Finding> paper::section43Findings() {
  auto Options = [](SearchKind Kind, int ContextBound, uint64_t GsBound,
                    uint64_t ExecutionBound) {
    CheckerOptions O;
    O.Kind = Kind;
    if (Kind == SearchKind::ContextBounded)
      O.ContextBound = ContextBound;
    if (GsBound)
      O.GoodSamaritanBound = GsBound;
    if (ExecutionBound)
      O.ExecutionBound = ExecutionBound;
    O.MaxExecutions = Section43Budget;
    return O;
  };
  const SearchKind Cb = SearchKind::ContextBounded, Dfs = SearchKind::Dfs;
  WorkerGroupConfig Wg, WgFixed;
  WgFixed.ShutdownSpinBug = false;
  PromiseConfig Promise, PromiseBug;
  PromiseBug.StaleReadBug = true;
  SpinWaitConfig NoYield;
  NoYield.WithYield = false;
  auto WorkerGroup = [](WorkerGroupConfig C) {
    return [C] { return makeWorkerGroupProgram(C); };
  };
  auto PromiseProgram = [](PromiseConfig C) {
    return [C] { return makePromiseProgram(C); };
  };
  return {
      {"Figure 7 worker-pool shutdown spin (cb=2, GS bound 200)",
       "GS violation",
       {WorkerGroup(Wg), Options(Cb, 2, 200, 0)},
       Verdict::GoodSamaritanViolation},
      {"Figure 7, fair DFS with GS bound 1000", "-",
       {WorkerGroup(Wg), Options(Dfs, 0, 1000, 0)},
       Verdict::GoodSamaritanViolation},
      {"Figure 8 Promise stale read", "livelock",
       {PromiseProgram(PromiseBug), Options(Dfs, 0, 0, 1000)},
       Verdict::Livelock},
      {"Figure 1 dining livelock (execution bound 300)",
       "execution-bound warning",
       {diningTryLock(/*CaptureState=*/true), Options(Dfs, 0, 0, 300)},
       Verdict::Livelock},
      {"Spin without yield (Figure 3 variant, GS bound 100)", "-",
       {[NoYield] { return makeSpinWaitProgram(NoYield); },
        Options(Dfs, 0, 100, 0)},
       Verdict::GoodSamaritanViolation},
      {"Promise, fixed (cb=2)", "no violation",
       {PromiseProgram(Promise), Options(Cb, 2, 0, 0)}, Verdict::Pass},
      {"Worker pool, fixed (cb=1, GS bound 200)", "no violation",
       {WorkerGroup(WgFixed), Options(Cb, 1, 200, 0)}, Verdict::Pass},
  };
}

const std::vector<Table> &paper::tables() {
  static const std::vector<Table> All = {
      {"fig2", renderFig2},         {"table1", renderTable1},
      {"table2", renderTable2},     {"fig5", renderFig5},
      {"fig6", renderFig6},         {"table3", renderTable3},
      {"section43", renderSection43}, {"ablation", renderAblation},
  };
  return All;
}
