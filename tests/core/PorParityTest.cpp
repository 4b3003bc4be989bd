//===- tests/core/PorParityTest.cpp ---------------------------------------===//
//
// Differential bug-parity suite for --por=on: partial-order reduction is
// only a *reduction* if it preserves what the search can observe.  Every
// workload registry entry must produce the same verdict and the same
// deduplicated bug/race set with POR on and off, while executing no more
// schedules; the seeded-bug catalogue (dining deadlock, Peterson, WSQ,
// crash-fault race) must additionally show a real reduction in
// executions-to-first-bug, and two searches pin the reduction's exact
// execution counts (PinnedReductionCounts below).
//
//===----------------------------------------------------------------------===//

#include "core/Checker.h"

#include "workloads/CrashFault.h"
#include "workloads/DiningPhilosophers.h"
#include "workloads/Peterson.h"
#include "workloads/SpinWait.h"
#include "workloads/WorkStealQueue.h"
#include "workloads/WorkloadRegistry.h"

#include <gtest/gtest.h>
#include <algorithm>
#include <set>
#include <string>
#include <vector>

using namespace fsmc;

namespace {

/// The deduplicated incident view: every distinct crash/hang/race message
/// the run harvested, plus the primary bug.  Sorting makes the comparison
/// order-insensitive (parallel runs discover incidents in racy order).
std::set<std::string> incidentSet(const CheckResult &R) {
  std::set<std::string> S;
  if (R.Bug)
    S.insert(verdictName(R.Bug->Kind) + std::string(": ") + R.Bug->Message);
  for (const BugReport &I : R.Incidents)
    S.insert(verdictName(I.Kind) + std::string(": ") + I.Message);
  return S;
}

/// Bounded fair DFS over a registry entry.  POR is inert without
/// backtracking, so the sweep deliberately replaces the registry's
/// RandomWalk MeasureOptions with a capped DFS.
CheckerOptions sweepOptions(int Jobs, bool Por) {
  CheckerOptions O;
  O.Kind = SearchKind::Dfs;
  O.MaxExecutions = 80;
  O.TimeBudgetSeconds = 60;
  O.Races = RaceCheckMode::On;
  O.StopOnFirstBug = false;
  O.Jobs = Jobs;
  O.Por = Por;
  return O;
}

void sweepRegistry(int Jobs) {
  for (const RegisteredWorkload &W : allWorkloads()) {
    SCOPED_TRACE(W.Name);
    CheckResult Off = check(W.Make(), sweepOptions(Jobs, /*Por=*/false));
    CheckResult On = check(W.Make(), sweepOptions(Jobs, /*Por=*/true));
    EXPECT_EQ(Off.Kind, On.Kind);
    EXPECT_EQ(incidentSet(Off), incidentSet(On));
    // A reduction never explores *more* schedules.  Parallel workers
    // check the execution cap between executions, so a jobs>1 run can
    // overshoot the cap by at most one execution per worker; grant the
    // reduced run the same slack the unreduced run gets.
    uint64_t Slack = Jobs > 1 ? uint64_t(Jobs - 1) : 0;
    EXPECT_LE(On.Stats.Executions, Off.Stats.Executions + Slack);
  }
}

} // namespace

TEST(PorParity, RegistrySweepSerial) { sweepRegistry(/*Jobs=*/1); }

TEST(PorParity, RegistrySweepJobs4) { sweepRegistry(/*Jobs=*/4); }

// More workers than cores: the work-stealing engine's exactness must not
// depend on every worker getting a CPU.
TEST(PorParity, RegistrySweepJobs8) { sweepRegistry(/*Jobs=*/8); }

//===----------------------------------------------------------------------===//
// Seeded-bug catalogue: POR must find every bug the full search finds,
// in fewer executions.
//===----------------------------------------------------------------------===//

namespace {

struct CatalogueEntry {
  const char *Name;
  std::function<TestProgram()> Make;
  RaceCheckMode Races;
  /// wsq-bug1 is the missing-fence defect: it needs --memory=tso to be
  /// reachable at all (workloads/WorkStealQueue.h), so its POR-vs-full
  /// comparison runs under tso on both sides.
  MemoryModel Memory = MemoryModel::Sc;
};

std::vector<CatalogueEntry> seededBugCatalogue() {
  std::vector<CatalogueEntry> C;
  C.push_back({"dining-deadlock",
               [] {
                 DiningConfig D;
                 D.Philosophers = 3;
                 D.Kind = DiningConfig::Variant::DeadlockProne;
                 return makeDiningProgram(D);
               },
               RaceCheckMode::Off});
  C.push_back({"peterson-noturn",
               [] {
                 PetersonConfig P;
                 P.Kind = PetersonConfig::Variant::NoTurn;
                 return makePetersonProgram(P);
               },
               RaceCheckMode::Off});
  C.push_back({"wsq-bug1",
               [] {
                 WsqConfig W;
                 W.Stealers = 1;
                 W.Tasks = 2;
                 W.Bug = WsqBug::PopReordered;
                 return makeWsqProgram(W);
               },
               RaceCheckMode::Off,
               MemoryModel::Tso});
  C.push_back({"crashfault-race",
               [] {
                 CrashFaultConfig F;
                 F.Kind = CrashFaultConfig::Fault::Race;
                 return makeCrashFaultProgram(F);
               },
               RaceCheckMode::On});
  return C;
}

/// Fair context-bounded search (the configuration the workload suite's
/// own bug goldens use: every catalogue bug is reachable within two
/// preemptions) to the first bug; Stats.Executions is then the
/// executions-to-first-bug count. PinnedReductionCounts pins the exact
/// counts of the unbounded fair DFS.
CheckResult firstBug(const CatalogueEntry &E, bool Por) {
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = 2;
  O.TimeBudgetSeconds = 120;
  O.Races = E.Races;
  O.Memory = E.Memory;
  O.Por = Por;
  return check(E.Make(), O);
}

} // namespace

TEST(PorParity, SeededBugCatalogueFindsEveryBugInFewerExecutions) {
  int TwoFold = 0;
  for (const CatalogueEntry &E : seededBugCatalogue()) {
    SCOPED_TRACE(E.Name);
    CheckResult Off = firstBug(E, /*Por=*/false);
    CheckResult On = firstBug(E, /*Por=*/true);
    ASSERT_TRUE(Off.foundBug());
    ASSERT_TRUE(On.foundBug()) << "POR dropped a real bug";
    EXPECT_EQ(Off.Kind, On.Kind);
    EXPECT_LE(On.Stats.Executions, Off.Stats.Executions);
    if (On.Stats.Executions * 2 <= Off.Stats.Executions)
      ++TwoFold;
    RecordProperty(std::string(E.Name) + "_executions_off",
                   int(Off.Stats.Executions));
    RecordProperty(std::string(E.Name) + "_executions_on",
                   int(On.Stats.Executions));
    std::printf("[por-parity] %-16s off=%llu on=%llu\n", E.Name,
                (unsigned long long)Off.Stats.Executions,
                (unsigned long long)On.Stats.Executions);
  }
  // The acceptance bar from the PR issue: at least a 2x schedule
  // reduction on at least two catalogue entries.
  EXPECT_GE(TwoFold, 2);
}

/// Exact execution counts of two searches with POR off and on: dining(3)
/// deadlock-prone under the default fair DFS to the first bug, and the
/// Figure 3 spin-wait searched exhaustively. The searches are
/// deterministic, so any change to either count is a change to what the
/// search or the reduction explores.
TEST(PorParity, PinnedReductionCounts) {
  struct Pin {
    const char *Name;
    std::function<TestProgram()> Make;
    CheckerOptions Options;
    Verdict Kind;
    uint64_t ExecutionsOff;
    uint64_t ExecutionsOn;
  };
  CheckerOptions FirstBug;
  CheckerOptions Exhaustive;
  Exhaustive.DetectDivergence = false;
  const Pin Pins[] = {
      {"dining3-deadlock-first-bug",
       [] {
         DiningConfig D;
         D.Philosophers = 3;
         D.Kind = DiningConfig::Variant::DeadlockProne;
         return makeDiningProgram(D);
       },
       FirstBug, Verdict::Deadlock, 13141, 927},
      {"spinwait-exhaustive", [] { return makeSpinWaitProgram({}); },
       Exhaustive, Verdict::Pass, 71, 39},
  };
  for (const Pin &P : Pins) {
    SCOPED_TRACE(P.Name);
    for (bool Por : {false, true}) {
      CheckerOptions O = P.Options;
      O.Por = Por;
      CheckResult R = check(P.Make(), O);
      EXPECT_EQ(R.Kind, P.Kind) << "por=" << Por;
      EXPECT_EQ(R.Stats.Executions, Por ? P.ExecutionsOn : P.ExecutionsOff)
          << "por=" << Por;
      if (P.Kind == Verdict::Pass) {
        EXPECT_TRUE(R.Stats.SearchExhausted) << "por=" << Por;
      }
    }
  }
}
