//===- fsmc_bench/Searches.cpp - The ledger's searches and verdicts -------===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
//
// Why these four workloads (README.md has the measured shares):
//
//   bughunt   Table 3 / Fig 5 time-to-first-bug: many short executions
//             that stop early, replay-dominated, and the only workload
//             that goes through the crash sandbox.
//   liveness  Section 4.3 divergence hunts: long executions that fairness
//             needs before it can classify a divergence; replay cost grows
//             quadratically with the good-samaritan bound, and the promise
//             hunt is one fresh 20000-step execution replay never touches.
//   verify    Fig 5/6 exhaustive searches: the only workload that runs
//             POR, weak memory, coverage lookups and race detection.
//   scaleout  The one search run on the thread engine and on the process
//             fleet, whose totals must equal the pinned serial ones.
//
//===----------------------------------------------------------------------===//

#include "Searches.h"

#include "workloads/Channels.h"
#include "workloads/CrashFault.h"
#include "workloads/DiningPhilosophers.h"
#include "workloads/Promise.h"
#include "workloads/SpinWait.h"
#include "workloads/WorkStealQueue.h"
#include "workloads/WorkerGroup.h"

using namespace fsmc;
using namespace fsmc::ledger;

namespace {

/// The fair configuration of Table 3 (bench/table3_bugs.cpp), minus its
/// time budget: a budget would make the execution count timing-dependent.
CheckerOptions table3Fair() {
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = 2;
  O.DetectDivergence = false;
  O.ExecutionBound = 5000;
  return O;
}

CheckerOptions contextBounded(int Bound, bool Coverage) {
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = Bound;
  O.TrackCoverage = Coverage;
  return O;
}

std::function<TestProgram()> wsq(int Stealers, int Tasks, WsqBug Bug,
                                 bool CaptureState = true,
                                 bool RacySize = false) {
  WsqConfig C;
  C.Stealers = Stealers;
  C.Tasks = Tasks;
  C.Bug = Bug;
  C.CaptureState = CaptureState;
  C.RacySize = RacySize;
  return [C] { return makeWsqProgram(C); };
}

std::function<TestProgram()> channels(ChannelBug Bug, int Producers,
                                      int Consumers, int Capacity,
                                      int CloseAfter) {
  ChannelsConfig C;
  C.Bug = Bug;
  C.Producers = Producers;
  C.Consumers = Consumers;
  C.Messages = 2;
  C.Capacity = Capacity;
  C.CloseAfter = CloseAfter;
  return [C] { return makeChannelsProgram(C); };
}

std::function<TestProgram()> dining(int Philosophers,
                                    DiningConfig::Variant Kind) {
  DiningConfig C;
  C.Philosophers = Philosophers;
  C.Kind = Kind;
  return [C] { return makeDiningProgram(C); };
}

std::vector<SearchSpec> buildSearches() {
  std::vector<SearchSpec> V;
  auto add = [&V](const char *Id, const char *Workload,
                  std::function<TestProgram()> Make, CheckerOptions Opts,
                  Verdict Expect, uint64_t Executions, uint64_t States = 0,
                  uint64_t Crashes = 0, uint64_t Races = 0) {
    V.push_back({Id, Workload, std::move(Make), Opts, Expect, Executions,
                 States, Crashes, Races});
  };

  //===--- bughunt ---------------------------------------------------------===//
  {
    // WSQ bug 1 is the missing THE-protocol fence: it exists only under a
    // store-buffer memory model.
    CheckerOptions O = table3Fair();
    O.Memory = MemoryModel::Tso;
    add("wsq1_tso", "bughunt",
        wsq(1, 2, WsqBug::PopReordered, /*CaptureState=*/false), O,
        Verdict::SafetyViolation, 2406);
  }
  add("wsq2", "bughunt",
      wsq(1, 2, WsqBug::StealNoRestore, /*CaptureState=*/false), table3Fair(),
      Verdict::SafetyViolation, 342);
  add("wsq3", "bughunt",
      wsq(1, 2, WsqBug::PopNoRecheck, /*CaptureState=*/false), table3Fair(),
      Verdict::SafetyViolation, 306);
  // Dryad bug 1 is left out: at 2.7 s it would be 60% of the pass, with
  // the same shape as bug 2.
  add("dryad2", "bughunt", channels(ChannelBug::LostSignal, 2, 1, 2, -1),
      table3Fair(), Verdict::Deadlock, 35510);
  add("dryad3", "bughunt", channels(ChannelBug::RacyClose, 2, 2, 2, 3),
      table3Fair(), Verdict::SafetyViolation, 20);
  add("dryad4", "bughunt", channels(ChannelBug::BadCloseFix, 2, 2, 2, 3),
      table3Fair(), Verdict::SafetyViolation, 20);
  add("dining3_deadlock", "bughunt",
      dining(3, DiningConfig::Variant::DeadlockProne), CheckerOptions(),
      Verdict::Deadlock, 13141);
  {
    CheckerOptions O;
    O.Races = RaceCheckMode::Fatal;
    add("wsq_racy_fatal", "bughunt",
        wsq(1, 2, WsqBug::None, /*CaptureState=*/true, /*RacySize=*/true), O,
        Verdict::DataRace, 3, 0, 0, 1);
  }
  {
    CrashFaultConfig C;
    C.Kind = CrashFaultConfig::Fault::NullDeref;
    CheckerOptions O;
    O.Isolate = IsolationMode::Batch;
    add("crash_segv", "bughunt", [C] { return makeCrashFaultProgram(C); }, O,
        Verdict::Crash, 1707, 0, 48);
  }

  //===--- liveness --------------------------------------------------------===//
  {
    WorkerGroupConfig C;
    CheckerOptions O;
    O.GoodSamaritanBound = 1000;
    add("wg_gs1000", "liveness", [C] { return makeWorkerGroupProgram(C); }, O,
        Verdict::GoodSamaritanViolation, 3023);
  }
  {
    CheckerOptions O;
    O.ExecutionBound = 300;
    add("dining_livelock", "liveness",
        dining(2, DiningConfig::Variant::TryLockRetry), O, Verdict::Livelock,
        2789);
  }
  {
    PromiseConfig C;
    C.StaleReadBug = true;
    add("promise_livelock", "liveness",
        [C] { return makePromiseProgram(C); }, CheckerOptions(),
        Verdict::Livelock, 1);
  }
  {
    SpinWaitConfig C;
    C.WithYield = false;
    CheckerOptions O;
    O.GoodSamaritanBound = 100;
    add("spin_noyield", "liveness", [C] { return makeSpinWaitProgram(C); }, O,
        Verdict::GoodSamaritanViolation, 200);
  }

  //===--- verify ----------------------------------------------------------===//
  {
    CheckerOptions O = contextBounded(2, /*Coverage=*/false);
    O.Memory = MemoryModel::Tso;
    O.Por = true;
    add("wsq_tso_por", "verify", wsq(1, 1, WsqBug::None), O, Verdict::Pass,
        19079);
  }
  add("dining3_cb3", "verify", dining(3, DiningConfig::Variant::Mixed),
      contextBounded(3, /*Coverage=*/true), Verdict::Pass, 15001, 250);
  add("wsq2s_cb1", "verify", wsq(2, 2, WsqBug::None),
      contextBounded(1, /*Coverage=*/true), Verdict::Pass, 3139, 1187);
  {
    CheckerOptions O = contextBounded(2, /*Coverage=*/false);
    O.Races = RaceCheckMode::On;
    add("wsq_racy_on", "verify",
        wsq(1, 2, WsqBug::None, /*CaptureState=*/true, /*RacySize=*/true), O,
        Verdict::DataRace, 1685, 0, 0, 1);
  }

  //===--- scaleout --------------------------------------------------------===//
  // Both engines must reproduce the serial totals exactly.
  {
    CheckerOptions O = contextBounded(2, /*Coverage=*/true);
    O.Jobs = 4;
    add("dining4_jobs4", "scaleout", dining(4, DiningConfig::Variant::Mixed),
        O, Verdict::Pass, 74231, 1365);
  }
  {
    CheckerOptions O = contextBounded(2, /*Coverage=*/true);
    O.FleetWorkers = 4;
    add("dining4_fleet4", "scaleout", dining(4, DiningConfig::Variant::Mixed),
        O, Verdict::Pass, 74231, 1365);
  }
  return V;
}

} // namespace

const std::vector<SearchSpec> &ledger::allSearches() {
  static const std::vector<SearchSpec> Searches = buildSearches();
  return Searches;
}

const std::vector<std::string> &ledger::workloadNames() {
  static const std::vector<std::string> Names = {"bughunt", "liveness",
                                                 "verify", "scaleout"};
  return Names;
}

std::vector<const SearchSpec *> ledger::searchesOf(const std::string &Workload) {
  std::vector<const SearchSpec *> Out;
  for (const SearchSpec &S : allSearches())
    if (S.Workload == Workload)
      Out.push_back(&S);
  return Out;
}

std::string ledger::checkOutcome(const SearchSpec &S, const CheckResult &R) {
  auto Mismatch = [](const char *What, uint64_t Got, uint64_t Want) {
    return std::string(What) + " " + std::to_string(Got) + ", expected " +
           std::to_string(Want);
  };
  if (R.Kind != S.Expect)
    return std::string("verdict ") + verdictName(R.Kind) + ", expected " +
           verdictName(S.Expect);
  if (R.Stats.Executions != S.Executions)
    return Mismatch("executions", R.Stats.Executions, S.Executions);
  if (S.Opts.TrackCoverage && R.Stats.DistinctStates != S.States)
    return Mismatch("states", R.Stats.DistinctStates, S.States);
  if (R.Stats.Crashes != S.Crashes)
    return Mismatch("crashes", R.Stats.Crashes, S.Crashes);
  if (R.Stats.RacesFound != S.Races)
    return Mismatch("races", R.Stats.RacesFound, S.Races);
  return "";
}
