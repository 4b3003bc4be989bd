//===- tests/core/FleetParityTest.cpp -------------------------------------===//
//
// Differential parity suite for --fleet=N (core/Fleet.cpp): the
// supervised multi-process search must be a *transport*, not a different
// search. On exhaustive runs its verdicts, stats and deduplicated
// incident sets equal --jobs=N and the serial engine exactly -- and stay
// exactly equal under FSMC_FLEET_CHAOS fault injection (killed workers,
// hung workers, zero respawn budget), because a worker that dies commits
// nothing and its unit is re-run identically. The only permitted deltas
// are wall time and the fleet_* recovery counters.
//
// Also here: the degradation ladder (reduced width, in-process fallback,
// poison-unit quarantine) and the interrupt/checkpoint/resume loop.
//
//===----------------------------------------------------------------------===//

#include "core/Checker.h"
#include "core/Checkpoint.h"
#include "obs/Observer.h"

#include "workloads/CrashFault.h"
#include "workloads/DiningPhilosophers.h"
#include "workloads/Peterson.h"
#include "workloads/WorkStealQueue.h"
#include "workloads/WorkloadRegistry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <vector>

using namespace fsmc;

namespace {

/// Scoped FSMC_FLEET_CHAOS override: a spec sets it, nullptr clears it.
/// CI's chaos job runs this whole suite with an ambient spec, so runs
/// that must stay healthy (the Clean baselines) clear it explicitly;
/// ctest runs every test in its own process, so the ambient spec is
/// re-seen by each test even though the destructor unsets.
struct ChaosEnv {
  explicit ChaosEnv(const char *Spec) {
    if (Spec)
      setenv("FSMC_FLEET_CHAOS", Spec, 1);
    else
      unsetenv("FSMC_FLEET_CHAOS");
  }
  ~ChaosEnv() { unsetenv("FSMC_FLEET_CHAOS"); }
};

/// Order-insensitive deduplicated incident view (idiom shared with
/// PorParityTest): fleet workers commit incidents in racy arrival order.
std::set<std::string> incidentSet(const CheckResult &R) {
  std::set<std::string> S;
  if (R.Bug)
    S.insert(verdictName(R.Bug->Kind) + std::string(": ") + R.Bug->Message);
  for (const BugReport &I : R.Incidents)
    S.insert(verdictName(I.Kind) + std::string(": ") + I.Message);
  return S;
}

/// The exactness bar: everything the search observed must match, only
/// wall time and the fleet_* recovery counters may differ.
void expectExactlyEqual(const CheckResult &A, const CheckResult &B) {
  EXPECT_EQ(A.Kind, B.Kind);
  EXPECT_EQ(incidentSet(A), incidentSet(B));
  EXPECT_EQ(A.Stats.Executions, B.Stats.Executions);
  EXPECT_EQ(A.Stats.Transitions, B.Stats.Transitions);
  EXPECT_EQ(A.Stats.Preemptions, B.Stats.Preemptions);
  EXPECT_EQ(A.Stats.MaxDepth, B.Stats.MaxDepth);
  EXPECT_EQ(A.Stats.BugsFound, B.Stats.BugsFound);
  EXPECT_EQ(A.Stats.RacesFound, B.Stats.RacesFound);
  EXPECT_EQ(A.Stats.SearchExhausted, B.Stats.SearchExhausted);
  ASSERT_EQ(A.Bug.has_value(), B.Bug.has_value());
  if (A.Bug) {
    // Both engines converge on the DFS-smallest counterexample.
    EXPECT_EQ(A.Bug->Schedule, B.Bug->Schedule);
    EXPECT_EQ(A.Bug->Message, B.Bug->Message);
  }
}

/// Exhaustive fair context-bounded search; every catalogue workload below
/// finishes it in well under a second, so the multiset of executions is
/// fully determined and fleet/jobs/serial must agree exactly.
CheckerOptions exhaustiveOpts(int Cb) {
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = Cb;
  O.TimeBudgetSeconds = 120;
  O.StopOnFirstBug = false;
  return O;
}

CheckerOptions fleetOpts(CheckerOptions O, int Workers, int Batch = 16) {
  O.FleetWorkers = Workers;
  O.BatchSize = Batch;
  return O;
}

/// Registry key ("Dining Philosophers" -> "dining-philosophers"), the
/// same folding tools/fsmc_run.cpp applies.
std::string keyOf(const std::string &Name) {
  std::string Key;
  for (char Ch : Name)
    Key += Ch == ' ' ? '-' : char(std::tolower((unsigned char)Ch));
  return Key;
}

TestProgram registryProgram(const std::string &Key) {
  // Peterson is a CLI-extra program, not a registry row; resolve it the
  // way tools/fsmc_run.cpp does.
  if (Key == "peterson")
    return makePetersonProgram(PetersonConfig());
  for (const RegisteredWorkload &W : allWorkloads())
    if (keyOf(W.Name) == Key)
      return W.Make();
  ADD_FAILURE() << "registry workload '" << Key << "' not found";
  return makePetersonProgram(PetersonConfig());
}

} // namespace

//===----------------------------------------------------------------------===//
// Whole-registry sweep (the acceptance criterion): --fleet=4 produces the
// same verdicts and deduplicated incident sets as --jobs=4 on every
// registered workload. Rows small enough to exhaust under the cap must
// also match execution-for-execution.
//===----------------------------------------------------------------------===//

TEST(FleetParity, RegistrySweepFleet4MatchesJobs4) {
  for (const RegisteredWorkload &W : allWorkloads()) {
    SCOPED_TRACE(W.Name);
    CheckerOptions Base;
    Base.Kind = SearchKind::ContextBounded;
    Base.ContextBound = 1;
    Base.MaxExecutions = 400;
    Base.TimeBudgetSeconds = 60;
    Base.Races = RaceCheckMode::On;
    Base.StopOnFirstBug = false;

    CheckerOptions Jobs = Base;
    Jobs.Jobs = 4;
    CheckResult J = check(W.Make(), Jobs);
    CheckResult F = check(W.Make(), fleetOpts(Base, /*Workers=*/4));

    EXPECT_EQ(F.Kind, J.Kind);
    EXPECT_EQ(incidentSet(F), incidentSet(J));
    if (F.Stats.SearchExhausted && J.Stats.SearchExhausted)
      expectExactlyEqual(F, J);
  }
}

//===----------------------------------------------------------------------===//
// Exhaustive catalogue: exact multiset parity at widths 1, 2, 4 and 8 and
// batch sizes 1, 16 and 64 against both the serial engine and --jobs=4.
// A unit that stops at its batch hands back one continuation plus the
// siblings of its shallowest open record; batch 1 makes every unit stop
// and continue after a single execution.
//===----------------------------------------------------------------------===//

TEST(FleetParity, ExhaustiveCatalogueExactAtAllWidths) {
  struct Entry {
    const char *Key;
    int Cb;
    bool TsoPor = false; // --memory=tso --por
  };
  const Entry Catalogue[] = {
      {"peterson", 2},
      {"dining-philosophers", 2},
      {"crash-fault", 2},
      {"promise", 2},
      {"work-stealing-queue", 1},
      // Continuations replay whole stacks, so every record's sleep and
      // flush masks must cross the wire with it.
      {"work-stealing-queue", 0, /*TsoPor=*/true},
  };
  for (const Entry &E : Catalogue) {
    SCOPED_TRACE(std::string(E.Key) + (E.TsoPor ? " tso por" : ""));
    CheckerOptions Base = exhaustiveOpts(E.Cb);
    if (E.TsoPor) {
      Base.Memory = MemoryModel::Tso;
      Base.Por = true;
    }
    CheckResult Serial = check(registryProgram(E.Key), Base);
    ASSERT_TRUE(Serial.Stats.SearchExhausted);

    CheckerOptions Jobs = Base;
    Jobs.Jobs = 4;
    CheckResult J = check(registryProgram(E.Key), Jobs);
    expectExactlyEqual(J, Serial);

    for (int Batch : {1, 16, 64})
      for (int Width : {1, 2, 4, 8}) {
        SCOPED_TRACE("fleet width " + std::to_string(Width) + " batch " +
                     std::to_string(Batch));
        CheckResult F =
            check(registryProgram(E.Key), fleetOpts(Base, Width, Batch));
        expectExactlyEqual(F, Serial);
        // CI's chaos job reruns this suite with ambient FSMC_FLEET_CHAOS;
        // exactness must hold regardless, but a quiet run additionally
        // proves the supervisor never intervened.
        if (!std::getenv("FSMC_FLEET_CHAOS")) {
          EXPECT_EQ(F.Stats.FleetWorkerCrashes, 0u);
          EXPECT_EQ(F.Stats.FleetReissues, 0u);
        }
      }
  }
}

TEST(FleetParity, BugSearchConvergesOnDfsSmallestCounterexample) {
  // StopOnFirstBug off: the whole buggy tree is enumerated and every
  // engine must return the DFS-smallest schedule, independent of which
  // worker stumbled on a bug first.
  PetersonConfig C;
  C.Kind = PetersonConfig::Variant::FlagAfterCheck;
  CheckerOptions Base = exhaustiveOpts(2);
  CheckResult Serial = check(makePetersonProgram(C), Base);
  ASSERT_TRUE(Serial.foundBug());
  for (int Width : {2, 4}) {
    SCOPED_TRACE(Width);
    CheckResult F =
        check(makePetersonProgram(C), fleetOpts(Base, Width, /*Batch=*/8));
    expectExactlyEqual(F, Serial);
  }
}

TEST(FleetParity, WidthOneFindsFirstBugInSerialExecutionCount) {
  // One worker leasing the DFS-smallest pending unit walks the tree in
  // serial DFS order, so it stops on the first bug after exactly the
  // serial engine's executions -- not merely on the same schedule.
  PetersonConfig Pc;
  Pc.Kind = PetersonConfig::Variant::FlagAfterCheck;
  DiningConfig Dc;
  Dc.Philosophers = 3;
  Dc.Kind = DiningConfig::Variant::DeadlockProne;
  WsqConfig Wc;
  Wc.Bug = WsqBug::StealNoRestore;
  Wc.CaptureState = false;
  CheckerOptions Table3;
  Table3.Kind = SearchKind::ContextBounded;
  Table3.ContextBound = 2;
  Table3.DetectDivergence = false;
  Table3.ExecutionBound = 5000;
  struct Case {
    TestProgram Program;
    CheckerOptions Opts;
  };
  const Case Cases[] = {{makePetersonProgram(Pc), CheckerOptions()},
                        {makeDiningProgram(Dc), CheckerOptions()},
                        {makeWsqProgram(Wc), Table3}};
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Program.Name);
    CheckResult Serial = check(C.Program, C.Opts);
    ASSERT_TRUE(Serial.foundBug());
    CheckResult F = check(C.Program, fleetOpts(C.Opts, /*Workers=*/1));
    ASSERT_TRUE(F.Bug.has_value());
    EXPECT_EQ(F.Kind, Serial.Kind);
    EXPECT_EQ(F.Bug->Schedule, Serial.Bug->Schedule);
    EXPECT_EQ(F.Stats.Executions, Serial.Stats.Executions);
  }
}

TEST(FleetParity, RaceIncidentsDedupAcrossWorkers) {
  // Both engines run the race detector per execution; the merge must
  // deduplicate identical race reports arriving from different workers.
  CrashFaultConfig C;
  C.Kind = CrashFaultConfig::Fault::Race;
  CheckerOptions Base = exhaustiveOpts(2);
  Base.Races = RaceCheckMode::On;
  CheckResult Serial = check(makeCrashFaultProgram(C), Base);
  ASSERT_GT(Serial.Stats.RacesFound, 0u) << "seeded race never fired";
  CheckResult F =
      check(makeCrashFaultProgram(C), fleetOpts(Base, 4, /*Batch=*/4));
  expectExactlyEqual(F, Serial);
}

namespace {

/// Runs \p P exhaustively under \p O with an Observer attached and returns
/// its counters.
obs::CounterSnapshot countersOf(const TestProgram &P, CheckerOptions O,
                                bool PhaseTiming) {
  obs::Observer::Config OC;
  OC.PhaseTiming = PhaseTiming;
  obs::Observer Obs(OC);
  O.Obs = &Obs;
  CheckResult R = check(P, O);
  EXPECT_TRUE(R.Stats.SearchExhausted);
  return Obs.snapshot();
}

} // namespace

TEST(FleetParity, EveryEngineReportsTheSerialCounters) {
  // Fleet and isolated workers count into their own registries and ship
  // the counts with each committed attempt, so every engine reports the
  // serial engine's counters. The kill:2 leg (and CI's chaos job, which
  // runs this suite under FSMC_FLEET_CHAOS=kill:2) checks that a killed
  // attempt's counts, like its stats, are never committed.
  const obs::Counter Pinned[] = {
      obs::Counter::Executions,       obs::Counter::Transitions,
      obs::Counter::ReplaySteps,      obs::Counter::SchedulePoints,
      obs::Counter::SyncContention,   obs::Counter::FairEdgeAdds,
      obs::Counter::FairEdgeRemovals, obs::Counter::BugsFound,
      obs::Counter::Deadlocks,        obs::Counter::Livelocks,
      obs::Counter::GoodSamaritanViolations};
  DiningConfig Deadlocking;
  Deadlocking.Kind = DiningConfig::Variant::DeadlockProne;
  struct Case {
    TestProgram P;
    uint64_t MinDeadlocks;
  };
  const Case Cases[] = {{registryProgram("dining-philosophers"), 0},
                        {makeDiningProgram(Deadlocking), 2}};
  for (const auto &[P, MinDeadlocks] : Cases) {
    SCOPED_TRACE(P.Name);
    const CheckerOptions Base = exhaustiveOpts(1);
    obs::CounterSnapshot Serial = countersOf(P, Base, false);
    ASSERT_GT(Serial.counter(obs::Counter::ReplaySteps), 0u);
    ASSERT_GE(Serial.counter(obs::Counter::Deadlocks), MinDeadlocks);

    CheckerOptions Jobs = Base;
    Jobs.Jobs = 2;
    CheckerOptions Isolated = Base;
    Isolated.Isolate = IsolationMode::Batch;
    const CheckerOptions Fleet = fleetOpts(Base, 2);
    struct Engine {
      const char *Name;
      CheckerOptions Opts;
      const char *Chaos; // FSMC_FLEET_CHAOS for this leg; null = ambient
    };
    const Engine Engines[] = {{"jobs=2", Jobs, nullptr},
                              {"fleet=2", Fleet, nullptr},
                              {"fleet=2 kill:2", Fleet, "kill:2"},
                              {"isolate=batch", Isolated, nullptr}};
    for (const Engine &E : Engines) {
      SCOPED_TRACE(E.Name);
      std::optional<ChaosEnv> Env;
      if (E.Chaos)
        Env.emplace(E.Chaos);
      obs::CounterSnapshot Got = countersOf(P, E.Opts, false);
      for (obs::Counter C : Pinned)
        EXPECT_EQ(Got.counter(C), Serial.counter(C)) << obs::counterName(C);
    }
  }

  // Phase timing reaches the workers too.
  for (const CheckerOptions &O :
       {fleetOpts(exhaustiveOpts(1), 2), [] {
          CheckerOptions I = exhaustiveOpts(1);
          I.Isolate = IsolationMode::Batch;
          return I;
        }()}) {
    obs::CounterSnapshot Got =
        countersOf(registryProgram("dining-philosophers"), O, true);
    EXPECT_GT(Got.phaseNs(obs::Phase::Replay), 0u);
    EXPECT_GT(Got.phaseNs(obs::Phase::Execute), 0u);
  }
}

TEST(FleetParity, UnitCountIsExactAtWidthOneAndAtBatchOne) {
  // A lone worker stops a unit only at its batch, and what a unit hands
  // back depends only on where it stopped, so at width 1 the units an
  // exhaustive search commits are a function of the tree and the batch.
  // A wider fleet also stops a unit early when a worker idles beside an
  // empty queue, which moves the count with timing -- except at batch 1,
  // where every unit runs exactly one execution either way. Serial and
  // thread-engine reports omit the row.
  TestProgram P = registryProgram("dining-philosophers");
  const CheckerOptions Base = exhaustiveOpts(2);
  CheckerOptions Jobs = Base;
  Jobs.Jobs = 2;
  EXPECT_EQ(countersOf(P, Base, false).counter(obs::Counter::FleetUnits), 0u);
  EXPECT_EQ(countersOf(P, Jobs, false).counter(obs::Counter::FleetUnits), 0u);
  // A killed attempt commits nothing and its re-run commits once, but a
  // fleet that runs out of workers finishes its queue in-process, unsplit;
  // so, like the quiet-run checks above, the pins skip chaos runs.
  if (std::getenv("FSMC_FLEET_CHAOS"))
    return;
  struct Pin {
    int Batch;
    uint64_t Units;
  };
  for (const Pin &Pn : {Pin{16, 259}, Pin{64, 69}}) {
    SCOPED_TRACE("batch " + std::to_string(Pn.Batch));
    obs::CounterSnapshot One =
        countersOf(P, fleetOpts(Base, 1, Pn.Batch), false);
    EXPECT_EQ(One.counter(obs::Counter::FleetUnits), Pn.Units);
    // No unit runs more than its batch.
    uint64_t Execs = One.counter(obs::Counter::Executions);
    obs::CounterSnapshot Four =
        countersOf(P, fleetOpts(Base, 4, Pn.Batch), false);
    EXPECT_GE(Four.counter(obs::Counter::FleetUnits),
              (Execs + uint64_t(Pn.Batch) - 1) / uint64_t(Pn.Batch));
  }
  for (int Width : {1, 4}) {
    SCOPED_TRACE("batch 1, width " + std::to_string(Width));
    obs::CounterSnapshot Got = countersOf(P, fleetOpts(Base, Width, 1), false);
    EXPECT_EQ(Got.counter(obs::Counter::FleetUnits),
              Got.counter(obs::Counter::Executions));
  }
}

//===----------------------------------------------------------------------===//
// Chaos: fault injection must change the fleet_* counters and nothing
// else. A killed worker commits nothing, so the re-run of its unit
// reproduces the identical subtree.
//===----------------------------------------------------------------------===//

TEST(FleetChaos, KilledWorkersChangeNothingButTheCounters) {
  TestProgram P = registryProgram("dining-philosophers");
  CheckerOptions Base = fleetOpts(exhaustiveOpts(2), /*Workers=*/4,
                                  /*Batch=*/8);
  // kill:3 arms the first three spawned workers to SIGKILL themselves
  // mid-attempt; with the quarantine threshold raised the re-issues must
  // absorb all three deaths without losing or duplicating a unit.
  Base.FleetQuarantine = 10;
  CheckResult Clean;
  {
    ChaosEnv Env(nullptr);
    Clean = check(registryProgram("dining-philosophers"), Base);
  }
  ASSERT_TRUE(Clean.Stats.SearchExhausted);

  CheckResult Chaos;
  {
    ChaosEnv Env("kill:3");
    Chaos = check(registryProgram("dining-philosophers"), Base);
  }
  expectExactlyEqual(Chaos, Clean);
  EXPECT_GE(Chaos.Stats.FleetWorkerCrashes, 3u);
  EXPECT_GE(Chaos.Stats.FleetReissues, 3u);
  EXPECT_GE(Chaos.Stats.FleetRespawns, 3u);
  EXPECT_EQ(Chaos.Stats.FleetQuarantined, 0u);
  EXPECT_EQ(Clean.Stats.FleetWorkerCrashes, 0u);
}

TEST(FleetChaos, HungWorkerIsDetectedByHeartbeatAndRecovered) {
  CheckerOptions Base = fleetOpts(exhaustiveOpts(2), /*Workers=*/2,
                                  /*Batch=*/16);
  Base.FleetQuarantine = 10;
  // Tight heartbeat deadline so the hang is declared in well under a
  // second.
  Base.HangTimeoutSeconds = 0.4;
  CheckResult Clean;
  {
    ChaosEnv Env(nullptr);
    Clean = check(makePetersonProgram(PetersonConfig()), Base);
  }
  ASSERT_TRUE(Clean.Stats.SearchExhausted);

  CheckResult Chaos;
  {
    ChaosEnv Env("hang:1");
    Chaos = check(makePetersonProgram(PetersonConfig()), Base);
  }
  expectExactlyEqual(Chaos, Clean);
  EXPECT_GE(Chaos.Stats.FleetWorkerCrashes, 1u);
  EXPECT_GE(Chaos.Stats.FleetReissues, 1u);
}

TEST(FleetChaos, ReducedWidthAfterExhaustedRespawnBudgetStaysExact) {
  // Two of four workers die and may not be replaced; the surviving pair
  // absorbs the re-issued units and the result is still exact.
  CheckerOptions Base = fleetOpts(exhaustiveOpts(2), /*Workers=*/4,
                                  /*Batch=*/8);
  Base.FleetQuarantine = 10;
  Base.FleetRespawnBudget = 0;
  CheckResult Clean;
  {
    ChaosEnv Env(nullptr);
    Clean = check(registryProgram("dining-philosophers"), Base);
  }

  CheckResult Chaos;
  {
    ChaosEnv Env("kill:2");
    Chaos = check(registryProgram("dining-philosophers"), Base);
  }
  expectExactlyEqual(Chaos, Clean);
  EXPECT_EQ(Chaos.Stats.FleetWorkerCrashes, 2u);
  EXPECT_EQ(Chaos.Stats.FleetRespawns, 0u);
}

TEST(FleetChaos, AllWorkersDeadDegradesToInProcessWithoutDeadlock) {
  // Every worker dies with no respawn budget. The coordinator must not
  // hang on dead pipes: units whose attempts killed workers are
  // quarantined as crash suspects, anything untried runs in-process, and
  // the run terminates with an honest verdict.
  CheckerOptions Base = fleetOpts(exhaustiveOpts(2), /*Workers=*/2,
                                  /*Batch=*/64);
  Base.FleetRespawnBudget = 0;
  CheckResult R;
  {
    ChaosEnv Env("kill:2");
    R = check(makePetersonProgram(PetersonConfig()), Base);
  }
  EXPECT_EQ(R.Stats.FleetWorkerCrashes, 2u);
  EXPECT_EQ(R.Stats.FleetRespawns, 0u);
  // Every unit that killed a worker is quarantined on fallback; it
  // surfaces as a replayable crash incident, not a silent loss.
  EXPECT_GE(R.Stats.FleetQuarantined, 1u);
  EXPECT_EQ(R.Kind, Verdict::Crash);
  ASSERT_FALSE(R.Incidents.empty());
  EXPECT_FALSE(R.Incidents.front().Schedule.empty());
}

TEST(FleetChaos, PoisonUnitIsQuarantinedAsReplayableCrash) {
  // A workload that genuinely crashes the process running it: the unit
  // kills its worker every time, hits the quarantine threshold, and is
  // retired as a Verdict::Crash incident carrying a replayable schedule
  // prefix -- while the coordinator survives.
  CrashFaultConfig C;
  C.Kind = CrashFaultConfig::Fault::NullDeref;
  CheckerOptions Base = fleetOpts(exhaustiveOpts(2), /*Workers=*/2,
                                  /*Batch=*/32);
  Base.FleetQuarantine = 1;
  Base.FleetRespawnBudget = 64;
  CheckResult R = check(makeCrashFaultProgram(C), Base);
  EXPECT_EQ(R.Kind, Verdict::Crash);
  EXPECT_GE(R.Stats.FleetWorkerCrashes, 1u);
  EXPECT_GE(R.Stats.FleetQuarantined, 1u);
  ASSERT_FALSE(R.Incidents.empty());
  EXPECT_EQ(R.Incidents.front().Kind, Verdict::Crash);
  EXPECT_FALSE(R.Incidents.front().Schedule.empty());
}

//===----------------------------------------------------------------------===//
// Interrupt / checkpoint / resume: a drained fleet checkpoint must
// reproduce the uninterrupted multiset, and checkpoints cross engines in
// both directions.
//===----------------------------------------------------------------------===//

namespace {

/// Repeated-interrupt harness (idiom from RobustnessTest): trip the
/// interrupt flag at every periodic checkpoint, resume from the drained
/// frontier, and iterate until the search completes.
CheckResult runWithRepeatedInterrupts(const TestProgram &Program,
                                      CheckerOptions Opts, uint64_t After,
                                      int *InterruptsTaken) {
  std::atomic<bool> Flag{false};
  Opts.InterruptFlag = &Flag;
  Opts.CheckpointEvery = After;
  Opts.CheckpointSink = [&](const CheckpointState &) {
    Flag.store(true, std::memory_order_relaxed);
  };
  CheckResult R = check(Program, Opts);
  int Interrupts = 0;
  while (R.Stats.Interrupted) {
    if (!R.Resume) {
      ADD_FAILURE() << "interrupted fleet must hand back a checkpoint";
      break;
    }
    ++Interrupts;
    // Wire round-trip every time: what --resume reads is the file, not
    // the in-memory state.
    std::string Text = encodeCheckpoint(*R.Resume, Program.Name, Opts.Seed);
    CheckpointState CK;
    std::string Name, Err;
    uint64_t Seed = 0;
    EXPECT_TRUE(decodeCheckpoint(Text, CK, Name, Seed, Err)) << Err;
    Flag.store(false, std::memory_order_relaxed);
    R = resumeCheck(Program, Opts, CK);
  }
  if (InterruptsTaken)
    *InterruptsTaken = Interrupts;
  return R;
}

} // namespace

TEST(FleetResume, InterruptedFleetMatchesUninterrupted) {
  TestProgram P = makePetersonProgram(PetersonConfig());
  CheckerOptions Base = fleetOpts(exhaustiveOpts(2), /*Workers=*/2,
                                  /*Batch=*/32);
  CheckResult Straight = check(P, Base);
  ASSERT_TRUE(Straight.Stats.SearchExhausted);

  int Interrupts = 0;
  CheckResult Chopped = runWithRepeatedInterrupts(P, Base, 60, &Interrupts);
  ASSERT_GT(Interrupts, 1) << "the fleet was never actually interrupted";
  EXPECT_TRUE(Chopped.Stats.SearchExhausted);
  EXPECT_EQ(Chopped.Kind, Straight.Kind);
  EXPECT_EQ(Chopped.Stats.Executions, Straight.Stats.Executions);
  EXPECT_EQ(Chopped.Stats.Transitions, Straight.Stats.Transitions);
  EXPECT_EQ(Chopped.Stats.Preemptions, Straight.Stats.Preemptions);
}

TEST(FleetResume, SerialCheckpointResumesIntoFleet) {
  // Cross-engine: a serial run's checkpoint (a DFS stack decomposed into
  // frozen prefixes) must finish exactly under fleet supervision.
  DiningConfig C;
  C.Philosophers = 2;
  C.Kind = DiningConfig::Variant::Mixed;
  TestProgram P = makeDiningProgram(C);
  CheckerOptions O;
  O.ExportStateSignatures = true;

  CheckResult Straight = check(P, O);
  ASSERT_TRUE(Straight.Stats.SearchExhausted);

  std::atomic<bool> Flag{false};
  CheckerOptions Cut = O;
  Cut.InterruptFlag = &Flag;
  Cut.CheckpointEvery = 10;
  Cut.CheckpointSink = [&](const CheckpointState &) { Flag.store(true); };
  CheckResult Partial = check(P, Cut);
  ASSERT_TRUE(Partial.Stats.Interrupted);
  ASSERT_TRUE(Partial.Resume != nullptr);

  CheckerOptions Fleet = fleetOpts(O, /*Workers=*/4, /*Batch=*/8);
  CheckResult Resumed = resumeCheck(P, Fleet, *Partial.Resume);
  EXPECT_TRUE(Resumed.Stats.SearchExhausted);
  EXPECT_EQ(Resumed.Kind, Straight.Kind);
  EXPECT_EQ(Resumed.Stats.Executions, Straight.Stats.Executions);
  EXPECT_EQ(Resumed.Stats.Transitions, Straight.Stats.Transitions);
  EXPECT_EQ(Resumed.Stats.DistinctStates, Straight.Stats.DistinctStates);
  EXPECT_EQ(Resumed.StateSignatures, Straight.StateSignatures);
}

TEST(FleetResume, InterruptedFleetUnderChaosStillResumesExactly) {
  // The two robustness layers compose: a fleet that is losing workers to
  // chaos *and* being interrupted still reconstructs the uninterrupted
  // multiset across resumes.
  TestProgram P = makePetersonProgram(PetersonConfig());
  CheckerOptions Base = fleetOpts(exhaustiveOpts(2), /*Workers=*/2,
                                  /*Batch=*/32);
  Base.FleetQuarantine = 10;
  CheckResult Straight = check(P, Base);

  CheckResult Chopped;
  {
    ChaosEnv Env("kill:1");
    Chopped = runWithRepeatedInterrupts(P, Base, 100, nullptr);
  }
  EXPECT_TRUE(Chopped.Stats.SearchExhausted);
  EXPECT_EQ(Chopped.Stats.Executions, Straight.Stats.Executions);
  EXPECT_EQ(Chopped.Stats.Transitions, Straight.Stats.Transitions);
}
