//===- tests/core/ParallelExplorerTest.cpp --------------------------------===//
//
// Serial-equivalence regression suite for the prefix-sharded parallel
// explorer. The parallel engine's contract is exact: an exhaustive
// search with --jobs N visits the same executions, the same transition
// total and the same state-signature *set* as --jobs 1, and under
// StopOnFirstBug it reports the identical (DFS-smallest) counterexample
// -- same schedule string, message, and failing step. These tests pin
// that contract down for Peterson, DiningPhilosophers and the
// work-stealing queue at small sizes, for every bug class (safety,
// deadlock, livelock), and for a worker exploring from a nonempty
// frozen prefix (the fairness-under-parallelism theorem case).
//
//===----------------------------------------------------------------------===//

#include "core/Explorer.h"
#include "core/Checkpoint.h"
#include "core/ParallelExplorer.h"
#include "core/Schedule.h"
#include "workloads/DiningPhilosophers.h"
#include "workloads/Peterson.h"
#include "workloads/SpinWait.h"
#include "workloads/WorkStealQueue.h"
#include "workloads/WorkloadRegistry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

using namespace fsmc;

namespace {

const int JobCounts[] = {2, 4, 8};

/// Runs the exhaustive search serially and at each parallel width and
/// asserts the full equivalence contract.
void expectExhaustiveEquivalence(const TestProgram &Program,
                                 CheckerOptions Opts) {
  Opts.ExportStateSignatures = true;
  Opts.Jobs = 1;
  CheckResult Serial = check(Program, Opts);
  ASSERT_TRUE(Serial.Stats.SearchExhausted)
      << "equivalence requires a search that completes";

  for (int Jobs : JobCounts) {
    SCOPED_TRACE("jobs=" + std::to_string(Jobs));
    Opts.Jobs = Jobs;
    CheckResult Par = check(Program, Opts);
    EXPECT_TRUE(Par.Stats.SearchExhausted);
    EXPECT_EQ(Par.Kind, Serial.Kind);
    EXPECT_EQ(Par.Stats.Executions, Serial.Stats.Executions);
    EXPECT_EQ(Par.Stats.Transitions, Serial.Stats.Transitions);
    EXPECT_EQ(Par.Stats.Preemptions, Serial.Stats.Preemptions);
    EXPECT_EQ(Par.Stats.MaxDepth, Serial.Stats.MaxDepth);
    EXPECT_EQ(Par.Stats.DistinctStates, Serial.Stats.DistinctStates);
    EXPECT_EQ(Par.Stats.BugsFound, Serial.Stats.BugsFound);
    // The sorted signature vectors must be identical element-wise: the
    // shards partition the choice tree, so their union is exactly the
    // serial visit set.
    EXPECT_EQ(Par.StateSignatures, Serial.StateSignatures);
  }
}

/// Runs a first-bug search at every width and asserts the identical
/// counterexample is reported.
void expectSameFirstBug(const TestProgram &Program, CheckerOptions Opts) {
  Opts.StopOnFirstBug = true;
  Opts.Jobs = 1;
  CheckResult Serial = check(Program, Opts);
  ASSERT_TRUE(Serial.foundBug());
  ASSERT_TRUE(Serial.Bug.has_value());

  for (int Jobs : JobCounts) {
    SCOPED_TRACE("jobs=" + std::to_string(Jobs));
    Opts.Jobs = Jobs;
    CheckResult Par = check(Program, Opts);
    ASSERT_TRUE(Par.foundBug());
    ASSERT_TRUE(Par.Bug.has_value());
    EXPECT_EQ(Par.Kind, Serial.Kind);
    // The schedule string is the bug's identity: equal schedules mean
    // the exact same execution was reported.
    EXPECT_EQ(Par.Bug->Schedule, Serial.Bug->Schedule);
    EXPECT_EQ(Par.Bug->Message, Serial.Bug->Message);
    EXPECT_EQ(Par.Bug->AtStep, Serial.Bug->AtStep);
  }
}

TestProgram registryProgram(const std::string &Name) {
  for (const RegisteredWorkload &W : allWorkloads())
    if (W.Name == Name)
      return W.Make();
  ADD_FAILURE() << "registry workload '" << Name << "' not found";
  return makePetersonProgram(PetersonConfig());
}

CheckerOptions contextBounded(int Cb) {
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = Cb;
  O.StopOnFirstBug = false;
  return O;
}

/// Runs \p U to exhaustion on a fresh serial explorer, appending the
/// consumed path of each execution to \p Paths.
CheckResult runUnit(const TestProgram &P, const CheckerOptions &O,
                    const CheckpointUnit &U,
                    std::vector<std::vector<int>> &Paths) {
  Explorer E(P, O);
  E.preloadScheduleFrozenPrefix(U.Prefix, U.FrozenLen);
  E.setExecutionHook([&](Explorer &Ex) {
    Paths.push_back(Ex.consumedPathKey());
    return true;
  });
  return E.run();
}

} // namespace

//===----------------------------------------------------------------------===
// Exhaustive-search equivalence: executions, transitions, state sets.
//===----------------------------------------------------------------------===

TEST(ParallelEquivalence, PetersonContextBounded) {
  PetersonConfig C;
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = 2;
  expectExhaustiveEquivalence(makePetersonProgram(C), O);
}

TEST(ParallelEquivalence, DiningPhilosophersFairDfs) {
  DiningConfig C;
  C.Philosophers = 2;
  C.Kind = DiningConfig::Variant::Mixed;
  expectExhaustiveEquivalence(makeDiningProgram(C), CheckerOptions());
}

TEST(ParallelEquivalence, DiningPhilosophersOrderedCb) {
  DiningConfig C;
  C.Philosophers = 3;
  C.Kind = DiningConfig::Variant::OrderedBlocking;
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = 1;
  expectExhaustiveEquivalence(makeDiningProgram(C), O);
}

TEST(ParallelEquivalence, WorkStealQueueContextBounded) {
  WsqConfig C;
  C.Stealers = 1;
  C.Tasks = 2;
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = 1;
  expectExhaustiveEquivalence(makeWsqProgram(C), O);
}

TEST(ParallelEquivalence, CountsAllBugsWhenNotStoppingEarly) {
  // With StopOnFirstBug off the whole tree is enumerated even though it
  // contains bugs; every buggy execution must be counted exactly once
  // across the shards.
  PetersonConfig C;
  C.Kind = PetersonConfig::Variant::FlagAfterCheck;
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = 2;
  O.StopOnFirstBug = false;
  expectExhaustiveEquivalence(makePetersonProgram(C), O);
}

//===----------------------------------------------------------------------===
// First-bug determinism: --jobs N reports the serial counterexample.
//===----------------------------------------------------------------------===

TEST(ParallelFirstBug, SafetyViolationInWorkStealQueue) {
  WsqConfig C;
  C.Stealers = 1;
  C.Tasks = 2;
  C.Bug = WsqBug::PopReordered;
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = 2;
  // Bug1 needs a weak-memory search (workloads/WorkStealQueue.h).
  O.Memory = MemoryModel::Tso;
  expectSameFirstBug(makeWsqProgram(C), O);
}

TEST(ParallelFirstBug, SafetyViolationInPeterson) {
  PetersonConfig C;
  C.Kind = PetersonConfig::Variant::FlagAfterCheck;
  expectSameFirstBug(makePetersonProgram(C), CheckerOptions());
}

TEST(ParallelFirstBug, DeadlockInDiningPhilosophers) {
  DiningConfig C;
  C.Philosophers = 2;
  C.Kind = DiningConfig::Variant::DeadlockProne;
  expectSameFirstBug(makeDiningProgram(C), CheckerOptions());
}

TEST(ParallelFirstBug, ReportedScheduleReplaysToTheSameBug) {
  // The parallel bug report must be replayable exactly like a serial
  // one: its schedule is a root-relative choice sequence even when the
  // finding worker ran from a donated prefix.
  WsqConfig C;
  C.Stealers = 1;
  C.Tasks = 2;
  C.Bug = WsqBug::PopReordered;
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = 2;
  // Bug1 needs a weak-memory search (workloads/WorkStealQueue.h).
  O.Memory = MemoryModel::Tso;
  O.Jobs = 4;
  TestProgram P = makeWsqProgram(C);
  CheckResult R = check(P, O);
  ASSERT_TRUE(R.foundBug());
  CheckerOptions ReplayOpts = O;
  ReplayOpts.Jobs = 1;
  CheckResult Replay = replaySchedule(P, ReplayOpts, R.Bug->Schedule);
  EXPECT_EQ(Replay.Kind, R.Kind);
  EXPECT_EQ(Replay.Stats.Executions, 1u);
  EXPECT_EQ(Replay.Bug->Message, R.Bug->Message);
}

//===----------------------------------------------------------------------===
// Fairness under parallelism: liveness theorems survive sharding.
//===----------------------------------------------------------------------===

TEST(ParallelFairness, FairNonterminationDetectedAtEveryWidth) {
  // Theorem 6 / TheoremTest.FairCycleYieldsDivergence: the Figure 1/2
  // retry cycle is a fair livelock; the parallel search must report the
  // same diverging execution regardless of which worker owns it.
  DiningConfig C;
  C.Philosophers = 2;
  C.Kind = DiningConfig::Variant::TryLockRetry;
  CheckerOptions O;
  O.ExecutionBound = 200;
  expectSameFirstBug(makeDiningProgram(C), O);
}

TEST(ParallelFairness, FairSearchStillExhaustsSpinWait) {
  // Theorem 2: fair termination of the search is a per-subtree property;
  // sharding must not reintroduce divergence. Figure 3's program only
  // fair-terminates because the scheduler lowers the spinner's priority;
  // every shard must inherit that.
  SpinWaitConfig C;
  expectExhaustiveEquivalence(makeSpinWaitProgram(C), CheckerOptions());
}

TEST(ParallelFairness, LivelockFoundFromNonemptyFrozenPrefix) {
  // The worker-level guarantee behind the jobs-level tests: seed an
  // Explorer with a frozen prefix of the livelock schedule and let it
  // search only that subtree -- the fair scheduler and the divergence
  // monitor must still flag the cycle below the preloaded prefix.
  DiningConfig C;
  C.Philosophers = 2;
  C.Kind = DiningConfig::Variant::TryLockRetry;
  CheckerOptions O;
  O.ExecutionBound = 200;
  TestProgram P = makeDiningProgram(C);

  CheckResult Serial = check(P, O);
  ASSERT_EQ(Serial.Kind, Verdict::Livelock);
  std::vector<ScheduleChoice> Choices;
  ASSERT_TRUE(decodeSchedule(Serial.Bug->Schedule, Choices));
  ASSERT_GT(Choices.size(), 4u);

  // Freeze the first four choices; the livelock lives in this subtree.
  Choices.resize(4);
  Explorer Sub(P, O);
  Sub.preloadSchedule(Choices, /*Frozen=*/true);
  CheckResult R = Sub.run();
  EXPECT_EQ(R.Kind, Verdict::Livelock);
  // The reported schedule must still be root-relative and replayable.
  CheckResult Replay = replaySchedule(P, O, R.Bug->Schedule);
  EXPECT_EQ(Replay.Kind, Verdict::Livelock);
}

TEST(ParallelFairness, FrozenPrefixConfinesTheSearch) {
  // A frozen prefix must shard, not just seed: the subtree explorer may
  // never backtrack above the prefix, so its execution count is that of
  // one subtree, strictly less than the whole tree's.
  DiningConfig C;
  C.Philosophers = 2;
  C.Kind = DiningConfig::Variant::Mixed;
  CheckerOptions O;
  TestProgram P = makeDiningProgram(C);
  CheckResult Whole = check(P, O);
  ASSERT_TRUE(Whole.Stats.SearchExhausted);

  // The first scheduling point of this workload offers two threads;
  // freezing one choice confines the search to half the tree.
  Explorer Sub(P, O);
  std::vector<ScheduleChoice> Prefix = {{0, 2, true}};
  Sub.preloadSchedule(Prefix, /*Frozen=*/true);
  CheckResult R = Sub.run();
  EXPECT_TRUE(R.Stats.SearchExhausted);
  EXPECT_LT(R.Stats.Executions, Whole.Stats.Executions);
  EXPECT_GE(R.Stats.Executions, 1u);
}

//===----------------------------------------------------------------------===
// Explorer::handBack: the rule both parallel engines stop a unit with.
//===----------------------------------------------------------------------===

TEST(HandBack, StoppedExplorerHandsBackTheRestInDfsOrder) {
  // Stop a serial explorer after K executions and run what it hands back,
  // in the order handed back: together with the K executions already run
  // they are the serial run's executions in the serial order -- so the
  // multiset is exact, and the continuation sorts before the siblings.
  struct Case {
    const char *Name;
    int Cb;
  };
  for (Case C : {Case{"Dining Philosophers", 1}, Case{"Promise", 2}}) {
    SCOPED_TRACE(C.Name);
    TestProgram P = registryProgram(C.Name);
    CheckerOptions O = contextBounded(C.Cb);
    std::vector<std::vector<int>> Serial;
    CheckResult Whole = runUnit(P, O, {}, Serial);
    ASSERT_TRUE(Whole.Stats.SearchExhausted);
    bool SawContinuation = false;
    for (size_t K : {1, 2, 7, 50, 200}) {
      SCOPED_TRACE("stopped after " + std::to_string(K));
      ASSERT_LT(K, Serial.size());
      std::vector<std::vector<int>> Paths;
      std::vector<CheckpointUnit> Rest;
      Explorer E(P, O);
      E.setExecutionHook([&](Explorer &Ex) {
        Paths.push_back(Ex.consumedPathKey());
        if (Paths.size() < K)
          return true;
        Ex.handBack(Rest);
        return false;
      });
      CheckResult First = E.run();
      ASSERT_EQ(First.Stats.Executions, K);
      ASSERT_FALSE(Rest.empty());
      SawContinuation |= Rest.front().FrozenLen < Rest.front().Prefix.size();
      for (size_t I = 1; I < Rest.size(); ++I) {
        EXPECT_EQ(Rest[I].FrozenLen, Rest[I].Prefix.size())
            << "only the first unit may be a continuation";
        EXPECT_TRUE(dfsBefore(pathKeyOfPrefix(Rest[I - 1].Prefix),
                              pathKeyOfPrefix(Rest[I].Prefix)));
      }
      uint64_t Transitions = First.Stats.Transitions;
      for (const CheckpointUnit &U : Rest)
        Transitions += runUnit(P, O, U, Paths).Stats.Transitions;
      EXPECT_EQ(Paths, Serial);
      EXPECT_EQ(Transitions, Whole.Stats.Transitions);
    }
    EXPECT_TRUE(SawContinuation);
  }
}

TEST(HandBack, DonatedAlternativesAreNeverHandedBackAgain) {
  // A thread-engine worker has often donated siblings (splitWork) before
  // it stops. Those alternatives belong to other workers now, so the
  // hand-back must skip them; a rule run on currentStackSnapshot(),
  // which drops the Donated flags, would issue them twice.
  TestProgram P = registryProgram("Dining Philosophers");
  CheckerOptions O = contextBounded(1);
  std::vector<std::vector<int>> Serial;
  ASSERT_TRUE(runUnit(P, O, {}, Serial).Stats.SearchExhausted);
  std::sort(Serial.begin(), Serial.end());

  // Donations took every remaining alternative: nothing is left.
  {
    std::vector<CheckpointUnit> Donated, Rest;
    bool SnapshotOpen = false;
    uint64_t N = 0;
    Explorer E(P, O);
    E.setExecutionHook([&](Explorer &Ex) {
      if (++N < 5)
        return true;
      Ex.splitWork(Donated, SIZE_MAX);
      for (const ScheduleChoice &C : Ex.currentStackSnapshot())
        SnapshotOpen |= C.Backtrack && C.Chosen + 1 < C.Num;
      Ex.handBack(Rest);
      return false;
    });
    E.run();
    EXPECT_FALSE(Donated.empty());
    EXPECT_TRUE(SnapshotOpen) << "the snapshot still shows alternatives";
    EXPECT_TRUE(Rest.empty());
  }

  // Donations took some: donated and handed-back units together cover
  // the serial multiset exactly.
  {
    std::vector<std::vector<int>> Paths;
    std::vector<CheckpointUnit> Units;
    Explorer E(P, O);
    E.setExecutionHook([&](Explorer &Ex) {
      Paths.push_back(Ex.consumedPathKey());
      if (Paths.size() == 3 || Paths.size() == 9)
        Ex.splitWork(Units, 1);
      if (Paths.size() < 20)
        return true;
      Ex.handBack(Units);
      return false;
    });
    E.run();
    ASSERT_EQ(Paths.size(), 20u);
    for (const CheckpointUnit &U : Units)
      runUnit(P, O, U, Paths);
    std::sort(Paths.begin(), Paths.end());
    EXPECT_EQ(Paths, Serial);
  }
}

//===----------------------------------------------------------------------===
// Interrupt / resume at parallel widths (docs/ROBUSTNESS.md).
//===----------------------------------------------------------------------===

TEST(ParallelResume, InterruptedParallelSearchResumesToTheSerialTotals) {
  // Interrupt a --jobs 4 search at a checkpoint epoch, then resume the
  // stashed frontier (again at --jobs 4): the chain must reach the same
  // executions, transitions and state-signature set as one uninterrupted
  // serial run.
  PetersonConfig C;
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = 2;
  O.ExportStateSignatures = true;

  CheckResult Serial = check(makePetersonProgram(C), O);
  ASSERT_TRUE(Serial.Stats.SearchExhausted);

  TestProgram P = makePetersonProgram(C);
  std::atomic<bool> Flag{false};
  CheckerOptions Cut = O;
  Cut.Jobs = 4;
  Cut.InterruptFlag = &Flag;
  Cut.CheckpointEvery = 40;
  Cut.CheckpointSink = [&](const CheckpointState &) { Flag.store(true); };
  CheckResult Partial = check(P, Cut);

  CheckResult Final;
  if (Partial.Stats.Interrupted) {
    ASSERT_TRUE(Partial.Resume != nullptr);
    EXPECT_LT(Partial.Stats.Executions, Serial.Stats.Executions);
    CheckerOptions Again = O;
    Again.Jobs = 4;
    Final = resumeCheck(P, Again, *Partial.Resume);
  } else {
    // The whole tree fit before the first epoch boundary -- equivalence
    // still must hold, there was just nothing to resume.
    Final = Partial;
  }
  EXPECT_TRUE(Final.Stats.SearchExhausted);
  EXPECT_EQ(Final.Kind, Serial.Kind);
  EXPECT_EQ(Final.Stats.Executions, Serial.Stats.Executions);
  EXPECT_EQ(Final.Stats.Transitions, Serial.Stats.Transitions);
  EXPECT_EQ(Final.Stats.DistinctStates, Serial.Stats.DistinctStates);
  EXPECT_EQ(Final.StateSignatures, Serial.StateSignatures);
}

TEST(ParallelResume, PeriodicParallelCheckpointIsIndependentlyResumable) {
  // Every periodic checkpoint of an uninterrupted parallel run must be a
  // complete description of the remaining search: resuming any one of
  // them alone, on any engine, reaches the serial totals. Swept over
  // checkpoint intervals and widths, as the fleet's batch sweep is, on a
  // search long enough that every case writes checkpoints.
  TestProgram P = registryProgram("Dining Philosophers");
  CheckerOptions O = contextBounded(1);
  O.ExportStateSignatures = true;
  CheckResult Serial = check(P, O);
  ASSERT_TRUE(Serial.Stats.SearchExhausted);

  CheckerOptions Jobs4 = O;
  Jobs4.Jobs = 4;
  CheckerOptions Fleet2 = O;
  Fleet2.FleetWorkers = 2;
  struct Engine {
    const char *Name;
    const CheckerOptions &Opts;
  };
  const Engine Engines[] = {{"serial", O}, {"jobs 4", Jobs4},
                            {"fleet 2", Fleet2}};

  for (uint64_t Every : {1, 16, 64})
    for (int Jobs : JobCounts) {
      SCOPED_TRACE("checkpoint every " + std::to_string(Every) + ", jobs " +
                   std::to_string(Jobs));
      std::vector<CheckpointState> Checkpoints;
      CheckerOptions Par = O;
      Par.Jobs = Jobs;
      Par.CheckpointEvery = Every;
      Par.CheckpointSink = [&](const CheckpointState &CK) {
        Checkpoints.push_back(CK);
      };
      CheckResult Full = check(P, Par);
      ASSERT_TRUE(Full.Stats.SearchExhausted);
      EXPECT_EQ(Full.Stats.Executions, Serial.Stats.Executions);
      ASSERT_FALSE(Checkpoints.empty());

      // Checkpoints one execution apart differ by about one execution
      // each; at interval 1 every 32nd and the last one stand for the
      // rest, which keeps the sweep affordable under the sanitizers.
      size_t Stride = Every == 1 ? 32 : 1;
      std::vector<size_t> Picked;
      for (size_t I = 0; I < Checkpoints.size(); I += Stride)
        Picked.push_back(I);
      if (Picked.back() + 1 != Checkpoints.size())
        Picked.push_back(Checkpoints.size() - 1);
      for (size_t I : Picked)
        for (const Engine &En : Engines) {
          SCOPED_TRACE("checkpoint " + std::to_string(I) + " resumed on " +
                       En.Name);
          CheckResult Resumed = resumeCheck(P, En.Opts, Checkpoints[I]);
          EXPECT_TRUE(Resumed.Stats.SearchExhausted);
          EXPECT_EQ(Resumed.Stats.Executions, Serial.Stats.Executions);
          EXPECT_EQ(Resumed.Stats.Transitions, Serial.Stats.Transitions);
          EXPECT_EQ(Resumed.StateSignatures, Serial.StateSignatures);
        }
    }
}
