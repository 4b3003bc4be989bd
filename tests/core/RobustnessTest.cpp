//===- tests/core/RobustnessTest.cpp --------------------------------------===//
//
// Fault-tolerance contract of the robustness layer (docs/ROBUSTNESS.md):
// divergence recovery (a mismatching replay is retried, then discarded --
// never a bug verdict, never a halt), and checkpoint/resume (a search
// interrupted at any execution boundary and resumed from its checkpoint
// reaches exactly the executions, transitions and state-signature set of
// an uninterrupted run, no matter how often it is interrupted).
//
//===----------------------------------------------------------------------===//

#include "FullPathOracle.h"

#include "core/Checkpoint.h"
#include "core/Explorer.h"
#include "core/Schedule.h"
#include "sync/Atomic.h"
#include "sync/Event.h"
#include "sync/Semaphore.h"
#include "sync/TestThread.h"
#include "workloads/DiningPhilosophers.h"
#include "workloads/Peterson.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <type_traits>

using namespace fsmc;

namespace {

/// A program that is deterministic on its first execution and changes
/// its chooseInt arity on every later one: replay always mismatches.
TestProgram persistentlyNondeterministic() {
  auto RunCounter = std::make_shared<int>(0);
  TestProgram P;
  P.Name = "nondet-persistent";
  P.Body = [RunCounter] {
    int Runs = (*RunCounter)++;
    (void)Runtime::current().chooseInt(Runs == 0 ? 2 : 3);
    (void)Runtime::current().chooseInt(2);
  };
  return P;
}

/// The programs below differ between their first execution and every
/// later one in *scheduling* only -- no chooseInt is involved -- and the
/// difference lies inside the prefix the second execution replays.

/// Main runs alone at its first transitions, so they are forced steps
/// with no choice record. The first execution stores where later ones
/// load; those read 0 and start a third worker, which the first choice
/// point after the forced steps sees as an extra candidate.
TestProgram opKindChangesAtForcedStep() {
  auto RunCounter = std::make_shared<int>(0);
  TestProgram P;
  P.Name = "nondet-forced-op";
  P.Body = [RunCounter] {
    bool First = (*RunCounter)++ == 0;
    auto X = std::make_shared<Atomic<int>>(0, "x");
    int V = 1;
    if (First)
      X->store(1);
    else
      V = X->load();
    TestThread A([X] { X->store(2); }, "a");
    TestThread B([X] { (void)X->load(); }, "b");
    std::optional<TestThread> C;
    if (V == 0)
      C.emplace([X] { X->store(3); }, "c");
    A.join();
    B.join();
    if (C)
      C->join();
  };
  return P;
}

/// Worker w waits on a semaphore that holds a permit in every execution
/// but the first. Where the first execution chose between a and b with
/// w blocked, later ones find w enabled too.
TestProgram extraThreadEnabledAtChoicePoint() {
  auto RunCounter = std::make_shared<int>(0);
  TestProgram P;
  P.Name = "nondet-extra-enabled";
  P.Body = [RunCounter] {
    bool First = (*RunCounter)++ == 0;
    auto X = std::make_shared<Atomic<int>>(0, "x");
    auto S = std::make_shared<Semaphore>(First ? 0 : 1, "s");
    TestThread W([S] { S->wait(); }, "w");
    TestThread A([X] { X->store(1); X->store(2); }, "a");
    TestThread B([X] { (void)X->load(); (void)X->load(); }, "b");
    A.join();
    B.join();
    S->post();
    W.join();
  };
  return P;
}

/// Worker w waits on a semaphore that holds a permit in every execution
/// but the first, after waking main. Main takes the permit back with
/// tryWait before any choice point, so later executions find w enabled
/// only at main's forced steps in between; at every choice point the
/// enabled set is as in the first execution.
TestProgram extraThreadEnabledAtForcedStep() {
  auto RunCounter = std::make_shared<int>(0);
  TestProgram P;
  P.Name = "nondet-extra-enabled-forced";
  P.Body = [RunCounter] {
    bool First = (*RunCounter)++ == 0;
    auto X = std::make_shared<Atomic<int>>(0, "x");
    auto S = std::make_shared<Semaphore>(First ? 0 : 1, "s");
    auto Ready = std::make_shared<Event>(Event::Reset::Manual, false, "ready");
    auto Go = std::make_shared<Event>(Event::Reset::Manual, false, "go");
    TestThread W([S, Ready] {
      Ready->set();
      S->wait();
    }, "w");
    Ready->wait();
    (void)S->tryWait();
    TestThread A([Go, X] {
      Go->wait();
      X->store(1);
    }, "a");
    TestThread B([Go, X] {
      Go->wait();
      (void)X->load();
    }, "b");
    Go->set();
    X->store(2);
    A.join();
    B.join();
    S->post();
    W.join();
  };
  return P;
}

/// Under a context bound of 1: b sets the event a waits for and then, in
/// the first execution only, yields. Switching from b to a is free in the
/// first execution and costs the one preemption in the later ones, which
/// then run a without a choice where the first execution had one.
TestProgram prevYieldFlagFlips() {
  auto RunCounter = std::make_shared<int>(0);
  TestProgram P;
  P.Name = "nondet-prev-yield";
  P.Body = [RunCounter] {
    bool First = (*RunCounter)++ == 0;
    auto X = std::make_shared<Atomic<int>>(0, "x");
    auto Y = std::make_shared<Atomic<int>>(0, "y");
    auto E = std::make_shared<Event>();
    TestThread A([E, X] {
      E->wait();
      X->store(1);
      X->store(2);
    }, "a");
    TestThread B([E, Y, First] {
      E->set();
      if (First)
        yieldNow();
      else
        (void)Y->load();
    }, "b");
    TestThread C([Y] { (void)Y->load(); }, "c");
    B.join();
    A.join();
    C.join();
  };
  return P;
}

/// For POR: workers a and b touch separate atomics, so each sleeps in
/// the other's branches. From execution ChangeAt on, a also posts the
/// semaphore w waits on between its stores, where main posted it at the
/// end before. A step of a then has another kind than the recorded one,
/// after the sleep sets of earlier choice points were recorded, and w
/// is enabled at the choice points after it.
TestProgram postMovesIntoWorker(int ChangeAt) {
  auto RunCounter = std::make_shared<int>(0);
  TestProgram P;
  P.Name = "nondet-por-post";
  P.Body = [RunCounter, ChangeAt] {
    bool Changed = (*RunCounter)++ >= ChangeAt;
    auto X = std::make_shared<Atomic<int>>(0, "x");
    auto Y = std::make_shared<Atomic<int>>(0, "y");
    auto S = std::make_shared<Semaphore>(0, "s");
    TestThread W([S] { S->wait(); }, "w");
    TestThread A([X, S, Changed] {
      X->store(1);
      if (Changed)
        S->post();
      X->store(2);
    }, "a");
    TestThread B([Y] {
      (void)Y->load();
      (void)Y->load();
    }, "b");
    A.join();
    B.join();
    if (!Changed)
      S->post();
    W.join();
  };
  return P;
}

/// For POR: workers a and b touch separate atomics, so each sleeps in
/// the other's branches. On every other execution b's second step is a
/// store where it was a load: to y, the atomic b reads anyway, with
/// \p Conflicting false, else to x, the atomic a writes. Every other
/// execution then trips the lean guard at that step, and with
/// \p Conflicting the sleep sets after it differ from the recorded ones.
TestProgram secondStepFlips(bool Conflicting) {
  auto RunCounter = std::make_shared<int>(0);
  TestProgram P;
  P.Name = "nondet-por-flip";
  P.Body = [RunCounter, Conflicting] {
    bool Odd = (*RunCounter)++ % 2 == 1;
    auto X = std::make_shared<Atomic<int>>(0, "x");
    auto Y = std::make_shared<Atomic<int>>(0, "y");
    TestThread A([X] {
      X->store(1);
      X->store(2);
    }, "a");
    TestThread B([X, Y, Odd, Conflicting] {
      (void)Y->load();
      if (!Odd)
        (void)Y->load();
      else if (Conflicting)
        X->store(3);
      else
        Y->store(3);
      (void)Y->load();
    }, "b");
    A.join();
    B.join();
  };
  return P;
}

/// For POR: workers a, b and c touch separate atomics, so each sleeps in
/// the others' branches. Between its first and second access, a and b
/// each make a data choice whose arity is 3 on every \p Period-th
/// execution and 2 otherwise, so a replayed transition mismatches its
/// choice record.
TestProgram choiceArityChanges(int Period) {
  auto RunCounter = std::make_shared<int>(0);
  TestProgram P;
  P.Name = "nondet-por-choice";
  P.Body = [RunCounter, Period] {
    int Arity = (*RunCounter)++ % Period == Period - 1 ? 3 : 2;
    auto X = std::make_shared<Atomic<int>>(0, "x");
    auto Y = std::make_shared<Atomic<int>>(0, "y");
    auto Z = std::make_shared<Atomic<int>>(0, "z");
    TestThread A([X, Arity] {
      X->store(1);
      (void)Runtime::current().chooseInt(Arity);
      X->store(2);
    }, "a");
    TestThread B([Y, Arity] {
      (void)Y->load();
      (void)Runtime::current().chooseInt(Arity);
      (void)Y->load();
    }, "b");
    TestThread C([Z] {
      for (int I = 0; I < 3; ++I)
        (void)Z->load();
    }, "c");
    A.join();
    B.join();
    C.join();
  };
  return P;
}

/// A fair POR search of \p P, on the full path with \p FullPath.
CheckResult explorePor(const TestProgram &P, bool FullPath) {
  CheckerOptions O;
  O.Por = true;
  return oracle::explore(P, O, FullPath);
}

/// The small exhaustive search the checkpoint tests interrupt: Peterson
/// under a context bound, a few hundred executions.
CheckerOptions boundedPetersonOpts() {
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = 2;
  O.ExportStateSignatures = true;
  return O;
}

} // namespace

//===----------------------------------------------------------------------===
// Divergence recovery.
//===----------------------------------------------------------------------===

TEST(Divergence, RetryBudgetIsConfigurable) {
  CheckerOptions O;
  O.DivergenceRetries = 1;
  CheckResult R = check(persistentlyNondeterministic(), O);
  EXPECT_EQ(R.Kind, Verdict::Pass);
  EXPECT_EQ(R.Stats.DivergenceRetries, 1u);
  EXPECT_EQ(R.Stats.Divergences, 1u);
  EXPECT_TRUE(R.Stats.SearchExhausted);
}

TEST(Divergence, ZeroRetriesDiscardsImmediately) {
  CheckerOptions O;
  O.DivergenceRetries = 0;
  CheckResult R = check(persistentlyNondeterministic(), O);
  EXPECT_EQ(R.Kind, Verdict::Pass);
  EXPECT_EQ(R.Stats.DivergenceRetries, 0u);
  EXPECT_EQ(R.Stats.Divergences, 1u);
  EXPECT_TRUE(R.Stats.SearchExhausted);
}

TEST(Divergence, ReplayOfMismatchingScheduleIsDivergenceNotBug) {
  // A recorded schedule replayed against a program with a different
  // choice structure must come back Verdict::Divergence -- a checker
  // limitation, not a workload bug (the historic failure mode reported
  // it as a SafetyViolation).
  TestProgram Rec;
  Rec.Name = "recorder";
  Rec.Body = [] {
    (void)Runtime::current().chooseInt(2);
    (void)Runtime::current().chooseInt(2);
  };
  CheckerOptions One;
  One.MaxExecutions = 1;
  CheckResult First = check(Rec, One);
  ASSERT_EQ(First.Kind, Verdict::Pass);

  // Re-derive the schedule of the first execution: both choices 0/2.
  std::string Sched = "fsmc1:0/2;0/2";
  TestProgram Wider;
  Wider.Name = "recorder"; // Same name, different arity.
  Wider.Body = [] {
    (void)Runtime::current().chooseInt(3);
    (void)Runtime::current().chooseInt(2);
  };
  CheckResult R = replaySchedule(Wider, CheckerOptions(), Sched);
  EXPECT_EQ(R.Kind, Verdict::Divergence);
  EXPECT_FALSE(R.foundBug());
  EXPECT_EQ(R.Stats.Executions, 0u);
  EXPECT_EQ(R.Stats.Divergences, 1u);
  EXPECT_EQ(R.Stats.DivergenceRetries, 3u);
}

TEST(Divergence, MismatchInFinalTransitionIsStillCaught) {
  // The mismatch fires inside the program's last transition, after which
  // no scheduling point remains: the execution must still be classified
  // as diverged, not silently counted (and the stale flag must not leak
  // into the next attempt).
  auto RunCounter = std::make_shared<int>(0);
  TestProgram P;
  P.Name = "nondet-tail";
  P.Body = [RunCounter] {
    int Runs = (*RunCounter)++;
    (void)Runtime::current().chooseInt(2);
    (void)Runtime::current().chooseInt(Runs == 0 ? 2 : 3);
  };
  CheckResult R = check(P, CheckerOptions());
  EXPECT_EQ(R.Kind, Verdict::Pass);
  EXPECT_EQ(R.Stats.Divergences, 1u);
  EXPECT_TRUE(R.Stats.SearchExhausted);
}

// Scheduling nondeterminism inside the replayed prefix: each program must
// be caught as a divergence, never mistaken for a bug.

TEST(Divergence, OpKindChangeAtForcedStepIsCaught) {
  CheckResult R = check(opKindChangesAtForcedStep(), CheckerOptions());
  EXPECT_EQ(R.Kind, Verdict::Pass);
  EXPECT_FALSE(R.foundBug());
  EXPECT_GE(R.Stats.Divergences, 1u);
}

TEST(Divergence, ExtraEnabledThreadAtChoicePointIsCaught) {
  CheckResult R = check(extraThreadEnabledAtChoicePoint(), CheckerOptions());
  EXPECT_EQ(R.Kind, Verdict::Pass);
  EXPECT_FALSE(R.foundBug());
  EXPECT_GE(R.Stats.Divergences, 1u);
}

TEST(Divergence, ExtraEnabledThreadAtForcedStepIsCaught) {
  CheckResult R = check(extraThreadEnabledAtForcedStep(), CheckerOptions());
  EXPECT_EQ(R.Kind, Verdict::Pass);
  EXPECT_FALSE(R.foundBug());
  EXPECT_GE(R.Stats.Divergences, 1u);
}

TEST(Divergence, PrevThreadYieldFlagFlipIsCaught) {
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = 1;
  CheckResult R = check(prevYieldFlagFlips(), O);
  EXPECT_EQ(R.Kind, Verdict::Pass);
  EXPECT_FALSE(R.foundBug());
  EXPECT_GE(R.Stats.Divergences, 1u);
}

// Under POR a lean step applies the sleep set its record holds. In the
// tests below the program changes inside the replayed prefix. Where the
// guard trips, that step and every later one are decided in full from
// the sleep set the last lean step left. Each search must match, row for
// row, the one an ExplainLog keeps on the full path.

TEST(Divergence, PorLeanPrefixGuardFailureIsCaughtOnce) {
  // The change comes on the second execution, where every recorded set
  // is empty, and later, where they are not. It enables w at later
  // choice points, so the search counts exactly one divergence.
  for (int ChangeAt : {1, 20, 80}) {
    SCOPED_TRACE("change at execution " + std::to_string(ChangeAt));
    CheckResult Lean = explorePor(postMovesIntoWorker(ChangeAt), false);
    CheckResult Full = explorePor(postMovesIntoWorker(ChangeAt), true);
    EXPECT_EQ(Lean.Kind, Verdict::Pass);
    EXPECT_EQ(Lean.Stats.Divergences, 1u);
    EXPECT_TRUE(Lean.Stats.SearchExhausted);
    EXPECT_GT(Lean.Stats.PorSleepHits, 0u);
    EXPECT_GT(Lean.Stats.PorFairWakes, 0u);
    oracle::expectSameStats(Lean.Stats, Full.Stats);
  }
}

TEST(Divergence, PorSleepSetIsRecomputedPastAFailedGuard) {
  // The guard trips on every other execution and nothing diverges. A
  // recorded set applied at or past the failed guard would change the
  // sleep hits and fair wakes.
  for (bool Conflicting : {false, true}) {
    SCOPED_TRACE(Conflicting ? "conflicting store" : "store to y");
    CheckResult Lean = explorePor(secondStepFlips(Conflicting), false);
    CheckResult Full = explorePor(secondStepFlips(Conflicting), true);
    EXPECT_EQ(Lean.Kind, Verdict::Pass);
    EXPECT_EQ(Lean.Stats.Divergences, 0u);
    EXPECT_GT(Lean.Stats.PorSleepHits, 0u);
    oracle::expectSameStats(Lean.Stats, Full.Stats);
  }
}

TEST(Divergence, PorLeanStepEndedByAChoiceMismatchCountsItsDecision) {
  // A replayed transition whose data choice mismatches its record ends
  // the attempt before the sleep-set wakes. The full path counted that
  // step's sleep hits and fair wakes at its decision, so a lean step must
  // count them too.
  for (int Period : {2, 5}) {
    SCOPED_TRACE("period " + std::to_string(Period));
    CheckResult Lean = explorePor(choiceArityChanges(Period), false);
    CheckResult Full = explorePor(choiceArityChanges(Period), true);
    EXPECT_EQ(Lean.Kind, Verdict::Pass);
    EXPECT_GT(Lean.Stats.DivergenceRetries, 0u);
    EXPECT_GT(Lean.Stats.PorFairWakes, 0u);
    oracle::expectSameStats(Lean.Stats, Full.Stats);
  }
}

//===----------------------------------------------------------------------===
// Checkpoint encode/decode.
//===----------------------------------------------------------------------===

/// A nonzero value for the \p N-th stats row, distinct across rows; the
/// fraction makes a lossy double encoding visible.
template <typename T> T distinctStat(int N) {
  if constexpr (std::is_floating_point_v<T>)
    return T(N) + 1.0 / 3;
  else
    return T(N);
}

TEST(Checkpoint, EncodeDecodeRoundTrip) {
  CheckpointState CK;
  int Row = 1;
#define FSMC_STAT_SET(Type, Member, Key, Merge, Json)                          \
  CK.Stats.Member = distinctStat<Type>(Row++);
  FSMC_SEARCH_STATS(FSMC_STAT_SET)
#undef FSMC_STAT_SET
  CK.Rng = 0xdeadbeefULL;
  CK.States = {3, 5, 8};
  CK.Frontier.push_back({{{0, 2, true}, {1, 3, true}}, 1});
  CK.Frontier.push_back({{{2, 3, true}}, 1});
  BugReport B;
  B.Kind = Verdict::Deadlock;
  B.Message = "deadlock: blocked threads: a b";
  B.Schedule = "fsmc1:0/2;1/3";
  B.AtExecution = 99;
  B.AtStep = 12;
  CK.Bug = B;

  std::string Text = encodeCheckpoint(CK, "prog x", 42);
  CheckpointState Out;
  std::string Program, Err;
  uint64_t Seed = 0;
  ASSERT_TRUE(decodeCheckpoint(Text, Out, Program, Seed, Err)) << Err;
  EXPECT_EQ(Program, "prog x");
  EXPECT_EQ(Seed, 42u);
  EXPECT_EQ(Out.Rng, CK.Rng);
  // Every row that accumulates across run parts survives exactly; Run
  // rows are not persisted, except that the distinct-state count is
  // rebuilt from the states line.
#define FSMC_STAT_CHECK(Type, Member, Key, Merge, Json)                        \
  if (StatMerge::Merge != StatMerge::Run) {                                    \
    EXPECT_EQ(Out.Stats.Member, CK.Stats.Member) << Key;                       \
  } else if (std::string(Key) != "distinct_states") {                          \
    EXPECT_EQ(Out.Stats.Member, Type()) << Key;                                \
  }
  FSMC_SEARCH_STATS(FSMC_STAT_CHECK)
#undef FSMC_STAT_CHECK
  EXPECT_EQ(Out.Stats.DistinctStates, CK.States.size());
  EXPECT_EQ(Out.States, CK.States);
  ASSERT_EQ(Out.Frontier.size(), CK.Frontier.size());
  for (size_t I = 0; I < CK.Frontier.size(); ++I) {
    EXPECT_EQ(Out.Frontier[I].FrozenLen, CK.Frontier[I].FrozenLen);
    ASSERT_EQ(Out.Frontier[I].Prefix.size(), CK.Frontier[I].Prefix.size());
    for (size_t J = 0; J < CK.Frontier[I].Prefix.size(); ++J) {
      EXPECT_EQ(Out.Frontier[I].Prefix[J].Chosen,
                CK.Frontier[I].Prefix[J].Chosen);
      EXPECT_EQ(Out.Frontier[I].Prefix[J].Num,
                CK.Frontier[I].Prefix[J].Num);
      EXPECT_EQ(Out.Frontier[I].Prefix[J].Backtrack,
                CK.Frontier[I].Prefix[J].Backtrack);
    }
  }
  ASSERT_TRUE(Out.Bug.has_value());
  EXPECT_EQ(Out.Bug->Kind, B.Kind);
  EXPECT_EQ(Out.Bug->Message, B.Message);
  EXPECT_EQ(Out.Bug->Schedule, B.Schedule);
  EXPECT_EQ(Out.Bug->AtExecution, B.AtExecution);
}

TEST(Checkpoint, MergeAppliesEachRowsRule) {
  SearchStats A, B;
  int Row = 1;
#define FSMC_STAT_SET(Type, Member, Key, Merge, Json)                          \
  A.Member = distinctStat<Type>(Row);                                          \
  B.Member = distinctStat<Type>(100 - Row++);
  FSMC_SEARCH_STATS(FSMC_STAT_SET)
#undef FSMC_STAT_SET
  SearchStats M = A;
  mergeSearchStats(M, B);
#define FSMC_STAT_CHECK(Type, Member, Key, Merge, Json)                        \
  if (StatMerge::Merge == StatMerge::Sum) {                                    \
    EXPECT_EQ(M.Member, Type(A.Member + B.Member)) << Key;                     \
  } else if (StatMerge::Merge == StatMerge::Max) {                             \
    EXPECT_EQ(M.Member, std::max(A.Member, B.Member)) << Key;                  \
  } else {                                                                     \
    EXPECT_EQ(M.Member, A.Member) << Key;                                      \
  }
  FSMC_SEARCH_STATS(FSMC_STAT_CHECK)
#undef FSMC_STAT_CHECK
}

TEST(Checkpoint, DecodeRejectsGarbage) {
  CheckpointState CK;
  std::string Program, Err;
  uint64_t Seed = 0;
  EXPECT_FALSE(decodeCheckpoint("not a checkpoint", CK, Program, Seed, Err));
  EXPECT_FALSE(Err.empty());
  EXPECT_FALSE(decodeCheckpoint("fsmc-ckpt 99\n", CK, Program, Seed, Err));
  // Versions 1 and 2 are retired: their files read as foreign.
  for (const char *Old : {"fsmc-ckpt 1\nend\n", "fsmc-ckpt 2\nend\n"}) {
    Err.clear();
    EXPECT_FALSE(decodeCheckpoint(Old, CK, Program, Seed, Err)) << Old;
    EXPECT_NE(Err.find("not a checkpoint file"), std::string::npos) << Err;
  }
  // Version 3 signatures come from the previous state hash.
  Err.clear();
  EXPECT_FALSE(
      decodeCheckpoint("fsmc-ckpt 3\nend\n", CK, Program, Seed, Err));
  EXPECT_NE(Err.find("predates the current state hash"), std::string::npos)
      << Err;
  // A damaged value is rejected whether or not the key is known.
  for (const char *Bad :
       {"fsmc-ckpt 4\nstat executions 12x\nend\n",
        "fsmc-ckpt 4\nstat executions -1\nend\n",
        "fsmc-ckpt 4\nstat some_future_stat x\nend\n",
        "fsmc-ckpt 4\nstatf estimate_mass 0x1p-2q\nend\n",
        "fsmc-ckpt 4\nstat executions\nend\n"})
    EXPECT_FALSE(decodeCheckpoint(Bad, CK, Program, Seed, Err)) << Bad;
  EXPECT_TRUE(decodeCheckpoint("fsmc-ckpt 4\nstat some_future_stat 7\n"
                               "statf some_future_mass 0x1p-2\nend\n",
                               CK, Program, Seed, Err))
      << Err;
}

//===----------------------------------------------------------------------===
// Interrupt / resume equivalence.
//===----------------------------------------------------------------------===

namespace {

/// Interrupts the search after roughly \p After executions (using the
/// periodic checkpoint callback as the trigger point), then resumes --
/// repeatedly, until the search completes. Returns the final result.
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
      ADD_FAILURE() << "interrupted run must hand back a resume checkpoint";
      break;
    }
    ++Interrupts;
    // Round-trip the checkpoint through its wire format every time: the
    // file a real run writes must carry everything resume needs.
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

TEST(Resume, InterruptedSerialSearchMatchesUninterrupted) {
  PetersonConfig C;
  TestProgram P = makePetersonProgram(C);
  CheckerOptions O = boundedPetersonOpts();

  CheckResult Straight = check(P, O);
  ASSERT_TRUE(Straight.Stats.SearchExhausted);

  int Interrupts = 0;
  CheckResult Chopped = runWithRepeatedInterrupts(P, O, 25, &Interrupts);
  ASSERT_GT(Interrupts, 2) << "the run must actually have been interrupted";
  EXPECT_TRUE(Chopped.Stats.SearchExhausted);
  EXPECT_EQ(Chopped.Kind, Straight.Kind);
  EXPECT_EQ(Chopped.Stats.Executions, Straight.Stats.Executions);
  EXPECT_EQ(Chopped.Stats.Transitions, Straight.Stats.Transitions);
  EXPECT_EQ(Chopped.Stats.Preemptions, Straight.Stats.Preemptions);
  EXPECT_EQ(Chopped.Stats.DistinctStates, Straight.Stats.DistinctStates);
  EXPECT_EQ(Chopped.StateSignatures, Straight.StateSignatures);
}

TEST(Resume, InterruptedBugSearchStillFindsTheBug) {
  // StopOnFirstBug off: the whole buggy tree is enumerated across the
  // interruptions and the DFS-smallest counterexample survives the
  // checkpoint chain.
  PetersonConfig C;
  C.Kind = PetersonConfig::Variant::FlagAfterCheck;
  TestProgram P = makePetersonProgram(C);
  CheckerOptions O = boundedPetersonOpts();
  O.StopOnFirstBug = false;

  CheckResult Straight = check(P, O);
  ASSERT_TRUE(Straight.foundBug());

  CheckResult Chopped = runWithRepeatedInterrupts(P, O, 20, nullptr);
  ASSERT_TRUE(Chopped.foundBug());
  EXPECT_EQ(Chopped.Kind, Straight.Kind);
  EXPECT_EQ(Chopped.Stats.Executions, Straight.Stats.Executions);
  EXPECT_EQ(Chopped.Stats.BugsFound, Straight.Stats.BugsFound);
  ASSERT_TRUE(Chopped.Bug.has_value());
  EXPECT_EQ(Chopped.Bug->Schedule, Straight.Bug->Schedule);
  EXPECT_EQ(Chopped.Bug->Message, Straight.Bug->Message);
}

TEST(Resume, ParallelResumeOfSerialCheckpointMatches) {
  // A checkpoint taken by a serial run can be resumed at --jobs N: the
  // driver decomposes the serial DFS stack into frozen subtree prefixes.
  DiningConfig C;
  C.Philosophers = 2;
  C.Kind = DiningConfig::Variant::Mixed;
  TestProgram P = makeDiningProgram(C);
  CheckerOptions O;
  O.ExportStateSignatures = true;

  CheckResult Straight = check(P, O);
  ASSERT_TRUE(Straight.Stats.SearchExhausted);

  // Interrupt the serial run once, early.
  std::atomic<bool> Flag{false};
  CheckerOptions Cut = O;
  Cut.InterruptFlag = &Flag;
  Cut.CheckpointEvery = 10;
  Cut.CheckpointSink = [&](const CheckpointState &) { Flag.store(true); };
  CheckResult Partial = check(P, Cut);
  ASSERT_TRUE(Partial.Stats.Interrupted);
  ASSERT_TRUE(Partial.Resume != nullptr);

  CheckerOptions Par = O;
  Par.Jobs = 4;
  CheckResult Resumed = resumeCheck(P, Par, *Partial.Resume);
  EXPECT_TRUE(Resumed.Stats.SearchExhausted);
  EXPECT_EQ(Resumed.Kind, Straight.Kind);
  EXPECT_EQ(Resumed.Stats.Executions, Straight.Stats.Executions);
  EXPECT_EQ(Resumed.Stats.Transitions, Straight.Stats.Transitions);
  EXPECT_EQ(Resumed.Stats.DistinctStates, Straight.Stats.DistinctStates);
  EXPECT_EQ(Resumed.StateSignatures, Straight.StateSignatures);
}

TEST(Resume, CompletedCheckpointResumesToNoWork) {
  // A checkpoint with an empty frontier (taken exactly at exhaustion)
  // must resume to the recorded totals without running anything.
  CheckpointState CK;
  CK.Stats.Executions = 77;
  CK.Stats.Transitions = 900;
  CK.States = {1, 2, 3};
  TestProgram P = makePetersonProgram(PetersonConfig());
  CheckResult R = resumeCheck(P, CheckerOptions(), CK);
  EXPECT_TRUE(R.Stats.SearchExhausted);
  EXPECT_EQ(R.Stats.Executions, 77u);
  EXPECT_EQ(R.Stats.DistinctStates, 3u);
}

//===----------------------------------------------------------------------===
// Checkpoint/resume under --por=on: sleep sets are a pure function of
// the choice-stack path, so a frontier unit replayed after resume must
// recompute them exactly and reach the same terminal stats -- including
// the POR counters -- as an uninterrupted reduced search.
//===----------------------------------------------------------------------===

TEST(Resume, PorInterruptedSearchMatchesUninterrupted) {
  PetersonConfig C;
  TestProgram P = makePetersonProgram(C);
  CheckerOptions O = boundedPetersonOpts();
  O.Por = true;

  CheckResult Straight = check(P, O);
  ASSERT_TRUE(Straight.Stats.SearchExhausted);
  ASSERT_GT(Straight.Stats.PorSleepHits, 0u) << "POR never engaged";

  int Interrupts = 0;
  CheckResult Chopped = runWithRepeatedInterrupts(P, O, 25, &Interrupts);
  ASSERT_GT(Interrupts, 1) << "the run must actually have been interrupted";
  EXPECT_TRUE(Chopped.Stats.SearchExhausted);
  EXPECT_EQ(Chopped.Kind, Straight.Kind);
  EXPECT_EQ(Chopped.Stats.Executions, Straight.Stats.Executions);
  EXPECT_EQ(Chopped.Stats.Transitions, Straight.Stats.Transitions);
  EXPECT_EQ(Chopped.Stats.PorSleepHits, Straight.Stats.PorSleepHits);
  EXPECT_EQ(Chopped.Stats.PorBranchesPruned, Straight.Stats.PorBranchesPruned);
  EXPECT_EQ(Chopped.Stats.PorFairWakes, Straight.Stats.PorFairWakes);
  EXPECT_EQ(Chopped.StateSignatures, Straight.StateSignatures);
}

TEST(Resume, PorParallelResumeOfSerialCheckpointMatches) {
  // The sharded resume decomposes the interrupted POR'd DFS stack into
  // frozen prefixes whose recorded sleep masks must validate on replay.
  DiningConfig C;
  C.Philosophers = 3;
  C.Kind = DiningConfig::Variant::Mixed;
  TestProgram P = makeDiningProgram(C);
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = 2;
  O.Por = true;

  CheckResult Straight = check(P, O);
  ASSERT_TRUE(Straight.Stats.SearchExhausted);
  ASSERT_GT(Straight.Stats.PorSleepHits, 0u) << "POR never engaged";

  std::atomic<bool> Flag{false};
  CheckerOptions Cut = O;
  Cut.InterruptFlag = &Flag;
  Cut.CheckpointEvery = 10;
  Cut.CheckpointSink = [&](const CheckpointState &) { Flag.store(true); };
  CheckResult Partial = check(P, Cut);
  ASSERT_TRUE(Partial.Stats.Interrupted);
  ASSERT_TRUE(Partial.Resume != nullptr);

  // Wire round-trip: the checkpoint must carry the POR stat keys.
  std::string Text = encodeCheckpoint(*Partial.Resume, P.Name, O.Seed);
  CheckpointState CK;
  std::string Name, Err;
  uint64_t Seed = 0;
  ASSERT_TRUE(decodeCheckpoint(Text, CK, Name, Seed, Err)) << Err;

  CheckerOptions Par = O;
  Par.Jobs = 4;
  CheckResult Resumed = resumeCheck(P, Par, CK);
  EXPECT_TRUE(Resumed.Stats.SearchExhausted);
  EXPECT_EQ(Resumed.Kind, Straight.Kind);
  EXPECT_EQ(Resumed.Stats.Executions, Straight.Stats.Executions);
  EXPECT_EQ(Resumed.Stats.Transitions, Straight.Stats.Transitions);
  EXPECT_EQ(Resumed.Stats.PorSleepHits, Straight.Stats.PorSleepHits);
  EXPECT_EQ(Resumed.Stats.PorBranchesPruned,
            Straight.Stats.PorBranchesPruned);
  EXPECT_EQ(Resumed.Stats.PorFairWakes, Straight.Stats.PorFairWakes);
}
