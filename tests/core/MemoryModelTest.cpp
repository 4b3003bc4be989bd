//===- tests/core/MemoryModelTest.cpp -------------------------------------===//
//
// Weak-memory exploration contract (docs/MEMORY.md): under --memory=tso
// stores sit in per-thread FIFO buffers whose flush points are schedule
// points, --memory=pso splits the buffer per variable, fsmc::fence()
// drains, and --memory=sc is byte-identical to a build that never heard
// of store buffers.  The litmus tests below are the standard hardware
// ones (store buffering, message passing); the registry sweep pins that
// weak memory only *adds* interleavings to well-fenced programs, never
// changes their verdicts.
//
//===----------------------------------------------------------------------===//

#include "core/Checker.h"

#include "core/Checkpoint.h"
#include "core/Explorer.h"
#include "core/Schedule.h"
#include "obs/StatsJson.h"
#include "runtime/Runtime.h"
#include "sync/Atomic.h"
#include "sync/TestThread.h"
#include "workloads/SpinWait.h"
#include "workloads/WorkStealQueue.h"
#include "workloads/WorkloadRegistry.h"

#include <gtest/gtest.h>
#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

using namespace fsmc;

namespace {

CheckerOptions withMemory(MemoryModel M) {
  CheckerOptions O;
  O.Memory = M;
  return O;
}

/// The classic store-buffering (Dekker core) litmus: two threads each
/// store their own flag then load the other's.  Under SC at least one
/// load observes a store; both loads reading the initial value is the
/// TSO-only outcome a delayed flush produces.
TestProgram storeBufferLitmus(bool Fenced) {
  TestProgram P;
  P.Name = Fenced ? "litmus-sb-fenced" : "litmus-sb";
  P.Body = [Fenced] {
    auto X = std::make_shared<Atomic<int>>(0, "x");
    auto Y = std::make_shared<Atomic<int>>(0, "y");
    auto R1 = std::make_shared<int>(-1);
    auto R2 = std::make_shared<int>(-1);
    // The trailing yield keeps thread exit (whose buffer drain is fused
    // with the thread's final transition) from committing the store in
    // the same step as the load -- real SB code keeps running too.
    TestThread A([=] {
      X->store(1);
      if (Fenced)
        fence();
      *R1 = Y->load();
      yieldNow();
    }, "a");
    TestThread B([=] {
      Y->store(1);
      if (Fenced)
        fence();
      *R2 = X->load();
      yieldNow();
    }, "b");
    A.join();
    B.join();
    checkThat(*R1 == 1 || *R2 == 1, "both loads saw the initial value");
  };
  return P;
}

/// Message passing: writer publishes data then sets a flag; reader that
/// observes the flag must observe the data.  FIFO (TSO) buffers preserve
/// the store order, per-variable (PSO) buffers may flush the flag first.
TestProgram messagePassingLitmus() {
  TestProgram P;
  P.Name = "litmus-mp";
  P.Body = [] {
    auto Data = std::make_shared<Atomic<int>>(0, "data");
    auto Flag = std::make_shared<Atomic<int>>(0, "flag");
    TestThread Writer([=] {
      Data->store(42);
      Flag->store(1);
      // Keep the writer alive past the flag store so its exit drain
      // cannot commit both stores in one indivisible step.
      yieldNow();
      yieldNow();
    }, "writer");
    if (Flag->load() == 1)
      checkThat(Data->load() == 42, "flag visible before data");
    Writer.join();
  };
  return P;
}

TestProgram wsqBug1() {
  WsqConfig C;
  C.Stealers = 1;
  C.Tasks = 2;
  C.Bug = WsqBug::PopReordered;
  return makeWsqProgram(C);
}

/// The bug-free WSQ (1 stealer, 2 tasks) that the cb=2 search exhausts.
TestProgram wsqCorrect() {
  WsqConfig C;
  C.Stealers = 1;
  C.Tasks = 2;
  return makeWsqProgram(C);
}

CheckerOptions wsqSearch(MemoryModel M) {
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = 2;
  O.TimeBudgetSeconds = 120;
  O.Memory = M;
  return O;
}

/// True when any record in the wire string carries an f<hex> flush mask.
bool hasFlushRecords(const std::string &Schedule) {
  std::vector<ScheduleChoice> Choices;
  EXPECT_TRUE(decodeSchedule(Schedule, Choices));
  for (const ScheduleChoice &C : Choices)
    if (C.FlushMask)
      return true;
  return false;
}

std::set<std::string> incidentSet(const CheckResult &R) {
  std::set<std::string> S;
  if (R.Bug)
    S.insert(verdictName(R.Bug->Kind) + std::string(": ") + R.Bug->Message);
  for (const BugReport &I : R.Incidents)
    S.insert(verdictName(I.Kind) + std::string(": ") + I.Message);
  return S;
}

} // namespace

//===----------------------------------------------------------------------===
// Litmus tests: the memory models differ exactly where hardware does.
//===----------------------------------------------------------------------===

TEST(MemoryModel, StoreBufferingIsUnreachableUnderSc) {
  CheckResult R = check(storeBufferLitmus(/*Fenced=*/false),
                        withMemory(MemoryModel::Sc));
  EXPECT_EQ(R.Kind, Verdict::Pass);
  EXPECT_TRUE(R.Stats.SearchExhausted);
  EXPECT_EQ(R.Stats.BufferedStores, 0u);
  EXPECT_EQ(R.Stats.StoreFlushes, 0u);
}

TEST(MemoryModel, StoreBufferingIsReachableUnderTso) {
  CheckResult R = check(storeBufferLitmus(/*Fenced=*/false),
                        withMemory(MemoryModel::Tso));
  ASSERT_EQ(R.Kind, Verdict::SafetyViolation);
  ASSERT_TRUE(R.Bug.has_value());
  EXPECT_NE(R.Bug->Message.find("initial value"), std::string::npos);
  EXPECT_GT(R.Stats.BufferedStores, 0u);
  // The violating schedule records its flush choices and replays.
  EXPECT_TRUE(hasFlushRecords(R.Bug->Schedule));
  CheckResult Replay = replaySchedule(storeBufferLitmus(false),
                                      withMemory(MemoryModel::Tso),
                                      R.Bug->Schedule);
  EXPECT_EQ(Replay.Kind, Verdict::SafetyViolation);
  EXPECT_EQ(Replay.Stats.Executions, 1u);
}

TEST(MemoryModel, FencesRestoreSequentialConsistency) {
  CheckResult R = check(storeBufferLitmus(/*Fenced=*/true),
                        withMemory(MemoryModel::Tso));
  EXPECT_EQ(R.Kind, Verdict::Pass);
  EXPECT_TRUE(R.Stats.SearchExhausted);
  // The fence drains buffered stores; the search still paid for them.
  EXPECT_GT(R.Stats.BufferedStores, 0u);
  EXPECT_GT(R.Stats.StoreFlushes, 0u);
}

TEST(MemoryModel, TsoExploresStrictlyMoreSchedules) {
  // Same fenced (bug-free) program, both searches exhaust: delayed
  // flushes are extra schedule points, so the TSO tree strictly
  // contains the SC one.
  CheckResult Sc = check(storeBufferLitmus(true), withMemory(MemoryModel::Sc));
  CheckResult Tso =
      check(storeBufferLitmus(true), withMemory(MemoryModel::Tso));
  ASSERT_TRUE(Sc.Stats.SearchExhausted);
  ASSERT_TRUE(Tso.Stats.SearchExhausted);
  EXPECT_GT(Tso.Stats.Executions, Sc.Stats.Executions);
}

TEST(MemoryModel, StoreToLoadForwardingSeesOwnBufferedStore) {
  // A thread always reads its own newest buffered store, even before any
  // flush: r == 0 would be a forwarding bug, not a weak-memory outcome.
  TestProgram P;
  P.Name = "litmus-fwd";
  P.Body = [] {
    auto X = std::make_shared<Atomic<int>>(0, "x");
    TestThread Other([X] { (void)X->load(); }, "other");
    X->store(7);
    checkThat(X->load() == 7, "own buffered store not forwarded");
    Other.join();
  };
  for (MemoryModel M :
       {MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso}) {
    CheckResult R = check(P, withMemory(M));
    EXPECT_EQ(R.Kind, Verdict::Pass) << memoryModelName(M);
    EXPECT_TRUE(R.Stats.SearchExhausted) << memoryModelName(M);
  }
}

TEST(MemoryModel, MessagePassingHoldsUnderTsoBreaksUnderPso) {
  // FIFO buffers commit data before flag; per-variable buffers need not.
  CheckResult Tso = check(messagePassingLitmus(), withMemory(MemoryModel::Tso));
  EXPECT_EQ(Tso.Kind, Verdict::Pass);
  EXPECT_TRUE(Tso.Stats.SearchExhausted);

  CheckResult Pso = check(messagePassingLitmus(), withMemory(MemoryModel::Pso));
  ASSERT_EQ(Pso.Kind, Verdict::SafetyViolation);
  ASSERT_TRUE(Pso.Bug.has_value());
  EXPECT_NE(Pso.Bug->Message.find("flag visible"), std::string::npos);
  CheckResult Replay = replaySchedule(messagePassingLitmus(),
                                      withMemory(MemoryModel::Pso),
                                      Pso.Bug->Schedule);
  EXPECT_EQ(Replay.Kind, Verdict::SafetyViolation);
}

//===----------------------------------------------------------------------===
// The WSQ missing-fence bug: the tentpole's acceptance case.
//===----------------------------------------------------------------------===

TEST(MemoryModel, WsqMissingFenceBugNeedsTso) {
  // Under sc the buffered Tail.store is never delayed past the Head.load,
  // so the THE-protocol race window does not exist.
  CheckResult Sc = check(wsqBug1(), wsqSearch(MemoryModel::Sc));
  EXPECT_EQ(Sc.Kind, Verdict::Pass);
  EXPECT_TRUE(Sc.Stats.SearchExhausted);

  CheckResult Tso = check(wsqBug1(), wsqSearch(MemoryModel::Tso));
  ASSERT_EQ(Tso.Kind, Verdict::SafetyViolation);
  ASSERT_TRUE(Tso.Bug.has_value());
  EXPECT_TRUE(hasFlushRecords(Tso.Bug->Schedule))
      << "the repro must pin its flush choices: " << Tso.Bug->Schedule;

  CheckResult Replay =
      replaySchedule(wsqBug1(), wsqSearch(MemoryModel::Tso),
                     Tso.Bug->Schedule);
  EXPECT_EQ(Replay.Kind, Verdict::SafetyViolation);
  EXPECT_EQ(Replay.Stats.Executions, 1u);
  EXPECT_EQ(Replay.Bug->Message, Tso.Bug->Message);

  // Replaying the tso schedule under sc must diverge loudly (the f-masks
  // no longer match), never silently wander into a passing execution.
  CheckResult Wrong =
      replaySchedule(wsqBug1(), wsqSearch(MemoryModel::Sc),
                     Tso.Bug->Schedule);
  EXPECT_EQ(Wrong.Kind, Verdict::Divergence);
}

TEST(MemoryModel, SandboxHarvestsFlushMaskSchedules) {
  // --isolate=batch streams every choice, flush masks included, through
  // the child pipe; the harvested repro must equal the in-process one.
  CheckResult In = check(wsqBug1(), wsqSearch(MemoryModel::Tso));
  ASSERT_TRUE(In.foundBug());

  CheckerOptions Iso = wsqSearch(MemoryModel::Tso);
  Iso.Isolate = IsolationMode::Batch;
  CheckResult Out = check(wsqBug1(), Iso);
  ASSERT_TRUE(Out.foundBug());
  ASSERT_TRUE(Out.Bug.has_value() && In.Bug.has_value());
  EXPECT_EQ(Out.Bug->Schedule, In.Bug->Schedule);
  EXPECT_EQ(Out.Bug->Message, In.Bug->Message);
  EXPECT_EQ(Out.Stats.Executions, In.Stats.Executions);
  EXPECT_TRUE(hasFlushRecords(Out.Bug->Schedule));
}

//===----------------------------------------------------------------------===
// What tso costs: exact execution counts of exhaustive searches.
//===----------------------------------------------------------------------===

TEST(MemoryModel, SpinWaitCountIsTheSameUnderTso) {
  // The setter's store is its thread's last action, and thread exit
  // drains the buffer in the same step, so tso adds no schedule points.
  for (MemoryModel M : {MemoryModel::Sc, MemoryModel::Tso}) {
    CheckerOptions O = withMemory(M);
    O.DetectDivergence = false;
    CheckResult R = check(makeSpinWaitProgram({}), O);
    EXPECT_EQ(R.Kind, Verdict::Pass) << memoryModelName(M);
    EXPECT_TRUE(R.Stats.SearchExhausted) << memoryModelName(M);
    EXPECT_EQ(R.Stats.Executions, 71u) << memoryModelName(M);
  }
}

TEST(MemoryModel, WsqExhaustsIn1535ExecutionsUnderSc) {
  CheckResult R = check(wsqCorrect(), wsqSearch(MemoryModel::Sc));
  EXPECT_EQ(R.Kind, Verdict::Pass);
  EXPECT_TRUE(R.Stats.SearchExhausted);
  EXPECT_EQ(R.Stats.Executions, 1535u);
}

// The 50x blow-up over the sc count above. At 77409 executions this is
// the suite's one test labelled slow (tests/CMakeLists.txt).
TEST(MemoryModel, WsqExhaustsIn77409ExecutionsUnderTso) {
  CheckResult R = check(wsqCorrect(), wsqSearch(MemoryModel::Tso));
  EXPECT_EQ(R.Kind, Verdict::Pass);
  EXPECT_TRUE(R.Stats.SearchExhausted);
  EXPECT_EQ(R.Stats.Executions, 77409u);
}

//===----------------------------------------------------------------------===
// sc byte-identity and wire-format pins.
//===----------------------------------------------------------------------===

TEST(MemoryModel, ScRunsCarryNoWeakMemoryArtifacts) {
  // Under the default model no schedule record may carry an f-mask and
  // stats-json must not grow memory/buffer keys -- that is what keeps
  // --memory=sc output byte-identical to pre-weak-memory builds.
  CheckerOptions O = wsqSearch(MemoryModel::Sc);
  WsqConfig C;
  C.Stealers = 1;
  C.Tasks = 2;
  C.Bug = WsqBug::StealNoRestore; // Bug2 is an sc bug: a repro exists.
  CheckResult R = check(makeWsqProgram(C), O);
  ASSERT_TRUE(R.foundBug());
  EXPECT_FALSE(hasFlushRecords(R.Bug->Schedule));

  obs::StatsJsonInfo Info;
  Info.Program = "wsq-bug2";
  Info.Options = &O;
  std::string Json = obs::renderStatsJson(R, Info);
  EXPECT_EQ(Json.find("\"memory\""), std::string::npos);
  EXPECT_EQ(Json.find("buffered_stores"), std::string::npos);
  EXPECT_EQ(Json.find("store_flushes"), std::string::npos);
}

TEST(MemoryModel, TsoRunsEchoModelAndCounters) {
  CheckerOptions O = withMemory(MemoryModel::Tso);
  CheckResult R = check(storeBufferLitmus(true), O);
  ASSERT_TRUE(R.Stats.SearchExhausted);
  obs::StatsJsonInfo Info;
  Info.Program = "litmus-sb-fenced";
  Info.Options = &O;
  std::string Json = obs::renderStatsJson(R, Info);
  EXPECT_NE(Json.find("\"memory\": \"tso\""), std::string::npos);
  EXPECT_NE(Json.find("\"buffered_stores\": "), std::string::npos);
  EXPECT_NE(Json.find("\"store_flushes\": "), std::string::npos);
}

TEST(MemoryModel, CheckpointRoundTripsFlushMasks) {
  // Stacks recorded under tso with POR carry f- and s-masks through the
  // checkpoint text format and through Explorer::handBack, the rule every
  // engine stops a unit with. Each decoded unit, frozen up to its first
  // open node that has a mask, replays without divergence, and after one
  // execution the explorer hands back that node's siblings with the
  // node's masks, and a continuation that keeps every replayed record's.
  CheckerOptions O = withMemory(MemoryModel::Tso);
  O.Por = true;
  O.StopOnFirstBug = false;
  std::vector<CheckpointState> Saved;
  CheckerOptions Saving = O;
  Saving.CheckpointEvery = 1;
  Saving.CheckpointSink = [&](const CheckpointState &CK) {
    Saved.push_back(CK);
  };
  TestProgram Litmus = storeBufferLitmus(false); // outlives the explorers
  ASSERT_TRUE(check(Litmus, Saving).Stats.SearchExhausted);

  bool SawFlushSibling = false, SawSleepSibling = false;
  for (const CheckpointState &CK : Saved) {
    std::string Text = encodeCheckpoint(CK, "litmus-sb", 7);
    CheckpointState Back;
    std::string Program, Err;
    uint64_t Seed = 0;
    ASSERT_TRUE(decodeCheckpoint(Text, Back, Program, Seed, Err)) << Err;
    ASSERT_EQ(Back.Frontier.size(), 1u);
    CheckpointUnit U = Back.Frontier[0];
    ASSERT_EQ(U.Prefix.size(), CK.Frontier[0].Prefix.size());
    for (size_t I = 0; I < U.Prefix.size(); ++I) {
      EXPECT_EQ(U.Prefix[I].FlushMask, CK.Frontier[0].Prefix[I].FlushMask);
      EXPECT_EQ(U.Prefix[I].SleepMask, CK.Frontier[0].Prefix[I].SleepMask);
    }
    size_t Node = 0;
    while (Node < U.Prefix.size() &&
           !(U.Prefix[Node].Backtrack &&
             U.Prefix[Node].Chosen + 1 < U.Prefix[Node].Num &&
             (U.Prefix[Node].FlushMask || U.Prefix[Node].SleepMask)))
      ++Node;
    if (Node == U.Prefix.size())
      continue;
    U.FrozenLen = Node;

    Explorer E(Litmus, O);
    E.preloadScheduleFrozenPrefix(U.Prefix, U.FrozenLen);
    std::vector<CheckpointUnit> Rest;
    E.setExecutionHook([&](Explorer &Ex) {
      Ex.handBack(Rest);
      return false;
    });
    CheckResult R = E.run();
    EXPECT_EQ(R.Stats.Executions, 1u);
    EXPECT_EQ(R.Stats.Divergences, 0u);
    size_t Siblings = 0;
    for (const CheckpointUnit &H : Rest) {
      for (size_t I = 0; I < std::min(H.Prefix.size(), U.Prefix.size());
           ++I) {
        EXPECT_EQ(H.Prefix[I].FlushMask, U.Prefix[I].FlushMask);
        EXPECT_EQ(H.Prefix[I].SleepMask, U.Prefix[I].SleepMask);
      }
      if (H.FrozenLen != H.Prefix.size())
        continue; // the continuation
      ++Siblings;
      ASSERT_EQ(H.Prefix.size(), Node + 1);
      EXPECT_GT(H.Prefix[Node].Chosen, U.Prefix[Node].Chosen);
      SawFlushSibling |= H.Prefix[Node].FlushMask != 0;
      SawSleepSibling |= H.Prefix[Node].SleepMask != 0;
    }
    EXPECT_EQ(Siblings,
              size_t(U.Prefix[Node].Num - U.Prefix[Node].Chosen - 1));
  }
  EXPECT_TRUE(SawFlushSibling);
  EXPECT_TRUE(SawSleepSibling);
}

//===----------------------------------------------------------------------===
// Registry sweep: weak memory must not change verdicts of fenced code.
//===----------------------------------------------------------------------===

TEST(MemoryModel, RegistrySweepScVsTsoVerdictParity) {
  // Every registry entry is race-free and properly fenced (the seeded
  // bugs live behind config flags the registry leaves off), so tso may
  // only add interleavings -- same verdict, same incidents, at least as
  // many executions whenever the sc search exhausted under the cap.
  CheckerOptions Base;
  Base.Kind = SearchKind::Dfs;
  Base.MaxExecutions = 60;
  Base.TimeBudgetSeconds = 60;
  Base.StopOnFirstBug = false;
  for (const RegisteredWorkload &W : allWorkloads()) {
    SCOPED_TRACE(W.Name);
    CheckerOptions Sc = Base;
    Sc.Memory = MemoryModel::Sc;
    CheckerOptions Tso = Base;
    Tso.Memory = MemoryModel::Tso;
    CheckResult RS = check(W.Make(), Sc);
    CheckResult RT = check(W.Make(), Tso);
    EXPECT_EQ(RS.Kind, RT.Kind);
    EXPECT_EQ(incidentSet(RS), incidentSet(RT));
    if (RS.Stats.SearchExhausted) {
      EXPECT_GE(RT.Stats.Executions, RS.Stats.Executions);
    }
  }
}
