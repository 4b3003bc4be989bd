//===- tests/core/LivenessTest.cpp ----------------------------------------===//
//
// Liveness detection: the semi-algorithm's outcomes 2 (good samaritan
// violations) and 3 (livelocks), plus unit tests of the divergence
// classifier.
//
//===----------------------------------------------------------------------===//

#include "core/LivenessMonitor.h"

#include "core/Checker.h"
#include "workloads/DiningPhilosophers.h"
#include "workloads/Promise.h"
#include "workloads/SpinWait.h"
#include "workloads/WorkerGroup.h"

#include <gtest/gtest.h>

using namespace fsmc;

TEST(LivenessMonitor, EagerDetectorFlagsPersistentSpinner) {
  LivenessMonitor M(/*GsBound=*/10);
  M.beginExecution();
  for (int I = 0; I < 9; ++I) {
    M.onTransition(3, /*WasYield=*/false, /*OthersEnabled=*/true);
    EXPECT_EQ(M.eagerGsViolator(), -1);
  }
  M.onTransition(3, false, true);
  EXPECT_EQ(M.eagerGsViolator(), 3);
}

TEST(LivenessMonitor, YieldResetsTheWindow) {
  LivenessMonitor M(10);
  M.beginExecution();
  for (int Round = 0; Round < 20; ++Round) {
    for (int I = 0; I < 9; ++I)
      M.onTransition(1, false, true);
    M.onTransition(1, /*WasYield=*/true, true);
  }
  EXPECT_EQ(M.eagerGsViolator(), -1);
}

TEST(LivenessMonitor, LoneSpinnerIsNotFlagged) {
  // A thread spinning with no other enabled thread starves nobody.
  LivenessMonitor M(10);
  M.beginExecution();
  for (int I = 0; I < 100; ++I)
    M.onTransition(0, false, /*OthersEnabled=*/false);
  EXPECT_EQ(M.eagerGsViolator(), -1);
}

TEST(LivenessMonitor, ZeroBoundDisablesEagerDetection) {
  LivenessMonitor M(0);
  M.beginExecution();
  for (int I = 0; I < 1000; ++I)
    M.onTransition(0, false, true);
  EXPECT_EQ(M.eagerGsViolator(), -1);
}

namespace {

Trace makeSuffixTrace(int Laps, bool UYields) {
  // Threads 1 and 2 alternate; thread 2 yields each lap iff UYields.
  Trace T;
  for (int I = 0; I < Laps; ++I) {
    T.record({1, OpKind::VarLoad, 0, 0, 0, false});
    T.record({1, OpKind::Sleep, -1, 0, 0, true});
    T.record({2, OpKind::VarLoad, 0, 0, 0, false});
    T.record({2, UYields ? OpKind::Sleep : OpKind::VarStore, -1, 0, 0,
              UYields});
  }
  return T;
}

} // namespace

TEST(LivenessMonitor, ClassifiesFairDivergenceAsLivelock) {
  Trace T = makeSuffixTrace(100, /*UYields=*/true);
  auto D = LivenessMonitor::classifyDivergence(T, 200);
  EXPECT_FALSE(D.IsGoodSamaritan);
  EXPECT_NE(D.Summary.find("livelock"), std::string::npos);
}

TEST(LivenessMonitor, ClassifiesNonYieldingSpinnerAsGsViolation) {
  Trace T = makeSuffixTrace(100, /*UYields=*/false);
  auto D = LivenessMonitor::classifyDivergence(T, 200);
  EXPECT_TRUE(D.IsGoodSamaritan);
  EXPECT_EQ(D.Culprit, 2);
}

TEST(LivenessMonitor, RareThreadInSuffixIsNotASpinner) {
  // A joiner scheduled twice without yielding must not trigger the GS
  // classification while the real threads cycle fairly.
  Trace T = makeSuffixTrace(100, /*UYields=*/true);
  T.record({0, OpKind::Join, -1, 1, 0, false});
  T.record({0, OpKind::Join, -1, 2, 0, false});
  auto D = LivenessMonitor::classifyDivergence(T, 200);
  EXPECT_FALSE(D.IsGoodSamaritan);
}

//===----------------------------------------------------------------------===
// End-to-end liveness detection through the checker: Section 4.3's
// findings (tests/paper/Section43Test.cpp adds the configurations
// EXPERIMENTS.md reports). The pinned counts are hardware-independent:
// the fair DFS visits executions in one deterministic order, so a change
// to the scheduler, the explorer or divergence detection that moves any
// of them fails here.
//===----------------------------------------------------------------------===

TEST(Liveness, SpinWithYieldIsFairTerminating) {
  SpinWaitConfig C;
  CheckResult R = check(makeSpinWaitProgram(C), CheckerOptions());
  EXPECT_EQ(R.Kind, Verdict::Pass);
  EXPECT_TRUE(R.Stats.SearchExhausted)
      << "the fair search must terminate on Figure 3's program";
}

TEST(Liveness, SpinWithoutYieldViolatesGoodSamaritan) {
  SpinWaitConfig C;
  C.WithYield = false;
  CheckerOptions O;
  O.GoodSamaritanBound = 100;
  CheckResult R = check(makeSpinWaitProgram(C), O);
  EXPECT_EQ(R.Kind, Verdict::GoodSamaritanViolation);
  ASSERT_TRUE(R.Bug.has_value());
  EXPECT_NE(R.Bug->Message.find("u0"), std::string::npos)
      << "the spinner must be named in the report";
}

TEST(Liveness, DiningTryLockLivelockFound) {
  // Figure 1's livelock: a *fair* cycle. Found by the unbounded fair DFS
  // via the execution bound; each lap needs preemptions, so context
  // bounding would hide it.
  DiningConfig C;
  C.Philosophers = 2;
  C.Kind = DiningConfig::Variant::TryLockRetry;
  CheckerOptions O;
  O.ExecutionBound = 200;
  O.TimeBudgetSeconds = 60;
  CheckResult R = check(makeDiningProgram(C), O);
  EXPECT_EQ(R.Kind, Verdict::Livelock);
  ASSERT_TRUE(R.Bug.has_value());
  EXPECT_NE(R.Bug->Message.find("livelock"), std::string::npos);
  EXPECT_EQ(R.Stats.Executions, 1859u);
}

TEST(Liveness, PromiseStaleReadLivelockFound) {
  PromiseConfig C;
  C.StaleReadBug = true;
  CheckerOptions O;
  O.ExecutionBound = 1000;
  O.TimeBudgetSeconds = 60;
  CheckResult R = check(makePromiseProgram(C), O);
  EXPECT_EQ(R.Kind, Verdict::Livelock)
      << "Figure 8's stale read yields each lap: a fair livelock";
  EXPECT_EQ(R.Stats.Executions, 1u);
}

TEST(Liveness, PromiseWithoutBugPasses) {
  PromiseConfig C;
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = 2;
  O.TimeBudgetSeconds = 60;
  CheckResult R = check(makePromiseProgram(C), O);
  EXPECT_EQ(R.Kind, Verdict::Pass);
  EXPECT_TRUE(R.Stats.SearchExhausted);
  EXPECT_EQ(R.Stats.Executions, 196u);
}

TEST(Liveness, WorkerGroupShutdownSpinDetected) {
  WorkerGroupConfig C;
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = 2;
  O.GoodSamaritanBound = 200;
  O.TimeBudgetSeconds = 60;
  CheckResult R = check(makeWorkerGroupProgram(C), O);
  EXPECT_EQ(R.Kind, Verdict::GoodSamaritanViolation)
      << "Figure 7's stop-flag window must surface as a GS violation";
  EXPECT_EQ(R.Stats.Executions, 12u);
}

TEST(Liveness, FixedWorkerGroupHasNoSpin) {
  WorkerGroupConfig C;
  C.ShutdownSpinBug = false;
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = 1;
  O.GoodSamaritanBound = 200;
  O.TimeBudgetSeconds = 60;
  O.MaxExecutions = 30000;
  CheckResult R = check(makeWorkerGroupProgram(C), O);
  EXPECT_EQ(R.Kind, Verdict::Pass);
  EXPECT_EQ(R.Stats.Executions, 30000u);
  EXPECT_EQ(R.Stats.Transitions, 1570380u);
}

TEST(Liveness, DivergenceDetectionCanBeDisabled) {
  SpinWaitConfig C;
  C.WithYield = false;
  CheckerOptions O;
  O.DetectDivergence = false;
  O.GoodSamaritanBound = 100;
  // DFS reaches the diverging branch only after roughly ExecutionBound
  // executions (each backtrack extends the spin by one lap), so keep the
  // bound small and the execution budget above it.
  O.ExecutionBound = 60;
  O.MaxExecutions = 500;
  CheckResult R = check(makeSpinWaitProgram(C), O);
  EXPECT_EQ(R.Kind, Verdict::Pass);
  EXPECT_GT(R.Stats.NonterminatingExecutions, 0u);
}
