//===- tests/core/ExplorerTest.cpp ----------------------------------------===//
//
// End-to-end tests of the stateless explorer: enumeration counts,
// replay determinism, choice-stack behaviour for data nondeterminism,
// context bounding, depth bounding and stateful pruning.
//
//===----------------------------------------------------------------------===//

#include "core/Checker.h"

#include "runtime/Runtime.h"
#include "sync/Atomic.h"
#include "sync/Mutex.h"
#include "sync/TestThread.h"

#include <gtest/gtest.h>
#include <functional>
#include <memory>
#include <mutex>

using namespace fsmc;

namespace {

/// N threads, each performing one visible store, spawned by main which
/// then joins them. The schedule orderings of the stores are N!.
TestProgram independentWriters(int N) {
  TestProgram P;
  P.Name = "writers";
  P.Body = [N] {
    auto X = std::make_shared<Atomic<int>>(0, "x");
    std::vector<TestThread> Ts;
    for (int I = 0; I < N; ++I)
      Ts.emplace_back([X, I] { X->store(I); }, "w" + std::to_string(I));
    for (TestThread &T : Ts)
      T.join();
  };
  return P;
}

} // namespace

TEST(Explorer, SingleThreadedProgramHasOneExecution) {
  TestProgram P;
  P.Name = "solo";
  P.Body = [] {
    Atomic<int> X(0, "x");
    X.store(1);
    X.store(2);
    EXPECT_EQ(X.load(), 2);
  };
  CheckResult R = check(P, CheckerOptions());
  EXPECT_EQ(R.Kind, Verdict::Pass);
  EXPECT_EQ(R.Stats.Executions, 1u);
  EXPECT_TRUE(R.Stats.SearchExhausted);
}

TEST(Explorer, TwoEmptyThreadsGiveThreeSchedules) {
  // Each child is a single ThreadStart transition; main joins them in
  // order. Hand enumeration: w0-first branches on {main, w1} (2 paths),
  // w1-first forces w0 then main (1 path) -- three executions total.
  TestProgram P;
  P.Name = "empty2";
  P.Body = [] {
    TestThread A([] {}, "w0");
    TestThread B([] {}, "w1");
    A.join();
    B.join();
  };
  CheckResult R = check(P, CheckerOptions());
  EXPECT_EQ(R.Kind, Verdict::Pass);
  EXPECT_EQ(R.Stats.Executions, 3u);
  EXPECT_TRUE(R.Stats.SearchExhausted);
}

TEST(Explorer, InterleavingCountGrowsWithThreads) {
  CheckResult R2 = check(independentWriters(2), CheckerOptions());
  CheckResult R3 = check(independentWriters(3), CheckerOptions());
  EXPECT_EQ(R2.Kind, Verdict::Pass);
  EXPECT_EQ(R3.Kind, Verdict::Pass);
  EXPECT_TRUE(R2.Stats.SearchExhausted);
  EXPECT_TRUE(R3.Stats.SearchExhausted);
  EXPECT_GT(R2.Stats.Executions, 1u);
  EXPECT_GT(R3.Stats.Executions, 4 * R2.Stats.Executions)
      << "adding a thread must blow up the interleaving count";
}

TEST(Explorer, ChooseIntEnumeratesDataChoices) {
  auto Seen = std::make_shared<std::vector<int>>();
  TestProgram P;
  P.Name = "choices";
  P.Body = [Seen] {
    int V = Runtime::current().chooseInt(3);
    Seen->push_back(V);
  };
  CheckResult R = check(P, CheckerOptions());
  EXPECT_EQ(R.Stats.Executions, 3u);
  EXPECT_EQ(*Seen, (std::vector<int>{0, 1, 2}));
}

TEST(Explorer, NestedChoicesMultiply) {
  auto Count = std::make_shared<int>(0);
  TestProgram P;
  P.Name = "nested";
  P.Body = [Count] {
    Runtime &RT = Runtime::current();
    (void)RT.chooseInt(2);
    (void)RT.chooseInt(3);
    ++*Count;
  };
  CheckResult R = check(P, CheckerOptions());
  EXPECT_EQ(R.Stats.Executions, 6u);
  EXPECT_EQ(*Count, 6);
}

TEST(Explorer, DeterministicAcrossRuns) {
  CheckerOptions O;
  O.TrackCoverage = true;
  CheckResult A = check(independentWriters(3), O);
  CheckResult B = check(independentWriters(3), O);
  EXPECT_EQ(A.Stats.Executions, B.Stats.Executions);
  EXPECT_EQ(A.Stats.Transitions, B.Stats.Transitions);
  EXPECT_EQ(A.Stats.DistinctStates, B.Stats.DistinctStates);
}

TEST(Explorer, AssertionFailureProducesCounterexample) {
  TestProgram P;
  P.Name = "assert";
  P.Body = [] {
    auto X = std::make_shared<Atomic<int>>(0, "x");
    TestThread W([X] { X->store(7); }, "w");
    int V = X->load();
    W.join();
    checkThat(V == 0, "reader must run before writer in this branch");
  };
  CheckResult R = check(P, CheckerOptions());
  ASSERT_EQ(R.Kind, Verdict::SafetyViolation);
  ASSERT_TRUE(R.Bug.has_value());
  EXPECT_NE(R.Bug->Message.find("reader must run"), std::string::npos);
  EXPECT_FALSE(R.Bug->TraceText.empty());
  EXPECT_NE(R.Bug->TraceText.find("store"), std::string::npos);
}

TEST(Explorer, DeadlockDetected) {
  TestProgram P;
  P.Name = "abba";
  P.Body = [] {
    auto A = std::make_shared<Mutex>("A");
    auto B = std::make_shared<Mutex>("B");
    TestThread T1([A, B] {
      A->lock();
      B->lock();
      B->unlock();
      A->unlock();
    }, "t1");
    TestThread T2([A, B] {
      B->lock();
      A->lock();
      A->unlock();
      B->unlock();
    }, "t2");
    T1.join();
    T2.join();
  };
  CheckResult R = check(P, CheckerOptions());
  ASSERT_EQ(R.Kind, Verdict::Deadlock);
  EXPECT_NE(R.Bug->Message.find("t1"), std::string::npos);
  EXPECT_NE(R.Bug->Message.find("t2"), std::string::npos);
}

TEST(Explorer, StopOnFirstBugCountsExecutions) {
  TestProgram P;
  P.Name = "maybe";
  P.Body = [] {
    int V = Runtime::current().chooseInt(4);
    checkThat(V != 2, "branch 2 is buggy");
  };
  CheckResult R = check(P, CheckerOptions());
  EXPECT_EQ(R.Kind, Verdict::SafetyViolation);
  // Branches 0, 1 pass; branch 2 fails; branch 3 never runs.
  EXPECT_EQ(R.Stats.Executions, 3u);
  EXPECT_EQ(R.Bug->AtExecution, 2u);
}

TEST(Explorer, ContinuePastBugsCountsAll) {
  TestProgram P;
  P.Name = "multi-bug";
  P.Body = [] {
    int V = Runtime::current().chooseInt(4);
    checkThat(V % 2 == 0, "odd branches are buggy");
  };
  CheckerOptions O;
  O.StopOnFirstBug = false;
  CheckResult R = check(P, O);
  EXPECT_EQ(R.Kind, Verdict::SafetyViolation);
  EXPECT_EQ(R.Stats.Executions, 4u);
  EXPECT_EQ(R.Stats.BugsFound, 2u);
  EXPECT_EQ(R.Bug->AtExecution, 1u) << "first counterexample is kept";
}

TEST(Explorer, ContextBoundZeroMeansNoPreemptions) {
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = 0;
  CheckResult R = check(independentWriters(3), O);
  EXPECT_EQ(R.Kind, Verdict::Pass);
  EXPECT_EQ(R.Stats.Preemptions, 0u);
  EXPECT_TRUE(R.Stats.SearchExhausted);
  // Far fewer schedules than the unbounded search explores.
  CheckResult Full = check(independentWriters(3), CheckerOptions());
  EXPECT_LT(R.Stats.Executions, Full.Stats.Executions);
}

TEST(Explorer, ContextBoundGrowsCoverageMonotonically) {
  uint64_t Prev = 0;
  for (int CB = 0; CB <= 3; ++CB) {
    CheckerOptions O;
    O.Kind = SearchKind::ContextBounded;
    O.ContextBound = CB;
    O.TrackCoverage = true;
    CheckResult R = check(independentWriters(3), O);
    EXPECT_EQ(R.Kind, Verdict::Pass);
    EXPECT_GE(R.Stats.DistinctStates, Prev)
        << "state coverage must not shrink as the bound grows";
    Prev = R.Stats.DistinctStates;
  }
}

TEST(Explorer, DepthBoundCutCountsNonterminatingExecutions) {
  // The Figure 2 measurement mode: unfair search, no tail; executions
  // reaching the bound are counted and abandoned.
  TestProgram P;
  P.Name = "spin";
  P.Body = [] {
    auto X = std::make_shared<Atomic<int>>(0, "x");
    TestThread T([X] { X->store(1); }, "t");
    TestThread U([X] {
      while (X->load() != 1)
        yieldNow();
    }, "u");
    T.join();
    U.join();
  };
  CheckerOptions O;
  O.Fair = false;
  O.DepthBound = 25;
  O.RandomTail = false;
  O.DetectDivergence = false;
  CheckResult R = check(P, O);
  EXPECT_EQ(R.Kind, Verdict::Pass);
  EXPECT_TRUE(R.Stats.SearchExhausted);
  EXPECT_GT(R.Stats.NonterminatingExecutions, 0u)
      << "the unfair search must waste executions unrolling the spin loop";
  EXPECT_LT(R.Stats.NonterminatingExecutions, R.Stats.Executions);
}

TEST(Explorer, RandomTailTerminatesExecutions) {
  TestProgram P = independentWriters(2);
  CheckerOptions O;
  O.Fair = false;
  O.DepthBound = 3;
  O.RandomTail = true;
  O.Seed = 42;
  CheckResult R = check(P, O);
  EXPECT_EQ(R.Kind, Verdict::Pass);
  EXPECT_TRUE(R.Stats.SearchExhausted);
  EXPECT_EQ(R.Stats.NonterminatingExecutions, 0u);
}

TEST(Explorer, RandomWalkRespectsExecutionCap) {
  CheckerOptions O;
  O.Kind = SearchKind::RandomWalk;
  O.MaxExecutions = 37;
  CheckResult R = check(independentWriters(3), O);
  EXPECT_EQ(R.Stats.Executions, 37u);
  EXPECT_TRUE(R.Stats.ExecutionCapHit);
}

TEST(Explorer, StatefulPruningFindsExactStateCount) {
  // Two writers of distinct values to distinct variables: reachable
  // states are the 4 combinations of (x set?, y set?) crossed with thread
  // liveness; the precise count matters less than pruned < unpruned
  // executions and identical distinct-state counts.
  TestProgram P;
  P.Name = "xy";
  P.Body = [] {
    auto X = std::make_shared<Atomic<int>>(0, "x");
    auto Y = std::make_shared<Atomic<int>>(0, "y");
    Runtime::current().setStateExtractor(
        [X, Y] { return uint64_t(X->raw()) * 2 + uint64_t(Y->raw()); });
    TestThread A([X] { X->store(1); }, "a");
    TestThread B([Y] { Y->store(1); }, "b");
    A.join();
    B.join();
  };
  CheckerOptions Full;
  Full.TrackCoverage = true;
  CheckResult R1 = check(P, Full);

  CheckerOptions Pruned = Full;
  Pruned.StatefulPruning = true;
  CheckResult R2 = check(P, Pruned);

  EXPECT_EQ(R1.Stats.DistinctStates, R2.Stats.DistinctStates)
      << "stateful pruning must not lose states";
  EXPECT_LE(R2.Stats.Transitions, R1.Stats.Transitions)
      << "pruning must not do more work than the full search";
  EXPECT_GT(R2.Stats.PrunedExecutions, 0u);
}

TEST(Explorer, TimeBudgetStopsSearch) {
  // An effectively unbounded search must stop on the time budget.
  TestProgram P = independentWriters(6);
  CheckerOptions O;
  O.TimeBudgetSeconds = 0.05;
  CheckResult R = check(P, O);
  EXPECT_TRUE(R.Stats.TimedOut || R.Stats.SearchExhausted);
}

TEST(Explorer, MaxDepthTracksLongestExecution) {
  CheckResult R = check(independentWriters(2), CheckerOptions());
  // main start + 2 spawduled starts/stores + joins: at least 5.
  EXPECT_GE(R.Stats.MaxDepth, 5u);
}

TEST(Explorer, NondeterministicProgramIsDiagnosed) {
  // A program whose choice structure changes across executions (here via
  // state smuggled across runs) breaks stateless replay. The explorer
  // retries the mismatching prefix DivergenceRetries times, then discards
  // it as a counted divergence and finishes the search -- never a bug
  // verdict, never a halt (docs/ROBUSTNESS.md).
  auto RunCounter = std::make_shared<int>(0);
  TestProgram P;
  P.Name = "nondet";
  P.Body = [RunCounter] {
    int Runs = (*RunCounter)++;
    // Arity varies between the first execution and its replays.
    (void)Runtime::current().chooseInt(Runs == 0 ? 2 : 3);
    (void)Runtime::current().chooseInt(2);
  };
  CheckResult R = check(P, CheckerOptions());
  EXPECT_EQ(R.Kind, Verdict::Pass);
  EXPECT_FALSE(R.foundBug());
  EXPECT_EQ(R.Stats.Executions, 1u) << "only the first execution replays";
  EXPECT_EQ(R.Stats.Divergences, 1u);
  EXPECT_EQ(R.Stats.DivergenceRetries, 3u) << "default retry budget";
  EXPECT_TRUE(R.Stats.SearchExhausted)
      << "a divergent subtree is discarded, not fatal";
}

TEST(Explorer, TableOneCountersPopulated) {
  CheckResult R = check(independentWriters(3), CheckerOptions());
  EXPECT_EQ(R.Stats.MaxThreads, 4);
  EXPECT_GT(R.Stats.MaxSyncOps, 0u);
}

namespace {
/// Objects alive on test-thread stacks, across every execution of a search.
int LiveGuards = 0;
struct CountedGuard {
  CountedGuard() { ++LiveGuards; }
  ~CountedGuard() { --LiveGuards; }
  CountedGuard(const CountedGuard &) = delete;
  CountedGuard &operator=(const CountedGuard &) = delete;
};
} // namespace

TEST(Explorer, CutExecutionsUnwindTheirThreads) {
  // u waits for a value nobody stores, so every execution is cut at the
  // depth bound with objects alive on the stacks of main and of the
  // children that have started. The cut must destroy them, whether the
  // runtime is recycled or rebuilt per execution.
  TestProgram P;
  P.Name = "guarded-spin";
  P.Body = [] {
    CountedGuard MainGuard;
    auto X = std::make_shared<Atomic<int>>(0, "x");
    TestThread T([X] {
      CountedGuard G;
      X->store(1);
    }, "t");
    TestThread U([X] {
      CountedGuard G;
      while (X->load() != 2)
        yieldNow();
    }, "u");
    T.join();
    U.join();
  };
  for (bool Reuse : {true, false}) {
    SCOPED_TRACE(Reuse ? "reuse on" : "reuse off");
    CheckerOptions O;
    O.Fair = false;
    O.DepthBound = 12;
    O.RandomTail = false;
    O.DetectDivergence = false;
    O.ReuseExecutionState = Reuse;
    CheckResult R = check(P, O);
    EXPECT_TRUE(R.Stats.SearchExhausted);
    EXPECT_GT(R.Stats.NonterminatingExecutions, 10u);
    EXPECT_EQ(R.Stats.NonterminatingExecutions, R.Stats.Executions);
    EXPECT_EQ(LiveGuards, 0);
  }
}

namespace {
CheckerOptions cutAt(uint64_t DepthBound, bool Reuse) {
  CheckerOptions O;
  O.Fair = false;
  O.DepthBound = DepthBound;
  O.RandomTail = false;
  O.DetectDivergence = false;
  O.ReuseExecutionState = Reuse;
  return O;
}

/// An object whose destructor has an effect, so a frame holding one has
/// a cleanup in its exception table.
int Destructions = 0;
struct Destructible {
  ~Destructible() { ++Destructions; }
};

/// Stores 1..\p N into \p X, each under a lock_guard of \p M. Not
/// inlined, so its caller's frame holds what the caller has to destroy
/// and this frame holds the noexcept ~lock_guard.
[[gnu::noinline]] void storeUnderGuard(Mutex &M, Atomic<int> &X, int N) {
  for (int I = 0; I < N; ++I) {
    std::lock_guard<Mutex> L(M);
    CountedGuard G;
    X.store(I + 1);
  }
}
} // namespace

TEST(Explorer, CutsInsideLockGuardsUnwindSafely) {
  // Every depth bound up to the program's length cuts each thread at each
  // of its operations: at the lock in a guard's constructor, at the store
  // with the guard held (the unwinding runs ~lock_guard, whose unlock must
  // do nothing), and at the unlock inside ~lock_guard, which is noexcept
  // and so must not be unwound by an exception, although D has a
  // destructor to run in the frame above.
  TestProgram P;
  P.Name = "lock-guards";
  P.Body = [] {
    CountedGuard MainGuard;
    auto M = std::make_shared<Mutex>("m");
    auto X = std::make_shared<Atomic<int>>(0, "x");
    auto Body = [M, X] {
      Destructible D;
      storeUnderGuard(*M, *X, 2);
    };
    TestThread T(Body, "t");
    TestThread U(Body, "u");
    T.join();
    U.join();
  };
  for (bool Reuse : {true, false}) {
    SCOPED_TRACE(Reuse ? "reuse on" : "reuse off");
    for (uint64_t Db = 1; Db <= 16; ++Db) {
      CheckResult R = check(P, cutAt(Db, Reuse));
      EXPECT_TRUE(R.Stats.SearchExhausted) << "db=" << Db;
      EXPECT_FALSE(R.foundBug()) << "db=" << Db;
      EXPECT_EQ(LiveGuards, 0) << "db=" << Db;
    }
  }
}

TEST(Explorer, BugFoundInsideLockGuardIsReported) {
  // u fails exactly when t is parked at the unlock inside ~lock_guard, so
  // the search that reports the bug leaves t parked there.
  TestProgram P;
  P.Name = "lock-guard-bug";
  P.Body = [] {
    auto M = std::make_shared<Mutex>("m");
    auto X = std::make_shared<Atomic<int>>(0, "x");
    TestThread T([M, X] {
      Destructible D;
      storeUnderGuard(*M, *X, 1);
    }, "t");
    TestThread U([M, X] {
      checkThat(!(X->load() == 1 && M->isHeld()), "t is inside ~lock_guard");
    }, "u");
    T.join();
    U.join();
  };
  for (bool Reuse : {true, false}) {
    SCOPED_TRACE(Reuse ? "reuse on" : "reuse off");
    CheckerOptions O;
    O.ReuseExecutionState = Reuse;
    CheckResult R = check(P, O);
    EXPECT_TRUE(R.foundBug());
    EXPECT_EQ(R.Kind, Verdict::SafetyViolation);
  }
}

namespace {
/// Reports a bug when it is destroyed, from inside its noexcept destructor.
struct FailsOnDestruction {
  ~FailsOnDestruction() { checkThat(false, "destroyed"); }
};
} // namespace

TEST(Explorer, BugFoundInADestructorIsReported) {
  // t fails inside a destructor while u is still running, so the search
  // ends with t parked in a noexcept frame.
  TestProgram P;
  P.Name = "destructor-bug";
  P.Body = [] {
    auto X = std::make_shared<Atomic<int>>(0, "x");
    TestThread T([] { FailsOnDestruction F; }, "t");
    TestThread U([X] {
      while (X->load() == 0)
        yieldNow();
    }, "u");
    T.join();
    U.join();
  };
  for (bool Reuse : {true, false}) {
    SCOPED_TRACE(Reuse ? "reuse on" : "reuse off");
    CheckerOptions O;
    O.ReuseExecutionState = Reuse;
    CheckResult R = check(P, O);
    EXPECT_EQ(R.Kind, Verdict::SafetyViolation);
  }
}

namespace {
/// main, with a guard, joins two threads running \p Body. A thread left
/// parked keeps its stack, so \p Body takes nothing that owns memory.
TestProgram guardedJoin(std::function<void(Atomic<int> &)> Body) {
  TestProgram P;
  P.Name = "guarded-join";
  P.Body = [Body] {
    CountedGuard MainGuard;
    auto X = std::make_shared<Atomic<int>>(0, "x");
    TestThread T([Body, X] { Body(*X); }, "t");
    TestThread U([Body, X] { Body(*X); }, "u");
    T.join();
    U.join();
  };
  return P;
}

void expectEveryExecutionCut(const TestProgram &P) {
  for (bool Reuse : {true, false}) {
    SCOPED_TRACE(Reuse ? "reuse on" : "reuse off");
    CheckResult R = check(P, cutAt(12, Reuse));
    EXPECT_TRUE(R.Stats.SearchExhausted);
    EXPECT_FALSE(R.foundBug());
    EXPECT_GT(R.Stats.NonterminatingExecutions, 10u);
    EXPECT_EQ(R.Stats.NonterminatingExecutions, R.Stats.Executions);
    EXPECT_EQ(LiveGuards, 0);
  }
}
} // namespace

TEST(Explorer, CutThreadsInsideCatchClausesAreLeft) {
  // The threads are cut inside a try block whose catch (...) would
  // swallow the unwinding. Thrown into, a thread would run on into a loop
  // whose loads no longer park, and never return; it must be left parked.
  expectEveryExecutionCut(guardedJoin([](Atomic<int> &X) {
    try {
      while (X.load() != 2)
        yieldNow();
    } catch (...) {
    }
    while (X.load() != 2)
      yieldNow();
  }));
}

TEST(Explorer, CutNoexceptThreadBodiesAreLeft) {
  // A throw into a noexcept body would terminate the process, also when
  // the body holds an object to destroy. (In a build instrumented by
  // GCC's ThreadSanitizer the exception tables hide noexcept frames, and
  // this test fails; README.md, "How an execution works".)
  expectEveryExecutionCut(
      guardedJoin([](Atomic<int> &X) noexcept {
        Destructible D;
        while (X.load() != 2)
          yieldNow();
      }));
}
