//===- tests/runtime/RuntimeDriverTest.cpp --------------------------------===//
//
// The in-place scheduler (runtime/Runtime.h, ChoiceSource::onParked):
// with the Explorer deciding at each schedule point, a thread the
// scheduler picks again keeps running on its own stack, flush agents
// commit in place, and only a change of thread, a thread exit or the end
// of an execution switches to the controller. These tests count those switches, through
// Runtime::controllerEntries(), on searches the Explorer drives; the
// programs read the count from inside, at the end of their main thread.
//
//===----------------------------------------------------------------------===//

#include "core/Explorer.h"
#include "obs/Explain.h"
#include "runtime/Runtime.h"
#include "sync/Atomic.h"
#include "sync/Semaphore.h"
#include "sync/TestThread.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace fsmc;

namespace {

/// Data choices always 0, and the default onParked: every decision is
/// the controller's, so the test steps by hand.
class FixedChoices : public ChoiceSource {
public:
  int chooseInt(int) override { return 0; }
};

/// What the main thread saw just before it returned.
struct AtBodyEnd {
  uint64_t Entries = 0;
  uint64_t Ops = 0;

  void record() {
    Runtime &RT = Runtime::current();
    Entries = RT.controllerEntries();
    Ops = RT.syncOpCount();
  }
};

/// One thread, \p Ops visible stores, no other enabled thread ever.
TestProgram oneThread(int Ops, AtBodyEnd &End) {
  return {"one_thread", [Ops, &End] {
            Atomic<int> X(0, "x");
            for (int I = 0; I < Ops; ++I)
              X.store(I);
            End.record();
          }};
}

} // namespace

TEST(RuntimeDriver, OneThreadNeverEntersTheController) {
  AtBodyEnd End;
  CheckResult R = check(oneThread(1000, End), CheckerOptions());
  EXPECT_EQ(R.Kind, Verdict::Pass);
  EXPECT_EQ(R.Stats.Executions, 1u);
  EXPECT_EQ(End.Ops, 1000u);
  // The controller stepped thread 0 once; every schedule point picked it
  // again in place. Its exit is the first and only controller entry.
  EXPECT_EQ(End.Entries, 0u);
  EXPECT_EQ(R.Stats.Transitions, 1001u);
}

TEST(RuntimeDriver, WithoutADriverEveryStepIsARoundTrip) {
  AtBodyEnd End;
  FixedChoices C;
  Runtime RT(C);
  RT.start(oneThread(1000, End).Body);
  uint64_t Steps = 0;
  while (!RT.liveSet().empty()) {
    RT.step(0);
    ++Steps;
  }
  EXPECT_EQ(Steps, 1001u);
  EXPECT_EQ(End.Entries, 1000u);
  EXPECT_EQ(RT.controllerEntries(), Steps);
}

TEST(RuntimeDriver, PingPongEntersOncePerThreadChange) {
  // Two threads hand a token back and forth through two semaphores, so
  // the schedule is nearly forced and the thread changes every few
  // transitions.
  AtBodyEnd End;
  TestProgram P{"ping_pong", [&End] {
                  Semaphore Ping(0, "ping"), Pong(0, "pong");
                  TestThread Child(
                      [&] {
                        for (int I = 0; I < 50; ++I) {
                          Ping.wait();
                          Pong.post();
                        }
                      },
                      "child");
                  for (int I = 0; I < 50; ++I) {
                    Ping.post();
                    Pong.wait();
                  }
                  Child.join();
                  End.record();
                }};
  CheckerOptions O;
  O.MaxExecutions = 1;
  obs::ExplainLog Log;
  Explorer E(P, O);
  E.setExplainLog(&Log);
  CheckResult R = E.run();
  EXPECT_EQ(R.Kind, Verdict::Pass);
  ASSERT_EQ(R.Stats.Executions, 1u);

  uint64_t Changes = 0;
  for (size_t I = 1; I < Log.Steps.size(); ++I)
    Changes += Log.Steps[I].Thread != Log.Steps[I - 1].Thread;
  // Main's last transition is the one that records, so every change of
  // thread is behind it; each cost one entry: a handoff, or the child's
  // exit before main's final run.
  EXPECT_GE(Changes, 100u);
  EXPECT_EQ(End.Entries, Changes);
  EXPECT_LT(End.Entries, uint64_t(Log.Steps.size()));
}

TEST(RuntimeDriver, FlushAgentsCommitInPlaceUnderTso) {
  // One thread storing under tso: its flush agent competes with it at
  // every step, and the fair DFS explores each place a commit can land.
  // Every decision names the thread or its agent, so the main thread
  // never hands off to the controller, however many commits ran.
  uint64_t MaxEntries = 0, MaxFlushes = 0, Executions = 0;
  TestProgram P{"tso_stores", [&] {
                  Atomic<int> X(0, "x"), Y(0, "y");
                  X.store(1);
                  Y.store(2);
                  X.store(3);
                  // A last schedule point, so the third store can commit
                  // before the count is read.
                  (void)Y.load();
                  Runtime &RT = Runtime::current();
                  MaxEntries = std::max(MaxEntries, RT.controllerEntries());
                  MaxFlushes = std::max(MaxFlushes, RT.storeFlushCount());
                  ++Executions;
                  // Commit what is left while X and Y are still alive.
                  fence();
                }};
  CheckerOptions O;
  O.Memory = MemoryModel::Tso;
  CheckResult R = check(P, O);
  EXPECT_EQ(R.Kind, Verdict::Pass);
  EXPECT_TRUE(R.Stats.SearchExhausted);
  EXPECT_GT(R.Stats.Executions, 1u);
  EXPECT_EQ(Executions, R.Stats.Executions);
  EXPECT_GT(R.Stats.StoreFlushes, 0u);
  EXPECT_EQ(MaxFlushes, 3u); // Some execution flushed everything in place.
  EXPECT_EQ(MaxEntries, 0u);
}
