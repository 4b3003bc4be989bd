//===- tests/paper/Section43Test.cpp --------------------------------------===//
//
// Section 4.3 of the paper pinned at the configurations EXPERIMENTS.md
// reports: the liveness violations fair stateless model checking finds,
// with the executions to each finding. A thread scheduled persistently
// without yielding is a good-samaritan violation (Figure 7's worker-pool
// shutdown spin); a fair divergence in which every thread scheduled in
// the limit also yields is a livelock (Figure 1's dining philosophers).
// tests/core/LivenessTest.cpp pins the other §4.3 searches: Figure 7
// under a context bound, Figure 8's Promise livelock and the repaired
// programs.
//
// The counts are hardware-independent: the fair DFS visits executions in
// one deterministic order, so a change to the scheduler, the explorer or
// divergence detection that moves any of them fails here.
//
//===----------------------------------------------------------------------===//

#include "core/Checker.h"
#include "workloads/DiningPhilosophers.h"
#include "workloads/WorkerGroup.h"

#include <gtest/gtest.h>

#include <string>

using namespace fsmc;

namespace {

std::string message(const CheckResult &R) {
  return R.Bug ? R.Bug->Message : std::string();
}

bool mentions(const CheckResult &R, const std::string &Needle) {
  return message(R).find(Needle) != std::string::npos;
}

} // namespace

// Figure 7 under the fair unbounded DFS with a good-samaritan bound of
// 1000: the shutdown loop spins without yielding once the other workers
// have exited. This is the performance ledger's wg_gs1000 search.
TEST(Section43, Fig7UnderTheLedgerBoundTakes3023Executions) {
  CheckerOptions O;
  O.GoodSamaritanBound = 1000;
  CheckResult R = check(makeWorkerGroupProgram(WorkerGroupConfig()), O);
  EXPECT_EQ(R.Kind, Verdict::GoodSamaritanViolation);
  EXPECT_TRUE(mentions(R, "without yielding")) << message(R);
  EXPECT_EQ(R.Stats.Executions, 3023u);
}

// Figure 1: two philosophers who try-lock and back off can cycle forever
// with both yielding. Only the unbounded fair search sustains the cycle
// (each lap costs preemptions under a context bound).
TEST(Section43, Fig1DiningTryLockRetryIsALivelock) {
  DiningConfig C;
  C.Philosophers = 2;
  C.Kind = DiningConfig::Variant::TryLockRetry;
  CheckerOptions O;
  O.ExecutionBound = 300;
  CheckResult R = check(makeDiningProgram(C), O);
  EXPECT_EQ(R.Kind, Verdict::Livelock);
  EXPECT_TRUE(mentions(R, "livelock: fair nonterminating execution"))
      << message(R);
  EXPECT_EQ(R.Stats.Executions, 2789u);
}
