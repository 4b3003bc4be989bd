//===- tests/core/ReplayStressTest.cpp ------------------------------------===//
//
// Replay-determinism stress: the CHESS contract is that a recorded
// schedule is a total repro -- same verdict, same failing step, every
// time, from any entry point. We hammer that with 100 random-walk seeds
// over a racy program: every bug trace found is serialized via
// core/Schedule, preloaded back into a fresh Explorer, and must
// reproduce the identical verdict and step count. Random walks are the
// adversarial case because their schedules carry non-backtrackable
// (`r`-suffixed) choices that replay must honor verbatim.
//
//===----------------------------------------------------------------------===//

#include "core/Explorer.h"
#include "core/Schedule.h"
#include "runtime/Runtime.h"
#include "sync/Atomic.h"
#include "sync/TestThread.h"
#include "workloads/DiningPhilosophers.h"
#include "workloads/WorkerGroup.h"

#include <gtest/gtest.h>
#include <memory>

using namespace fsmc;

namespace {

/// The classic lost-update race: both threads read-modify-write X
/// non-atomically, so many interleavings drop an increment.
TestProgram makeRaceProgram() {
  TestProgram P;
  P.Name = "replay-stress-race";
  P.Body = [] {
    auto X = std::make_shared<Atomic<int>>(0, "x");
    auto Bump = [X] { X->store(X->load() + 1); };
    TestThread A(Bump, "a");
    TestThread B(Bump, "b");
    A.join();
    B.join();
    checkThat(X->raw() == 2, "lost update");
  };
  return P;
}

} // namespace

TEST(ReplayStress, HundredRandomSeedsReplayExactly) {
  TestProgram P = makeRaceProgram();
  int BugsFound = 0;

  for (uint64_t Seed = 1; Seed <= 100; ++Seed) {
    SCOPED_TRACE("seed=" + std::to_string(Seed));
    CheckerOptions Find;
    Find.Kind = SearchKind::RandomWalk;
    Find.Seed = Seed;
    Find.MaxExecutions = 50;
    CheckResult R = check(P, Find);
    if (!R.foundBug())
      continue;
    ++BugsFound;
    ASSERT_TRUE(R.Bug.has_value());
    ASSERT_FALSE(R.Bug->Schedule.empty());

    // Preload the recorded trace into a fresh Explorer and run exactly
    // one execution; the walk's randomness must be fully captured by
    // the schedule, so the seed is irrelevant on replay.
    std::vector<ScheduleChoice> Choices;
    ASSERT_TRUE(decodeSchedule(R.Bug->Schedule, Choices));
    CheckerOptions ReplayOpts;
    ReplayOpts.MaxExecutions = 1;
    ReplayOpts.Seed = Seed + 1;
    Explorer E(P, ReplayOpts);
    E.preloadSchedule(Choices);
    CheckResult Replay = E.run();

    ASSERT_EQ(Replay.Kind, R.Kind);
    ASSERT_TRUE(Replay.Bug.has_value());
    EXPECT_EQ(Replay.Bug->AtStep, R.Bug->AtStep);
    EXPECT_EQ(Replay.Bug->Message, R.Bug->Message);
    EXPECT_EQ(Replay.Stats.Executions, 1u);

    // The public replay entry point must agree with the raw preload.
    CheckResult Public = replaySchedule(P, ReplayOpts, R.Bug->Schedule);
    EXPECT_EQ(Public.Kind, R.Kind);
    EXPECT_EQ(Public.Bug->AtStep, R.Bug->AtStep);
  }

  // The race fires in most interleavings; if the walks stopped finding
  // it, the generator (or the schedule recorder) regressed.
  EXPECT_GE(BugsFound, 50) << "random walks found too few bugs to make "
                              "the replay stress meaningful";
}

TEST(ReplayStress, DfsBugSchedulesReplayAcrossSeeds) {
  // Same determinism check for backtracking search: the recorded
  // schedule alone pins the execution, whatever seed the replaying
  // checker carries.
  TestProgram P = makeRaceProgram();
  CheckerOptions Find;
  CheckResult R = check(P, Find);
  ASSERT_EQ(R.Kind, Verdict::SafetyViolation);
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    CheckerOptions ReplayOpts;
    ReplayOpts.Seed = Seed * 977;
    CheckResult Replay = replaySchedule(P, ReplayOpts, R.Bug->Schedule);
    ASSERT_EQ(Replay.Kind, R.Kind) << "seed " << Seed;
    EXPECT_EQ(Replay.Bug->AtStep, R.Bug->AtStep);
    // The search renders its report from the trace it kept across
    // executions; a replay records every step afresh. Equal text means
    // the search's trace prefix was not stale.
    EXPECT_EQ(Replay.Bug->TraceText, R.Bug->TraceText);
  }
}

TEST(ReplayStress, PorSchedulesReplayByteIdentically) {
  // A schedule recorded under --por=on carries sleep masks (the s<hex>
  // suffix, core/Schedule.h) and indexes its choices into the
  // sleep-filtered candidate set, so it is replayed under --por=on.
  // Replay must reproduce the bug at the same step AND re-record the
  // byte-identical schedule string: the recomputed sleep state validates
  // against every recorded mask along the path.
  TestProgram P = makeRaceProgram();
  CheckerOptions Find;
  Find.Por = true;
  CheckResult R = check(P, Find);
  ASSERT_EQ(R.Kind, Verdict::SafetyViolation);
  ASSERT_TRUE(R.Bug.has_value());
  ASSERT_NE(R.Bug->Schedule.find('s'), std::string::npos)
      << "expected at least one recorded sleep mask in " << R.Bug->Schedule;

  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    CheckerOptions ReplayOpts;
    ReplayOpts.Por = true;
    ReplayOpts.Seed = Seed * 977;
    CheckResult Replay = replaySchedule(P, ReplayOpts, R.Bug->Schedule);
    ASSERT_EQ(Replay.Kind, R.Kind) << "seed " << Seed;
    ASSERT_TRUE(Replay.Bug.has_value());
    EXPECT_EQ(Replay.Bug->AtStep, R.Bug->AtStep);
    EXPECT_EQ(Replay.Bug->Message, R.Bug->Message);
    EXPECT_EQ(Replay.Bug->Schedule, R.Bug->Schedule)
        << "replay re-recorded a different schedule";
    EXPECT_EQ(Replay.Bug->TraceText, R.Bug->TraceText);
  }
}

TEST(ReplayStress, DivergenceVerdictsReplayWithIdenticalText) {
  // A divergence verdict is classified from the whole trace of the
  // execution that hit the bound (LivenessMonitor::classifyDivergence),
  // and a good-samaritan violation names the spinning thread. Both come
  // from deep executions that mostly replay an earlier one, so a stale
  // trace prefix would show up in the message or the rendered trace.
  DiningConfig C;
  C.Philosophers = 2;
  C.Kind = DiningConfig::Variant::TryLockRetry;
  CheckerOptions Livelock;
  Livelock.ExecutionBound = 300;
  CheckerOptions Spin;
  Spin.GoodSamaritanBound = 1000;
  struct Case {
    TestProgram P;
    CheckerOptions O;
    Verdict Expected;
  } Cases[] = {
      {makeDiningProgram(C), Livelock, Verdict::Livelock},
      {makeWorkerGroupProgram(WorkerGroupConfig()), Spin,
       Verdict::GoodSamaritanViolation},
  };
  for (const Case &K : Cases) {
    SCOPED_TRACE(K.P.Name);
    CheckResult R = check(K.P, K.O);
    ASSERT_EQ(R.Kind, K.Expected);
    ASSERT_TRUE(R.Bug.has_value());
    CheckResult Replay = replaySchedule(K.P, K.O, R.Bug->Schedule);
    ASSERT_EQ(Replay.Kind, R.Kind);
    ASSERT_TRUE(Replay.Bug.has_value());
    EXPECT_EQ(Replay.Bug->AtStep, R.Bug->AtStep);
    EXPECT_EQ(Replay.Bug->Message, R.Bug->Message);
    EXPECT_EQ(Replay.Bug->TraceText, R.Bug->TraceText);
  }
}

TEST(ReplayStress, PorScheduleUnderWrongModeIsDivergenceNotBug) {
  // Replaying a masked schedule with POR off changes the candidate
  // numbering the recorded indices assume. The engine must classify the
  // mismatch as a divergence (a checker-side limitation), never
  // misattribute it as a workload verdict.
  TestProgram P = makeRaceProgram();
  CheckerOptions Find;
  Find.Por = true;
  CheckResult R = check(P, Find);
  ASSERT_EQ(R.Kind, Verdict::SafetyViolation);

  CheckerOptions ReplayOpts; // Por left off.
  CheckResult Replay = replaySchedule(P, ReplayOpts, R.Bug->Schedule);
  EXPECT_TRUE(Replay.Kind == Verdict::Divergence ||
              Replay.Kind == Verdict::SafetyViolation)
      << "wrong-mode replay produced " << verdictName(Replay.Kind);
}
