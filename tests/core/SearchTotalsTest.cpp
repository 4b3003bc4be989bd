//===- tests/core/SearchTotalsTest.cpp ------------------------------------===//
//
// The one merge every engine shares (core/SearchTotals.h): which bug wins,
// how races from several parts count, what a checkpoint carries and how
// the final result reads. The engine parity suites check these rules end
// to end; this suite pins each one on hand-built parts.
//
//===----------------------------------------------------------------------===//

#include "core/SearchTotals.h"

#include "core/Checkpoint.h"
#include "core/Schedule.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace fsmc;

namespace {

BugReport bugAt(const std::string &Schedule) {
  BugReport B;
  B.Kind = Verdict::SafetyViolation;
  B.Message = "bug at " + Schedule;
  B.Schedule = Schedule;
  return B;
}

BugReport race(const std::string &Message) {
  BugReport B;
  B.Kind = Verdict::DataRace;
  B.Message = Message;
  return B;
}

/// A part that ran \p Executions executions and found \p Races.
CheckResult part(uint64_t Executions, std::vector<BugReport> Races) {
  CheckResult R;
  R.Stats.Executions = Executions;
  R.Stats.RacesFound = Races.size();
  R.Incidents = std::move(Races);
  return R;
}

std::vector<std::string> messages(const std::vector<BugReport> &Bs) {
  std::vector<std::string> M;
  for (const BugReport &B : Bs)
    M.push_back(B.Message);
  return M;
}

const std::vector<uint64_t> NoStates;

} // namespace

TEST(SearchTotals, BestBugIsDfsSmallestInAnyOfferOrder) {
  std::vector<std::string> Schedules = {"fsmc1:1/2;0/2", "fsmc1:0/2;1/2;1/3",
                                        "fsmc1:0/2;1/2;0/3", "fsmc1:1/2"};
  std::sort(Schedules.begin(), Schedules.end());
  do {
    SearchTotals T{CheckerOptions()};
    for (const std::string &S : Schedules)
      T.offerBug(bugAt(S));
    ASSERT_TRUE(T.bug());
    EXPECT_EQ(T.bug()->Schedule, "fsmc1:0/2;1/2;0/3");
    EXPECT_EQ(T.bestKey(), (std::vector<int>{0, 1, 0}));
  } while (std::next_permutation(Schedules.begin(), Schedules.end()));
}

TEST(SearchTotals, AncestorSortsBeforeItsExtensions) {
  EXPECT_TRUE(dfsBefore({0, 1}, {0, 1, 0}));
  EXPECT_FALSE(dfsBefore({0, 1, 0}, {0, 1}));
  EXPECT_FALSE(dfsBefore({0, 1}, {0, 1}));
  EXPECT_TRUE(dfsBefore({0, 1, 5}, {1}));

  SearchTotals T{CheckerOptions()};
  EXPECT_TRUE(T.offerBug(bugAt("fsmc1:0/2;1/2;0/2")));
  EXPECT_TRUE(T.offerBug(bugAt("fsmc1:0/2;1/2")));
  EXPECT_FALSE(T.offerBug(bugAt("fsmc1:0/2;1/2;0/2")));
  EXPECT_EQ(T.bug()->Schedule, "fsmc1:0/2;1/2");

  // First-bug pruning: the best bug's own path and everything after it
  // cannot improve the report; an ancestor of it still can.
  EXPECT_TRUE(T.afterBest({0, 1}));
  EXPECT_TRUE(T.afterBest({0, 1, 1}));
  EXPECT_TRUE(T.afterBest({1}));
  EXPECT_FALSE(T.afterBest({0}));
  EXPECT_FALSE(T.afterBest({0, 0, 1}));
}

TEST(SearchTotals, RandomWalkKeepsItsFirstBug) {
  CheckerOptions O;
  O.Kind = SearchKind::RandomWalk;
  SearchTotals T(O);
  EXPECT_FALSE(T.afterBest({0}));
  EXPECT_TRUE(T.offerBug(bugAt("fsmc1:1/2;1/2")));
  EXPECT_FALSE(T.offerBug(bugAt("fsmc1:0/2")));
  EXPECT_EQ(T.bug()->Schedule, "fsmc1:1/2;1/2");
  // A random walk has no DFS order: any path is past its first bug.
  EXPECT_TRUE(T.afterBest({0}));
}

TEST(SearchTotals, RaceFromTwoMergedWorkersCountsOnce) {
  CheckerOptions O;
  O.Races = RaceCheckMode::On;
  SearchTotals Shared(O);
  SearchTotals W1(O), W2(O);
  EXPECT_EQ(W1.add(part(3, {race("race b"), race("race a")}), NoStates), 2u);
  EXPECT_EQ(W2.add(part(4, {race("race a")}), NoStates), 1u);
  EXPECT_EQ(W2.add(part(1, {race("race c"), race("race a")}), NoStates), 1u);
  Shared.merge(std::move(W2));
  Shared.merge(std::move(W1));

  CheckResult R = Shared.finish(false, false, false, 0);
  EXPECT_EQ(R.Stats.Executions, 8u);
  EXPECT_EQ(R.Stats.RacesFound, 3u);
  EXPECT_EQ(messages(R.Incidents),
            (std::vector<std::string>{"race a", "race b", "race c"}));
}

TEST(SearchTotals, CrashIncidentsLeadInArrivalOrder) {
  SearchTotals T{CheckerOptions()};
  T.add(part(2, {race("race z")}), NoStates);
  T.addCrash(Verdict::Hang, "hung", "fsmc1:1/2");
  T.add(part(3, {}), NoStates);
  T.addCrash(Verdict::Crash, "died", "fsmc1:0/2");
  CheckResult R = T.finish(false, false, false, 0);
  EXPECT_EQ(messages(R.Incidents),
            (std::vector<std::string>{"hung", "died", "race z"}));
  EXPECT_EQ(R.Incidents[0].AtExecution, 2u);
  EXPECT_EQ(R.Incidents[1].AtExecution, 5u);
  EXPECT_EQ(R.Stats.Hangs, 1u);
  EXPECT_EQ(R.Stats.Crashes, 1u);
}

TEST(SearchTotals, CheckpointCarriesFrontierBugStatesAndRaceBase) {
  CheckerOptions O;
  O.Races = RaceCheckMode::On;
  CheckpointState From;
  From.Stats.Executions = 10;
  From.Stats.RacesFound = 2;
  From.Stats.TimedOut = true; // a run flag: never carried over
  From.States = {9, 3};
  SearchTotals T(O, &From);

  CheckResult P = part(5, {race("race x"), race("race y"), race("race x")});
  std::vector<uint64_t> PartStates = {7, 3, 1};
  EXPECT_EQ(T.add(P, PartStates), 2u);
  T.offerBug(bugAt("fsmc1:1/3"));

  std::vector<CheckpointUnit> Frontier = {{{{2, 3}}, 1}};
  std::shared_ptr<CheckpointState> CK = T.checkpoint(Frontier, 42);
  ASSERT_EQ(CK->Frontier.size(), 1u);
  EXPECT_EQ(CK->Frontier[0].FrozenLen, 1u);
  ASSERT_EQ(CK->Frontier[0].Prefix.size(), 1u);
  EXPECT_EQ(CK->Frontier[0].Prefix[0].Chosen, 2);
  EXPECT_EQ(CK->Rng, 42u);
  ASSERT_TRUE(CK->Bug);
  EXPECT_EQ(CK->Bug->Schedule, "fsmc1:1/3");
  EXPECT_EQ(CK->States, (std::vector<uint64_t>{1, 3, 7, 9}));
  EXPECT_EQ(CK->Stats.DistinctStates, 4u);
  EXPECT_EQ(CK->Stats.Executions, 15u);
  EXPECT_EQ(CK->Stats.RacesFound, 2u + 2u);
  EXPECT_FALSE(CK->Stats.TimedOut);
}

TEST(SearchTotals, FinishLeavesExhaustedClearOnFirstBugStop) {
  {
    SearchTotals T{CheckerOptions()};
    T.add(part(4, {}), NoStates);
    EXPECT_TRUE(T.finish(false, false, false, 0).Stats.SearchExhausted);
  }
  {
    SearchTotals T{CheckerOptions()};
    T.add(part(4, {}), NoStates);
    T.offerBug(bugAt("fsmc1:0/2"));
    CheckResult R = T.finish(false, false, false, 0);
    EXPECT_FALSE(R.Stats.SearchExhausted);
    EXPECT_EQ(R.Kind, Verdict::SafetyViolation);
    ASSERT_TRUE(R.Bug);
    EXPECT_EQ(R.Bug->Schedule, "fsmc1:0/2");
  }
  {
    // Without StopOnFirstBug the search runs on past its bug.
    CheckerOptions O;
    O.StopOnFirstBug = false;
    SearchTotals T(O);
    T.offerBug(bugAt("fsmc1:0/2"));
    EXPECT_TRUE(T.finish(false, false, false, 0).Stats.SearchExhausted);
  }
  {
    SearchTotals T{CheckerOptions()};
    EXPECT_FALSE(T.finish(true, false, false, 0).Stats.SearchExhausted);
  }
}

TEST(SearchTotals, NothingReplayedIsADivergence) {
  SearchTotals T{CheckerOptions()};
  CheckResult P;
  P.Stats.Divergences = 1;
  T.add(P, NoStates);
  EXPECT_EQ(T.finish(false, false, false, 0).Kind, Verdict::Divergence);
}
