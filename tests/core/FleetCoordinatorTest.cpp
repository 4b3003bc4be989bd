//===- tests/core/FleetCoordinatorTest.cpp --------------------------------===//
//
// The fleet's decisions without its processes (core/FleetCoordinator.h):
// each test drives a FleetCoordinator with hand-made events on a fake
// clock and checks the actions it queues and the leases and totals it
// keeps -- idle-worker Stops, round-robin service, garbled commits, the
// recovery ladder, drains, isolation's crash attribution through a faked
// probe, and the checkpoint barrier. The worker's reading of its control
// records (WorkerCtl) is fed framed bytes the same way. Nothing here
// forks.
//
//===----------------------------------------------------------------------===//

#include "core/Checkpoint.h"
#include "core/FleetCoordinator.h"
#include "support/Xorshift.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

using namespace fsmc;
using wire::WireWriter;

namespace {

CheckerOptions fleetOpts(int Width) {
  CheckerOptions O;
  O.FleetWorkers = Width;
  O.BatchSize = 8;
  O.StopOnFirstBug = false;
  return O;
}

/// The unit whose one frozen choice is \p Chosen of four: units built
/// this way lease in the order of \p Chosen.
CheckpointUnit leaf(int Chosen) { return {{{Chosen, 4, true, 0, 0}}, 1}; }

/// A coordinator whose workers all spawned, resumed from \p Frontier (the
/// whole tree when empty), with a crash probe that records its calls and
/// answers ProbeAnswer.
struct Rig {
  CheckerOptions Opts;
  CheckpointState Resume;
  std::vector<std::pair<std::vector<ScheduleChoice>, uint64_t>> Probes;
  std::vector<ScheduleChoice> ProbeAnswer;
  FleetCoordinator C;

  explicit Rig(CheckerOptions O, std::vector<CheckpointUnit> Frontier = {})
      : Opts(std::move(O)), Resume(resumeAt(std::move(Frontier))),
        C(Opts, Resume.Frontier.empty() ? nullptr : &Resume,
          [this](const std::vector<ScheduleChoice> &P, uint64_t Rng) {
            Probes.push_back({P, Rng});
            return ProbeAnswer;
          }) {
    ackSpawns(C.takeActions());
  }

  static CheckpointState resumeAt(std::vector<CheckpointUnit> Frontier) {
    CheckpointState CK;
    CK.Frontier = std::move(Frontier);
    return CK;
  }

  /// Acknowledges every Spawn in \p As and returns the other actions.
  std::vector<FleetAction> ackSpawns(std::vector<FleetAction> As) {
    std::vector<FleetAction> Rest;
    for (FleetAction &A : As)
      if (A.K == FleetAction::Spawn)
        C.spawned(A.Slot, true);
      else
        Rest.push_back(std::move(A));
    return Rest;
  }
  std::vector<FleetAction> tick(double Now) {
    C.tick(Now);
    return C.takeActions();
  }
  std::vector<FleetAction> died(double Now, size_t Slot, int Status) {
    C.died(Now, Slot, Status);
    return C.takeActions();
  }
  std::vector<FleetAction> commit(size_t Slot, UnitDone D) {
    C.unitDone(0, Slot, std::move(D));
    return C.takeActions();
  }
  const SearchStats &stats() const { return C.totals().stats(); }
};

IssuedUnit unitOf(const FleetAction &A) {
  std::optional<IssuedUnit> U =
      IssuedUnit::get({A.Record.Buf.data(), A.Record.Buf.size()});
  EXPECT_TRUE(U.has_value());
  return U ? *U : IssuedUnit();
}

/// (kind, slot, tag) of each action, for whole-list comparisons.
using Act = std::tuple<FleetAction::Kind, size_t, uint8_t>;
std::vector<Act> acts(const std::vector<FleetAction> &As) {
  std::vector<Act> Out;
  for (const FleetAction &A : As)
    Out.emplace_back(A.K, A.Slot, A.K == FleetAction::Send ? A.Tag : 0);
  return Out;
}
Act send(size_t Slot, uint8_t Tag) { return {FleetAction::Send, Slot, Tag}; }
Act kill(size_t Slot) { return {FleetAction::Kill, Slot, 0}; }
Act spawn(size_t Slot) { return {FleetAction::Spawn, Slot, 0}; }

UnitDone done(uint64_t LeaseId, uint64_t Execs,
              std::vector<CheckpointUnit> Rem = {}) {
  UnitDone D;
  D.LeaseId = LeaseId;
  D.Part.Stats.Executions = Execs;
  D.Remainder = std::move(Rem);
  return D;
}

} // namespace

//===----------------------------------------------------------------------===//
// Leases and idle workers
//===----------------------------------------------------------------------===//

TEST(FleetCoordinator, IdleWorkerStopsOneBusyWorkerUntilItCommitsOrDies) {
  Rig R(fleetOpts(2));
  // One unit, two workers: slot 0 runs it and is asked to stop early so
  // its remainder can feed slot 1.
  std::vector<FleetAction> As = R.tick(0);
  EXPECT_EQ(acts(As), (std::vector<Act>{send(0, TagUnit), send(0, TagStop)}));
  EXPECT_EQ(unitOf(As[0]).Budget, 8u);
  uint64_t L = R.C.leaseOf(0);
  // One request is outstanding at a time.
  EXPECT_TRUE(R.tick(0.01).empty());
  // The commit spends it; its two remainder units feed both workers,
  // round robin from slot 1, and nobody idles, so no Stop.
  As = R.commit(0, done(L, 3, {leaf(1), leaf(2)}));
  EXPECT_TRUE(As.empty());
  As = R.tick(0.02);
  EXPECT_EQ(acts(As), (std::vector<Act>{send(1, TagUnit), send(0, TagUnit)}));
  EXPECT_EQ(unitOf(As[0]).Work.Prefix[0].Chosen, 1);
  // Slot 1 finishes with nothing left: slot 0 is asked to stop...
  R.commit(1, done(R.C.leaseOf(1), 1));
  EXPECT_EQ(acts(R.tick(0.03)), (std::vector<Act>{send(0, TagStop)}));
  // ...and its death spends the request too: its unit goes back to the
  // queue and a replacement is forked.
  EXPECT_EQ(acts(R.died(0.04, 0, SIGKILL)), (std::vector<Act>{spawn(0)}));
  R.C.spawned(0, true);
  As = R.tick(1.0);
  EXPECT_EQ(acts(As), (std::vector<Act>{send(1, TagUnit), send(1, TagStop)}));
  EXPECT_EQ(unitOf(As[0]).Work.Prefix[0].Chosen, 2);
  EXPECT_EQ(R.stats().FleetReissues, 1u);
}

TEST(FleetCoordinator, IdleSlotsAreServedRoundRobin) {
  Rig R(fleetOpts(3), {leaf(0), leaf(1)});
  EXPECT_EQ(acts(R.tick(0)),
            (std::vector<Act>{send(0, TagUnit), send(1, TagUnit),
                              send(0, TagStop)}));
  // Slots 0 and 2 idle beside one queued unit: it goes to slot 2, the
  // slot after the last one served, not to the lowest idle slot.
  R.commit(0, done(R.C.leaseOf(0), 8, {leaf(3)}));
  std::vector<FleetAction> As = R.tick(0.01);
  ASSERT_FALSE(As.empty());
  EXPECT_EQ(acts(As)[0], send(2, TagUnit));
  EXPECT_EQ(R.C.leaseOf(0), 0u);
}

//===----------------------------------------------------------------------===//
// Deaths and the recovery ladder
//===----------------------------------------------------------------------===//

TEST(FleetCoordinator, GarbledOrStaleUnitDoneKillsAndRequeuesOnDeath) {
  Rig R(fleetOpts(1));
  R.tick(0);
  uint64_t L = R.C.leaseOf(0);
  // A record that does not decode: the worker is killed once, and
  // nothing of it is merged.
  R.C.unitDone(0, 0, std::nullopt);
  EXPECT_EQ(acts(R.C.takeActions()), (std::vector<Act>{kill(0)}));
  R.C.unitDone(0, 0, std::nullopt);
  EXPECT_TRUE(R.C.takeActions().empty());
  EXPECT_EQ(R.stats().Executions, 0u);
  // Its death requeues the lease with one attempt against it.
  EXPECT_EQ(acts(R.died(0.1, 0, SIGKILL)), (std::vector<Act>{spawn(0)}));
  EXPECT_EQ(R.C.leases().state(L), LeaseState::Queued);
  EXPECT_EQ(R.C.leases().attempts(L), 1);
  EXPECT_EQ(R.stats().FleetWorkerCrashes, 1u);
  EXPECT_EQ(R.stats().FleetReissues, 1u);
  R.C.spawned(0, true);
  EXPECT_EQ(R.stats().FleetRespawns, 1u);
  // A commit for a lease the worker does not hold is garbled too.
  EXPECT_EQ(acts(R.tick(1.0)), (std::vector<Act>{send(0, TagUnit)}));
  EXPECT_EQ(R.C.leaseOf(0), L);
  EXPECT_EQ(acts(R.commit(0, done(L + 1, 8))), (std::vector<Act>{kill(0)}));
  EXPECT_EQ(R.stats().Executions, 0u);
  EXPECT_EQ(R.C.leases().state(L), LeaseState::Leased);
}

TEST(FleetCoordinator, RequeueBacksOffThenQuarantinesAfterKDeaths) {
  CheckerOptions O = fleetOpts(1);
  O.FleetQuarantine = 2;
  Rig R(O, {leaf(1)});
  R.tick(0);
  uint64_t L = R.C.leaseOf(0);
  R.ackSpawns(R.died(0, 0, SIGSEGV));
  // Backoff: the first re-issue waits 0.05 s.
  EXPECT_TRUE(R.tick(0.01).empty());
  EXPECT_EQ(acts(R.tick(0.06)), (std::vector<Act>{send(0, TagUnit)}));
  EXPECT_EQ(R.C.leaseOf(0), L);
  // The second death quarantines the unit as a replayable crash.
  R.ackSpawns(R.died(0.07, 0, SIGSEGV));
  EXPECT_EQ(R.C.leases().state(L), LeaseState::Quarantined);
  EXPECT_EQ(R.stats().FleetQuarantined, 1u);
  R.tick(0.08);
  ASSERT_TRUE(R.C.done());
  CheckResult Res = R.C.finish(0.08);
  ASSERT_EQ(Res.Incidents.size(), 1u);
  EXPECT_EQ(Res.Incidents[0].Kind, Verdict::Crash);
  EXPECT_EQ(Res.Incidents[0].Schedule, encodeSchedule(leaf(1).Prefix));
}

TEST(FleetCoordinator, QuarantinedUnitLeavesTheSearchUnexhausted) {
  CheckerOptions O = fleetOpts(1);
  O.FleetQuarantine = 1;
  Rig R(O);
  R.tick(0);
  // The one unit is the whole tree; its first death quarantines it.
  R.ackSpawns(R.died(0, 0, SIGSEGV));
  EXPECT_EQ(R.stats().FleetQuarantined, 1u);
  R.tick(0.01);
  ASSERT_TRUE(R.C.done());
  CheckResult Res = R.C.finish(0.01);
  EXPECT_EQ(Res.Stats.FleetQuarantined, 1u);
  EXPECT_FALSE(Res.Stats.SearchExhausted);
  EXPECT_FALSE(Res.Stats.ExecutionCapHit);
  EXPECT_FALSE(Res.Stats.TimedOut);
  EXPECT_FALSE(Res.Stats.Interrupted);
  ASSERT_EQ(Res.Incidents.size(), 1u);
  EXPECT_EQ(Res.Incidents[0].Kind, Verdict::Crash);
}

TEST(FleetCoordinator, DrainKilledStragglerIsReleasedWithoutPenalty) {
  Rig R(fleetOpts(1));
  R.tick(0);
  uint64_t L = R.C.leaseOf(0);
  // An interrupt drains: the busy worker is asked to stop...
  R.C.interrupt();
  EXPECT_EQ(acts(R.tick(1.0)), (std::vector<Act>{send(0, TagStop)}));
  EXPECT_TRUE(R.C.draining());
  EXPECT_TRUE(R.tick(2.0).empty());
  // ...and killed once the grace period (2 s) has passed.
  EXPECT_EQ(acts(R.tick(3.5)), (std::vector<Act>{kill(0)}));
  EXPECT_TRUE(R.tick(3.6).empty());
  // Its lease goes back with no attempt against it, no crash is counted
  // and no replacement is forked.
  EXPECT_TRUE(R.died(3.7, 0, SIGKILL).empty());
  EXPECT_EQ(R.C.leases().state(L), LeaseState::Queued);
  EXPECT_EQ(R.C.leases().attempts(L), 0);
  EXPECT_EQ(R.stats().FleetWorkerCrashes, 0u);
  R.tick(3.8);
  ASSERT_TRUE(R.C.done());
  CheckResult Res = R.C.finish(3.8);
  EXPECT_TRUE(Res.Stats.Interrupted);
  ASSERT_NE(Res.Resume, nullptr);
  ASSERT_EQ(Res.Resume->Frontier.size(), 1u);
  EXPECT_TRUE(Res.Resume->Frontier[0].Prefix.empty());
}

TEST(FleetCoordinator, SpentRespawnBudgetReducesWidthThenRunsInProcess) {
  CheckerOptions O = fleetOpts(2);
  O.FleetRespawnBudget = 1;
  Rig R(O, {leaf(0), leaf(1), leaf(2), leaf(3)});
  R.tick(0); // slot 0: leaf 0, slot 1: leaf 1
  EXPECT_EQ(acts(R.died(0, 0, SIGKILL)), (std::vector<Act>{spawn(0)}));
  R.C.spawned(0, true);
  R.tick(0.01); // slot 0: leaf 2 (leaf 0 backs off)
  // The budget is spent: the fleet goes on at reduced width, then at none.
  EXPECT_TRUE(R.died(0.02, 1, SIGKILL).empty());
  EXPECT_TRUE(R.died(0.03, 0, SIGKILL).empty());
  EXPECT_EQ(R.stats().FleetRespawns, 1u);
  EXPECT_EQ(R.stats().FleetWorkerCrashes, 3u);
  // With no worker left, the one unit that never killed a worker runs in
  // the coordinator's own process...
  std::vector<FleetAction> As = R.tick(0.04);
  ASSERT_EQ(As.size(), 1u);
  EXPECT_EQ(As[0].K, FleetAction::RunInProcess);
  EXPECT_EQ(As[0].Slot, R.C.width());
  EXPECT_EQ(unitOf(As[0]).Work.Prefix[0].Chosen, 3);
  R.commit(R.C.width(), done(unitOf(As[0]).LeaseId, 5));
  // ...and the crash suspects are quarantined, not risked there.
  EXPECT_TRUE(R.tick(5.0).empty());
  EXPECT_EQ(R.stats().FleetQuarantined, 3u);
  R.tick(5.1);
  ASSERT_TRUE(R.C.done());
  CheckResult Res = R.C.finish(5.1);
  EXPECT_EQ(Res.Stats.Executions, 5u);
  EXPECT_EQ(Res.Incidents.size(), 3u);
}

//===----------------------------------------------------------------------===//
// Isolation
//===----------------------------------------------------------------------===//

TEST(FleetCoordinator, IsolatedDeathCommitsThroughLastProgress) {
  CheckerOptions O;
  O.Isolate = IsolationMode::Batch;
  O.TrackCoverage = true;
  Rig R(O);
  R.ProbeAnswer = {{1, 2, true, 0, 0}, {0, 3, true, 0, 0}};
  R.tick(0);
  uint64_t L = R.C.leaseOf(0);
  // Two executions finished; the second consumed [0/2, 1/2].
  ProgressRecord P;
  P.LeaseId = L;
  P.Stats.Executions = 2;
  P.Rng = 77;
  P.Stack = {{0, 2, true, 0, 0}, {1, 2, true, 0, 0}};
  P.States = {5, 6};
  R.C.progress(0.1, 0, P);
  P.States = {7};
  R.C.progress(0.2, 0, P);
  R.C.progress(0.2, 0, std::nullopt); // garbled: dropped
  // The worker dies in the third: the attempt commits through the second,
  // the probe re-runs advance([0/2, 1/2]) = [1/2] from the PRNG state the
  // second left, and the rest of the unit is re-leased past the crash.
  EXPECT_EQ(acts(R.died(0.3, 0, SIGSEGV)), (std::vector<Act>{spawn(0)}));
  EXPECT_EQ(R.stats().Executions, 2u);
  EXPECT_EQ(R.C.totals().states().size(), 3u);
  EXPECT_EQ(R.C.rng(), 77u);
  ASSERT_EQ(R.Probes.size(), 1u);
  EXPECT_EQ(encodeSchedule(R.Probes[0].first),
            encodeSchedule({{1, 2, true, 0, 0}}));
  EXPECT_EQ(R.Probes[0].second, 77u);
  EXPECT_EQ(R.stats().Crashes, 1u);
  EXPECT_EQ(R.stats().FleetWorkerCrashes, 0u);
  R.C.spawned(0, true);
  std::vector<FleetAction> As = R.tick(0.4);
  ASSERT_EQ(acts(As), (std::vector<Act>{send(0, TagUnit)}));
  EXPECT_EQ(unitOf(As[0]).Rng, 77u);
  EXPECT_EQ(encodeSchedule(unitOf(As[0]).Work.Prefix),
            encodeSchedule({{1, 2, true, 0, 0}, {1, 3, true, 0, 0}}));
  EXPECT_EQ(R.stats().FleetRespawns, 0u);
  // The incident is the probe's stack, named by the signal.
  R.commit(0, done(R.C.leaseOf(0), 1));
  R.tick(0.5);
  ASSERT_TRUE(R.C.done());
  CheckResult Res = R.C.finish(0.5);
  ASSERT_EQ(Res.Incidents.size(), 1u);
  EXPECT_EQ(Res.Incidents[0].Kind, Verdict::Crash);
  EXPECT_EQ(Res.Incidents[0].Schedule, encodeSchedule(R.ProbeAnswer));
  EXPECT_NE(Res.Incidents[0].Message.find("signal 11"), std::string::npos);
}

TEST(FleetCoordinator, IsolatedRandomWalkStepsThePrngPastACrash) {
  CheckerOptions O;
  O.Isolate = IsolationMode::Batch;
  O.Kind = SearchKind::RandomWalk;
  Rig R(O);
  R.ProbeAnswer = {{1, 2, true, 0, 0}};
  R.tick(0);
  // A death before any Progress probes the unit's own prefix with the
  // unit's PRNG state, then steps the generator: the same state would
  // walk into the same crash forever.
  uint64_t Seed = R.C.rng();
  R.ackSpawns(R.died(0.1, 0, SIGABRT));
  ASSERT_EQ(R.Probes.size(), 1u);
  EXPECT_TRUE(R.Probes[0].first.empty());
  EXPECT_EQ(R.Probes[0].second, Seed);
  Xorshift Step(Seed);
  Step.next();
  EXPECT_EQ(R.C.rng(), Step.state());
  std::vector<FleetAction> As = R.tick(0.2);
  ASSERT_EQ(As.size(), 1u);
  EXPECT_EQ(unitOf(As[0]).Rng, Step.state());
  EXPECT_TRUE(unitOf(As[0]).Work.Prefix.empty());
}

//===----------------------------------------------------------------------===//
// Checkpoint barrier
//===----------------------------------------------------------------------===//

TEST(FleetCoordinator, CheckpointBarrierSettlesEveryLeaseIntoTheFrontier) {
  CheckerOptions O = fleetOpts(2);
  O.CheckpointEvery = 10;
  std::vector<CheckpointState> Saved;
  O.CheckpointSink = [&](const CheckpointState &CK) { Saved.push_back(CK); };
  Rig R(O, {leaf(0), leaf(1), leaf(2)});
  R.tick(0);
  uint64_t L1 = R.C.leaseOf(1);
  R.commit(0, done(R.C.leaseOf(0), 12, {leaf(0)}));
  // Past 10 executions: the barrier asks the busy worker to stop and
  // issues nothing until every lease has settled.
  EXPECT_EQ(acts(R.tick(0.1)), (std::vector<Act>{send(1, TagStop)}));
  EXPECT_TRUE(R.tick(0.2).empty());
  EXPECT_TRUE(Saved.empty());
  R.commit(1, done(L1, 3, {leaf(1)}));
  std::vector<FleetAction> As = R.tick(0.3);
  ASSERT_EQ(Saved.size(), 1u);
  EXPECT_EQ(Saved[0].Stats.Executions, 15u);
  EXPECT_EQ(Saved[0].Stats.Checkpoints, 1u);
  std::vector<int> Frontier;
  for (const CheckpointUnit &U : Saved[0].Frontier)
    Frontier.push_back(U.Prefix[0].Chosen);
  std::sort(Frontier.begin(), Frontier.end());
  EXPECT_EQ(Frontier, (std::vector<int>{0, 1, 2}));
  // Then issuing resumes.
  EXPECT_EQ(acts(As), (std::vector<Act>{send(0, TagUnit), send(1, TagUnit)}));
}

//===----------------------------------------------------------------------===//
// The worker's control records
//===----------------------------------------------------------------------===//

namespace {

std::string frame(uint8_t Tag, const WireWriter &W = {}) {
  std::string F(1, char(Tag));
  uint32_t Len = uint32_t(W.Buf.size());
  F.append(reinterpret_cast<const char *>(&Len), sizeof Len);
  return F + W.Buf;
}

std::string unitFrame(uint64_t LeaseId) {
  IssuedUnit U{LeaseId, 8, 0, 0, leaf(int(LeaseId % 4))};
  WireWriter W;
  U.put(W);
  return frame(TagUnit, W);
}

std::string bestBugFrame(int Chosen) {
  BugReport B;
  B.Kind = Verdict::Deadlock;
  B.Schedule = encodeSchedule(leaf(Chosen).Prefix);
  WireWriter W;
  putBug(W, B);
  return frame(TagBestBug, W);
}

CheckerOptions firstBugOpts() {
  CheckerOptions O;
  O.StopOnFirstBug = true;
  return O;
}

} // namespace

TEST(WorkerCtl, StopAfterUnitInOneReadIsKept) {
  WorkerCtl Ctl(firstBugOpts());
  std::string B = unitFrame(1) + frame(TagStop);
  Ctl.feed(B.data(), B.size());
  ASSERT_EQ(Ctl.Units.size(), 1u);
  EXPECT_EQ(Ctl.Units[0].LeaseId, 1u);
  EXPECT_TRUE(Ctl.StopReq);
}

TEST(WorkerCtl, StopBeforeUnitIsForThePreviousAttempt) {
  WorkerCtl Ctl(firstBugOpts());
  std::string B = frame(TagStop) + unitFrame(2);
  Ctl.feed(B.data(), B.size());
  ASSERT_EQ(Ctl.Units.size(), 1u);
  EXPECT_FALSE(Ctl.StopReq);
}

TEST(WorkerCtl, TruncatedBestBugIsIgnored) {
  WorkerCtl Ctl(firstBugOpts());
  std::string Full = bestBugFrame(2);
  // The frame is whole, but its payload ends inside the bug report.
  WireWriter Cut;
  Cut.Buf = Full.substr(5, Full.size() - 5 - 4);
  std::string B = frame(TagBestBug, Cut);
  Ctl.feed(B.data(), B.size());
  EXPECT_FALSE(Ctl.Best.bug().has_value());
  Ctl.feed(Full.data(), Full.size());
  ASSERT_TRUE(Ctl.Best.bug().has_value());
  // The worker prunes by the coordinator's rule (SearchTotals::afterBest).
  EXPECT_FALSE(Ctl.Best.afterBest({1}));
  EXPECT_TRUE(Ctl.Best.afterBest({2}));
  EXPECT_TRUE(Ctl.Best.afterBest({3}));
}

TEST(WorkerCtl, ByteAtATimeDeliveryGivesTheSameState) {
  std::string B = unitFrame(1) + frame(TagStop) + bestBugFrame(3) +
                  unitFrame(2) + bestBugFrame(1) + frame(TagStop) +
                  frame(TagShutdown);
  WorkerCtl Whole(firstBugOpts()), Bytes(firstBugOpts());
  Whole.feed(B.data(), B.size());
  for (char Ch : B)
    Bytes.feed(&Ch, 1);
  for (const WorkerCtl *Ctl : {&Whole, &Bytes}) {
    ASSERT_EQ(Ctl->Units.size(), 2u);
    EXPECT_EQ(Ctl->Units[1].LeaseId, 2u);
    EXPECT_EQ(Ctl->Units[1].Work.Prefix[0].Chosen, 2);
    EXPECT_TRUE(Ctl->StopReq);
    EXPECT_TRUE(Ctl->Shutdown);
    ASSERT_TRUE(Ctl->Best.bug().has_value());
    EXPECT_EQ(Ctl->Best.bug()->Schedule, encodeSchedule(leaf(1).Prefix));
  }
}
