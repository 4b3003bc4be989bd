//===- tests/core/WorkLeaseTest.cpp ---------------------------------------===//
//
// Unit tests for the fleet coordinator's lease table (core/WorkLease.h):
// the queue/lease/commit lifecycle, failure backoff and quarantine
// thresholds, the drain-path release, heartbeat renewal and deadline
// expiry. The table is a pure data structure with injected clocks, so
// every recovery policy decision is pinned here without forking a single
// process; docs/FLEET.md describes how the coordinator drives it.
//
//===----------------------------------------------------------------------===//

#include "core/WorkLease.h"

#include <gtest/gtest.h>

using namespace fsmc;

namespace {

std::vector<ScheduleChoice> prefix(int Tag) {
  // Distinct single-choice prefixes so tests can tell units apart.
  return {{Tag, Tag + 1, true, 0}};
}

} // namespace

TEST(WorkLease, LifecycleQueuedLeasedCommitted) {
  LeaseTable LT;
  uint64_t Id = LT.add({prefix(0), 1});
  EXPECT_EQ(Id, 1u) << "ids start at 1 so 0 can mean 'none'";
  EXPECT_EQ(LT.queuedCount(), 1u);
  EXPECT_EQ(LT.state(Id), LeaseState::Queued);

  EXPECT_EQ(LT.lease(/*Owner=*/7, /*Now=*/0.0, /*Deadline=*/5.0), Id);
  EXPECT_EQ(LT.unit(Id).FrozenLen, 1u);
  EXPECT_EQ(LT.state(Id), LeaseState::Leased);
  EXPECT_EQ(LT.owner(Id), 7);
  EXPECT_EQ(LT.leasedBy(7), Id);
  EXPECT_EQ(LT.queuedCount(), 0u);
  EXPECT_EQ(LT.leasedCount(), 1u);
  EXPECT_EQ(LT.pendingCount(), 1u);

  LT.commit(Id);
  EXPECT_EQ(LT.state(Id), LeaseState::Committed);
  EXPECT_EQ(LT.pendingCount(), 0u);
  EXPECT_EQ(LT.leasedBy(7), 0u);
}

TEST(WorkLease, LeasesDfsSmallestFirst) {
  // Added in the order splitWork donates (shallowest sibling first); a
  // single worker must still walk them in serial DFS order: the deepest
  // sibling, then its parent's, then the root's.
  LeaseTable LT;
  uint64_t Shallow = LT.add({{{1, 2, true}}, 1});
  uint64_t Mid = LT.add({{{0, 2, true}, {1, 2, true}}, 2});
  uint64_t Deep = LT.add({{{0, 2, true}, {0, 2, true}, {1, 3, true}}, 3});
  uint64_t Order[3] = {Deep, Mid, Shallow};
  for (uint64_t Want : Order) {
    uint64_t Id = LT.lease(1, 0.0, 5.0);
    EXPECT_EQ(Id, Want);
    LT.commit(Id);
  }
  EXPECT_EQ(LT.lease(3, 0.0, 5.0), 0u) << "queue is empty";
}

TEST(WorkLease, FailRequeuesWithExponentialBackoff) {
  LeaseTable::Config C;
  C.QuarantineAfter = 10;
  C.BackoffBaseSeconds = 0.05;
  C.BackoffCapSeconds = 2.0;
  LeaseTable LT(C);
  uint64_t Id = LT.add({prefix(0), 0});

  // Attempt 1 fails at t=0: backoff 0.05s.
  ASSERT_NE(LT.lease(1, 0.0, 5.0), 0u);
  EXPECT_EQ(LT.fail(Id, 0.0), LeaseTable::FailOutcome::Requeued);
  EXPECT_EQ(LT.attempts(Id), 1);
  EXPECT_EQ(LT.lease(2, 0.01, 5.0), 0u) << "still cooling down";
  ASSERT_NE(LT.lease(2, 0.06, 5.0), 0u);

  // Attempt 2 fails at t=1: backoff doubles to 0.1s.
  EXPECT_EQ(LT.fail(Id, 1.0), LeaseTable::FailOutcome::Requeued);
  EXPECT_EQ(LT.lease(3, 1.05, 5.0), 0u);
  ASSERT_NE(LT.lease(3, 1.11, 5.0), 0u);

  // Attempt 3 fails at t=2: backoff 0.2s; nextReadyAt reports the wake.
  EXPECT_EQ(LT.fail(Id, 2.0), LeaseTable::FailOutcome::Requeued);
  EXPECT_NEAR(LT.nextReadyAt(99.0), 2.2, 1e-9);
  ASSERT_NE(LT.lease(4, 2.25, 5.0), 0u);
}

TEST(WorkLease, BackoffIsCapped) {
  LeaseTable::Config C;
  C.QuarantineAfter = 100;
  C.BackoffBaseSeconds = 0.05;
  C.BackoffCapSeconds = 2.0;
  LeaseTable LT(C);
  uint64_t Id = LT.add({prefix(0), 0});
  // Drive the attempt count high; the cool-down must clamp at the cap.
  // Each round leases well past the previous backoff window.
  double Now = 0;
  for (int I = 0; I < 12; ++I) {
    ASSERT_NE(LT.lease(1, Now, Now + 100.0), 0u);
    LT.fail(Id, Now);
    Now += 10.0;
  }
  // Last failure at t=110 with 12 attempts: 0.05 * 2^11 >> 2.0, so the
  // unit must be issuable exactly 2.0s later, not minutes later.
  EXPECT_EQ(LT.lease(1, 111.9, 200.0), 0u);
  ASSERT_NE(LT.lease(1, 112.01, 200.0), 0u);
}

TEST(WorkLease, BackoffDoesNotBlockOtherUnits) {
  LeaseTable LT;
  uint64_t Poison = LT.add({prefix(0), 0});
  uint64_t Healthy = LT.add({prefix(1), 0});
  ASSERT_NE(LT.lease(1, 0.0, 5.0), 0u);
  LT.fail(Poison, 0.0);
  // The poison unit is older but cooling down; the healthy one must not
  // be stuck behind it.
  EXPECT_EQ(LT.lease(2, 0.0, 5.0), Healthy);
}

TEST(WorkLease, QuarantineAfterConsecutiveFatalAttempts) {
  LeaseTable::Config C;
  C.QuarantineAfter = 3;
  C.BackoffBaseSeconds = 0.0;
  LeaseTable LT(C);
  uint64_t Id = LT.add({prefix(0), 0});
  for (int Attempt = 1; Attempt <= 2; ++Attempt) {
    ASSERT_NE(LT.lease(1, 100.0 * Attempt, 1000.0), 0u);
    EXPECT_EQ(LT.fail(Id, 100.0 * Attempt),
              LeaseTable::FailOutcome::Requeued);
  }
  ASSERT_NE(LT.lease(1, 300.0, 1000.0), 0u);
  EXPECT_EQ(LT.fail(Id, 300.0), LeaseTable::FailOutcome::Quarantined);
  EXPECT_EQ(LT.state(Id), LeaseState::Quarantined);
  EXPECT_EQ(LT.quarantinedCount(), 1u);
  EXPECT_EQ(LT.pendingCount(), 0u);
}

TEST(WorkLease, ReleaseRequeuesFrontWithNoPenalty) {
  LeaseTable LT;
  uint64_t A = LT.add({prefix(0), 0});
  uint64_t B = LT.add({prefix(1), 0});
  ASSERT_NE(LT.lease(1, 0.0, 5.0), 0u);
  LT.release(A);
  EXPECT_EQ(LT.state(A), LeaseState::Queued);
  EXPECT_EQ(LT.attempts(A), 0) << "a drain is not the unit's fault";
  // The drained unit resumes first: it is still the DFS-smallest.
  EXPECT_EQ(LT.lease(2, 0.0, 5.0), A);
  (void)B;
}

TEST(WorkLease, ForcedQuarantineFromAnyPendingState) {
  LeaseTable LT;
  uint64_t First = LT.add({prefix(0), 0});
  uint64_t StillQueued = LT.add({prefix(1), 0});
  ASSERT_NE(LT.lease(1, 0.0, 5.0), 0u); // leases First (oldest)
  // Quarantine works on a leased unit (crash-suspect with its holder
  // gone) and on a queued one (no worker left to try it).
  LT.quarantine(First);
  LT.quarantine(StillQueued);
  EXPECT_EQ(LT.state(First), LeaseState::Quarantined);
  EXPECT_EQ(LT.state(StillQueued), LeaseState::Quarantined);
  EXPECT_EQ(LT.quarantinedCount(), 2u);
  EXPECT_EQ(LT.pendingCount(), 0u);
  LT.quarantine(First); // Idempotent on retired units.
  EXPECT_EQ(LT.quarantinedCount(), 2u);
}

TEST(WorkLease, HeartbeatRenewalAndExpiry) {
  LeaseTable LT;
  uint64_t Id = LT.add({prefix(0), 0});
  ASSERT_NE(LT.lease(1, 0.0, /*Deadline=*/1.0), 0u);
  EXPECT_TRUE(LT.expiredLeases(0.5).empty());
  ASSERT_EQ(LT.expiredLeases(1.5).size(), 1u);
  EXPECT_EQ(LT.expiredLeases(1.5)[0], Id);
  // A heartbeat pushes the deadline out; the lease is no longer expired.
  LT.renew(Id, 3.0);
  EXPECT_TRUE(LT.expiredLeases(1.5).empty());
  ASSERT_EQ(LT.expiredLeases(3.5).size(), 1u);
  // Renewal of a non-leased unit is a no-op, not a crash (stale beats
  // from a worker whose lease was already failed arrive in practice).
  LT.fail(Id, 3.5);
  LT.renew(Id, 9.0);
  EXPECT_EQ(LT.state(Id), LeaseState::Queued);
}

TEST(WorkLease, ZeroDeadlineNeverExpires) {
  LeaseTable LT;
  uint64_t Id = LT.add({prefix(0), 0});
  ASSERT_NE(LT.lease(1, 0.0, /*Deadline=*/0.0), 0u);
  EXPECT_TRUE(LT.expiredLeases(1e9).empty())
      << "deadline 0 means heartbeat supervision is off";
  LT.commit(Id);
}

TEST(WorkLease, PendingUnitsSortedAndComplete) {
  LeaseTable LT;
  uint64_t A = LT.add({prefix(0), 0});
  uint64_t B = LT.add({prefix(1), 1});
  uint64_t C = LT.add({prefix(2), 0});
  ASSERT_NE(LT.lease(1, 0.0, 5.0), 0u); // A leased
  LT.commit(A);
  ASSERT_NE(LT.lease(2, 0.0, 5.0), 0u); // B leased
  // Pending = leased B + queued C, sorted by id; committed A is gone.
  std::vector<CheckpointUnit> P = LT.pendingUnits();
  ASSERT_EQ(P.size(), 2u);
  EXPECT_EQ(P[0].Prefix[0].Chosen, LT.unit(B).Prefix[0].Chosen);
  EXPECT_EQ(P[0].FrozenLen, 1u);
  EXPECT_EQ(P[1].Prefix[0].Chosen, LT.unit(C).Prefix[0].Chosen);
}
