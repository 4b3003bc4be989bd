//===- core/WorkLease.h - Leased work units for the fleet ------*- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fleet coordinator's bookkeeping for work units (CheckpointUnits,
/// core/Schedule.h) held under leases. Pure data structure -- no processes, no
/// pipes, no clocks of its own (callers pass monotonic seconds in) -- so
/// the recovery policy is unit-testable without forking anything
/// (tests/core/WorkLeaseTest.cpp).
///
/// Lifecycle of a unit (docs/FLEET.md):
///
///   Queued ----lease----> Leased ----commit----> Committed
///     ^                      |
///     +---release (drain)----+        (no attempt penalty)
///     ^                      |
///     +---fail (death)-------+        Attempts+1, exponential backoff;
///                            |        after QuarantineAfter consecutive
///                            +------> Quarantined (fatal attempts)
///
/// The exactness invariant the fleet relies on: committed units plus
/// pending (queued + leased) units always partition the remaining search
/// exactly -- a failed or released lease loses no work and duplicates
/// none, because nothing from the failed attempt was committed.
///
/// Queued units are leased in DFS order of their prefixes, so a single
/// worker walks the choice tree in exactly the serial explorer's order.
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_CORE_WORKLEASE_H
#define FSMC_CORE_WORKLEASE_H

#include "core/Schedule.h"

#include <cstdint>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

namespace fsmc {

/// Lease states, exposed for tests and the coordinator's accounting.
enum class LeaseState : uint8_t {
  Queued,      ///< Waiting for a worker (possibly under backoff).
  Leased,      ///< Issued to a worker, deadline running.
  Committed,   ///< Result merged; unit retired.
  Quarantined, ///< Killed QuarantineAfter workers; retired as an incident.
};

class LeaseTable {
public:
  struct Config {
    /// Consecutive fatal attempts before a unit is quarantined.
    int QuarantineAfter = 3;
    /// Backoff before re-issuing a failed unit: Base * 2^(attempts-1),
    /// capped at Cap. Keeps a poison unit from monopolizing respawns.
    double BackoffBaseSeconds = 0.05;
    double BackoffCapSeconds = 2.0;
  };

  LeaseTable() = default;
  explicit LeaseTable(const Config &C) : Cfg(C) {}

  /// Adds a queued unit; returns its id.
  uint64_t add(CheckpointUnit U);

  /// Leases the DFS-smallest queued unit (by the Chosen indices of its
  /// prefix; ties go to the oldest) whose backoff has elapsed at \p Now,
  /// marking it held by \p Owner until \p Deadline, and returns its id.
  /// 0 when nothing is issuable right now (backoff pending or queue
  /// empty).
  uint64_t lease(int Owner, double Now, double Deadline);

  /// The leased unit's result was merged; retires it.
  void commit(uint64_t Id);

  /// The holder died mid-attempt. Requeues with backoff, or quarantines
  /// after QuarantineAfter consecutive fatal attempts.
  enum class FailOutcome { Requeued, Quarantined };
  FailOutcome fail(uint64_t Id, double Now);

  /// Drain path: the holder was stopped before committing (e.g. a
  /// straggler killed at checkpoint time). Requeues with no attempt
  /// penalty and no backoff -- the unit did nothing wrong -- so it is
  /// leased again as soon as it is the DFS-smallest.
  void release(uint64_t Id);

  /// Forced quarantine (e.g. a crash-suspect unit left over when every
  /// worker is gone). Counts as quarantined regardless of attempts.
  void quarantine(uint64_t Id);

  /// Heartbeat: pushes the leased unit's deadline out to \p Deadline.
  void renew(uint64_t Id, double Deadline);

  /// Ids of leased units whose deadline has passed at \p Now.
  std::vector<uint64_t> expiredLeases(double Now) const;

  /// Earliest NotBefore among queued units, or \p Fallback when none is
  /// under backoff -- the coordinator's poll-timeout hint.
  double nextReadyAt(double Fallback) const;

  size_t queuedCount() const { return Queue.size(); }
  size_t leasedCount() const { return NumLeased; }
  /// Units still owed to the search (queued + leased). Zero = done.
  size_t pendingCount() const { return Queue.size() + NumLeased; }
  size_t quarantinedCount() const { return NumQuarantined; }

  const CheckpointUnit &unit(uint64_t Id) const { return entry(Id).U; }
  LeaseState state(uint64_t Id) const { return entry(Id).St; }
  int attempts(uint64_t Id) const { return entry(Id).Attempts; }
  int owner(uint64_t Id) const { return entry(Id).Owner; }

  /// Id of the unit leased by \p Owner, or 0 (ids start at 1).
  uint64_t leasedBy(int Owner) const;

  /// Every non-retired unit (queued + leased) in id order, for
  /// checkpoint drains.
  std::vector<CheckpointUnit> pendingUnits() const;

private:
  struct Entry {
    CheckpointUnit U;
    LeaseState St = LeaseState::Queued;
    int Attempts = 0; ///< Fatal attempts so far (all consecutive).
    double NotBefore = 0;
    double Deadline = 0;
    int Owner = -1;
  };

  /// Queue position: the prefix's Chosen indices (std::vector's
  /// lexicographic order is DFS order), then the id.
  using QueueKey = std::pair<std::vector<int>, uint64_t>;

  Entry &entry(uint64_t Id) { return Entries.at(Id); }
  const Entry &entry(uint64_t Id) const { return Entries.at(Id); }
  void enqueue(uint64_t Id);
  QueueKey queueKey(uint64_t Id) const;

  Config Cfg;
  uint64_t NextId = 1;
  std::unordered_map<uint64_t, Entry> Entries;
  std::set<QueueKey> Queue; ///< Queued units, DFS-smallest first.
  size_t NumLeased = 0;
  size_t NumQuarantined = 0;
};

} // namespace fsmc

#endif // FSMC_CORE_WORKLEASE_H
