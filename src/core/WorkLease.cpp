//===- core/WorkLease.cpp -------------------------------------------------===//

#include "core/WorkLease.h"

#include <algorithm>
#include <cassert>

using namespace fsmc;

LeaseTable::QueueKey LeaseTable::queueKey(uint64_t Id) const {
  QueueKey K;
  K.second = Id;
  for (const ScheduleChoice &C : entry(Id).U.Prefix)
    K.first.push_back(C.Chosen);
  return K;
}

void LeaseTable::enqueue(uint64_t Id) {
  entry(Id).St = LeaseState::Queued;
  Queue.insert(queueKey(Id));
}

uint64_t LeaseTable::add(CheckpointUnit U) {
  uint64_t Id = NextId++;
  Entry E;
  E.U = std::move(U);
  Entries.emplace(Id, std::move(E));
  enqueue(Id);
  return Id;
}

uint64_t LeaseTable::lease(int Owner, double Now, double Deadline) {
  // DFS-smallest first, but skip units still under backoff: a poison unit
  // must not block the healthy rest of the queue behind its cool-down.
  for (auto It = Queue.begin(); It != Queue.end(); ++It) {
    Entry &E = entry(It->second);
    if (E.NotBefore > Now)
      continue;
    E.St = LeaseState::Leased;
    E.Owner = Owner;
    E.Deadline = Deadline;
    ++NumLeased;
    uint64_t Id = It->second;
    Queue.erase(It);
    return Id;
  }
  return 0;
}

void LeaseTable::commit(uint64_t Id) {
  Entry &E = entry(Id);
  assert(E.St == LeaseState::Leased && "commit of a unit not leased");
  E.St = LeaseState::Committed;
  E.Owner = -1;
  --NumLeased;
}

LeaseTable::FailOutcome LeaseTable::fail(uint64_t Id, double Now) {
  Entry &E = entry(Id);
  assert(E.St == LeaseState::Leased && "fail of a unit not leased");
  E.Owner = -1;
  --NumLeased;
  ++E.Attempts;
  if (E.Attempts >= Cfg.QuarantineAfter) {
    E.St = LeaseState::Quarantined;
    ++NumQuarantined;
    return FailOutcome::Quarantined;
  }
  double Backoff = Cfg.BackoffBaseSeconds;
  for (int I = 1; I < E.Attempts && Backoff < Cfg.BackoffCapSeconds; ++I)
    Backoff *= 2;
  E.NotBefore = Now + std::min(Backoff, Cfg.BackoffCapSeconds);
  enqueue(Id);
  return FailOutcome::Requeued;
}

void LeaseTable::release(uint64_t Id) {
  Entry &E = entry(Id);
  assert(E.St == LeaseState::Leased && "release of a unit not leased");
  E.Owner = -1;
  --NumLeased;
  E.NotBefore = 0;
  enqueue(Id);
}

void LeaseTable::quarantine(uint64_t Id) {
  Entry &E = entry(Id);
  if (E.St == LeaseState::Queued)
    Queue.erase(queueKey(Id));
  else if (E.St == LeaseState::Leased)
    --NumLeased;
  else
    return; // Already retired.
  E.Owner = -1;
  E.St = LeaseState::Quarantined;
  ++NumQuarantined;
}

void LeaseTable::renew(uint64_t Id, double Deadline) {
  Entry &E = entry(Id);
  if (E.St == LeaseState::Leased)
    E.Deadline = Deadline;
}

std::vector<uint64_t> LeaseTable::expiredLeases(double Now) const {
  std::vector<uint64_t> Out;
  for (const auto &[Id, E] : Entries)
    if (E.St == LeaseState::Leased && E.Deadline > 0 && E.Deadline <= Now)
      Out.push_back(Id);
  std::sort(Out.begin(), Out.end());
  return Out;
}

double LeaseTable::nextReadyAt(double Fallback) const {
  double Earliest = Fallback;
  for (const QueueKey &K : Queue) {
    const Entry &E = entry(K.second);
    if (E.NotBefore > 0 && E.NotBefore < Earliest)
      Earliest = E.NotBefore;
  }
  return Earliest;
}

uint64_t LeaseTable::leasedBy(int Owner) const {
  for (const auto &[Id, E] : Entries)
    if (E.St == LeaseState::Leased && E.Owner == Owner)
      return Id;
  return 0;
}

std::vector<CheckpointUnit> LeaseTable::pendingUnits() const {
  std::vector<uint64_t> Ids;
  for (const auto &[Id, E] : Entries)
    if (E.St == LeaseState::Queued || E.St == LeaseState::Leased)
      Ids.push_back(Id);
  std::sort(Ids.begin(), Ids.end());
  std::vector<CheckpointUnit> Out;
  Out.reserve(Ids.size());
  for (uint64_t Id : Ids)
    Out.push_back(entry(Id).U);
  return Out;
}
