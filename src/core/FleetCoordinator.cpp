//===- core/FleetCoordinator.cpp ------------------------------------------===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//

#include "core/FleetCoordinator.h"

#include "core/Checkpoint.h"
#include "obs/Observer.h"
#include "support/Xorshift.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <type_traits>

#include <sys/wait.h>

using namespace fsmc;
using wire::WireReader;
using wire::WireWriter;

//===----------------------------------------------------------------------===//
// Records
//===----------------------------------------------------------------------===//

namespace {

BugReport getBug(WireReader &R) {
  BugReport B;
  B.Kind = Verdict(R.u8());
  B.Message = R.str();
  B.TraceText = R.str();
  B.Schedule = R.str();
  B.AtExecution = R.u64();
  B.AtStep = R.u64();
  return B;
}

void putBugs(WireWriter &W, const std::vector<BugReport> &B) {
  W.u32(uint32_t(B.size()));
  for (const BugReport &I : B)
    putBug(W, I);
}

/// Counted lists grow as their items decode, so a garbled count fails
/// the reader instead of allocating.
std::vector<BugReport> getBugs(WireReader &R) {
  std::vector<BugReport> Out;
  for (uint32_t I = 0, N = R.u32(); I < N && R.Ok; ++I)
    Out.push_back(getBug(R));
  return Out;
}

/// An optional field: a presence byte, then the value. A counter
/// snapshot is trivially copyable and crosses as raw bytes.
static_assert(std::is_trivially_copyable_v<obs::CounterSnapshot>);
template <typename T> void putOpt(WireWriter &W, const std::optional<T> &V) {
  W.u8(V ? 1 : 0);
  if constexpr (std::is_same_v<T, BugReport>) {
    if (V)
      putBug(W, *V);
  } else if (V) {
    W.raw(&*V, sizeof(T));
  }
}

template <typename T> std::optional<T> getOpt(WireReader &R) {
  if (!R.u8())
    return std::nullopt;
  if constexpr (std::is_same_v<T, BugReport>) {
    return getBug(R);
  } else {
    T V;
    R.take(&V, sizeof V);
    return V;
  }
}

/// Explorer::advanceStack on a serialized stack: bump the deepest
/// backtrackable record with an untried alternative, popping exhausted
/// ones, never descending into the frozen region. Random walks never
/// backtrack; their next path is the bare frozen prefix.
bool advancePrefix(std::vector<ScheduleChoice> &P, size_t FrozenLen,
                   bool RandomWalk) {
  if (RandomWalk) {
    P.resize(FrozenLen);
    return true;
  }
  while (P.size() > FrozenLen) {
    ScheduleChoice &R = P.back();
    if (R.Backtrack && R.Chosen + 1 < R.Num) {
      ++R.Chosen;
      return true;
    }
    P.pop_back();
  }
  return false;
}

/// The incident message for a worker that died with wait status \p Status.
std::string describeDeath(int Status, bool Hung, double Timeout) {
  if (Hung)
    return "no progress for " + std::to_string(Timeout) +
           "s; worker killed by the watchdog";
  if (WIFSIGNALED(Status)) {
    int Sig = WTERMSIG(Status);
    std::string S = "worker killed by signal " + std::to_string(Sig);
    if (const char *Name = strsignal(Sig))
      S += std::string(" (") + Name + ")";
    return S;
  }
  if (WIFEXITED(Status) && WEXITSTATUS(Status) != 0)
    return "worker exited with status " + std::to_string(WEXITSTATUS(Status));
  return "worker exited without finishing its unit";
}

} // namespace

void fsmc::putBug(WireWriter &W, const BugReport &B) {
  W.u8(uint8_t(B.Kind));
  W.str(B.Message);
  W.str(B.TraceText);
  W.str(B.Schedule);
  W.u64(B.AtExecution);
  W.u64(B.AtStep);
}

void IssuedUnit::put(WireWriter &W) const {
  W.u64(LeaseId);
  W.u64(Budget);
  W.f64(TimeBudget);
  W.u64(Rng);
  W.unit(Work);
}

std::optional<IssuedUnit> IssuedUnit::get(WireReader R) {
  IssuedUnit U;
  U.LeaseId = R.u64();
  U.Budget = R.u64();
  U.TimeBudget = R.f64();
  U.Rng = R.u64();
  U.Work = R.unit();
  return R.Ok ? std::optional(std::move(U)) : std::nullopt;
}

void UnitDone::put(WireWriter &W) const {
  W.u64(LeaseId);
  W.u8(TimedOut);
  W.stats(Part.Stats);
  W.u64(Rng);
  putOpt(W, Part.Bug);
  putBugs(W, Part.Incidents);
  W.states(States.data(), States.size());
  W.u32(uint32_t(Remainder.size()));
  for (const CheckpointUnit &U : Remainder)
    W.unit(U);
  putOpt(W, Counters);
}

std::optional<UnitDone> UnitDone::get(WireReader R) {
  UnitDone D;
  D.LeaseId = R.u64();
  D.TimedOut = R.u8();
  D.Part.Stats = R.stats();
  D.Rng = R.u64();
  D.Part.Bug = getOpt<BugReport>(R);
  D.Part.Incidents = getBugs(R);
  D.States = R.states();
  for (uint32_t I = 0, N = R.u32(); I < N && R.Ok; ++I)
    D.Remainder.push_back(R.unit());
  D.Counters = getOpt<obs::CounterSnapshot>(R);
  return R.Ok ? std::optional(std::move(D)) : std::nullopt;
}

void ProgressRecord::put(WireWriter &W) const {
  W.u64(LeaseId);
  W.stats(Stats);
  W.u64(Rng);
  W.choices(Stack);
  W.states(States.data(), States.size());
  putBugs(W, Incidents);
  putOpt(W, Bug);
  putOpt(W, Counters);
}

std::optional<ProgressRecord> ProgressRecord::get(WireReader R) {
  ProgressRecord P;
  P.LeaseId = R.u64();
  P.Stats = R.stats();
  P.Rng = R.u64();
  P.Stack = R.choices();
  P.States = R.states();
  P.Incidents = getBugs(R);
  P.Bug = getOpt<BugReport>(R);
  P.Counters = getOpt<obs::CounterSnapshot>(R);
  return R.Ok ? std::optional(std::move(P)) : std::nullopt;
}

void WorkerCtl::feed(const char *P, size_t N) {
  Frames.feed(P, N, [&](uint8_t Tag, WireReader R) {
    if (Tag == TagUnit) {
      if (std::optional<IssuedUnit> U = IssuedUnit::get(R)) {
        Units.push_back(std::move(*U));
        StopReq = false;
      }
    } else if (Tag == TagStop) {
      StopReq = true;
    } else if (Tag == TagShutdown) {
      Shutdown = true;
    } else if (Tag == TagBestBug) {
      BugReport B = getBug(R);
      if (R.Ok)
        Best.offerBug(B);
    }
  });
}

//===----------------------------------------------------------------------===//
// FleetCoordinator
//===----------------------------------------------------------------------===//

FleetCoordinator::FleetCoordinator(const CheckerOptions &Opts,
                                   const CheckpointState *Resume,
                                   CrashProbe Probe)
    : Opts(Opts), Isolated(Opts.Isolate == IsolationMode::Batch),
      RandomWalk(Opts.Kind == SearchKind::RandomWalk),
      Width(Isolated ? 1 : size_t(std::max(1, Opts.FleetWorkers))),
      Batch(Opts.BatchSize > 0 ? uint64_t(Opts.BatchSize) : 64),
      HbTimeout(Opts.HangTimeoutSeconds > 0 ? Opts.HangTimeoutSeconds : 10.0),
      Probe(std::move(Probe)), Ctr(Opts.Obs ? &Opts.Obs->shard(0) : nullptr),
      RespawnsLeft(Opts.FleetRespawnBudget >= 0 ? Opts.FleetRespawnBudget
                                                : 2 * int(Width) + 2),
      LT(LeaseTable::Config{Opts.FleetQuarantine > 0 ? Opts.FleetQuarantine
                                                     : 3}),
      Totals(Opts, Resume), Rng(Opts.Seed), Slots(Width + 1),
      NextCheckpointAt(nextCheckpoint()) {
  if (Resume && Isolated && Resume->Rng)
    Rng = Resume->Rng;
  if (!Resume)
    LT.add({}); // the whole choice tree
  else
    for (const CheckpointUnit &U : Resume->Frontier)
      LT.add(U);
  for (size_t I = 0; I < Width; ++I)
    spawn(I, /*Respawn=*/false);
}

void FleetCoordinator::send(size_t Slot, uint8_t Tag, WireWriter W) {
  Actions.push_back({FleetAction::Send, Slot, Tag, std::move(W)});
}

void FleetCoordinator::spawn(size_t Slot, bool Respawn) {
  Slots[Slot].Respawn = Respawn;
  Actions.push_back({FleetAction::Spawn, Slot, 0, {}});
}

void FleetCoordinator::spawned(size_t Slot, bool Ok) {
  bool Respawn = Slots[Slot].Respawn;
  Slots[Slot] = SlotState();
  Slots[Slot].Alive = Ok;
  if (Ok && Respawn)
    bump(obs::Counter::FleetRespawns, Totals.stats().FleetRespawns);
}

void FleetCoordinator::bump(obs::Counter C, uint64_t &Row) {
  ++Row;
  if (Ctr)
    Ctr->add(C);
}

/// A drain's kill is final; any other kill is sent once.
void FleetCoordinator::kill(size_t Slot, SlotState::KillReason Why) {
  SlotState &S = Slots[Slot];
  if (!S.Alive || S.Killed == SlotState::Drained ||
      (S.Killed && Why != SlotState::Drained))
    return;
  S.Killed = Why;
  Actions.push_back({FleetAction::Kill, Slot, 0, {}});
}

void FleetCoordinator::heartbeat(double Now, size_t Slot, uint64_t LeaseId) {
  if (LeaseId && LeaseId == Slots[Slot].LeaseId)
    LT.renew(LeaseId, Now + HbTimeout);
}

void FleetCoordinator::progress(double Now, size_t Slot,
                                std::optional<ProgressRecord> R) {
  SlotState &S = Slots[Slot];
  if (!R || !R->LeaseId || R->LeaseId != S.LeaseId)
    return;
  UnitDone &P = S.Prog;
  P.Part.Stats = R->Stats;
  P.Rng = R->Rng;
  S.Stack = std::move(R->Stack);
  P.States.insert(P.States.end(), R->States.begin(), R->States.end());
  P.Part.Incidents.insert(P.Part.Incidents.end(), R->Incidents.begin(),
                          R->Incidents.end());
  if (R->Bug)
    P.Part.Bug = std::move(R->Bug);
  P.Counters = R->Counters;
  LT.renew(R->LeaseId, Now + HbTimeout);
}

void FleetCoordinator::unitDone(double, size_t Slot,
                                std::optional<UnitDone> R) {
  SlotState &S = Slots[Slot];
  if (!R || !R->LeaseId || R->LeaseId != S.LeaseId) {
    // Garbled commit: the worker is compromised. Its death fails the
    // lease, so nothing half-merged survives.
    kill(Slot, SlotState::Garbled);
    return;
  }
  S.LeaseId = 0;
  commit(std::move(*R));
}

// The only way search results enter the totals: a UnitDone, isolation's
// commit through the last Progress, and the in-process fallback.
void FleetCoordinator::commit(UnitDone &&D) {
  if (Ctr) {
    if (D.Counters)
      Ctr->addDelta(*D.Counters);
    Ctr->add(obs::Counter::FleetUnits);
  }
  uint64_t NewRaces = Totals.add(D.Part, D.States);
  if (Ctr && NewRaces)
    Ctr->add(obs::Counter::RacesFound, NewRaces);
  if (D.Part.Bug && Totals.offerBug(*D.Part.Bug) && Opts.StopOnFirstBug) {
    WireWriter W;
    putBug(W, *Totals.bug());
    for (size_t I = 0; I < Width; ++I)
      if (Slots[I].Alive && Slots[I].LeaseId)
        send(I, TagBestBug, W);
  }
  for (CheckpointUnit &U : D.Remainder)
    LT.add(std::move(U));
  LT.commit(D.LeaseId);
  TimedOut |= D.TimedOut;
  if (Isolated)
    Rng = D.Rng;
}

void FleetCoordinator::recordIncident(
    Verdict K, std::string Why, const std::vector<ScheduleChoice> &Stack) {
  if (Ctr)
    Ctr->add(K == Verdict::Hang ? obs::Counter::Hangs : obs::Counter::Crashes);
  Totals.addCrash(K, std::move(Why), encodeSchedule(Stack));
}

void FleetCoordinator::quarantined(uint64_t Id, const std::string &Why) {
  bump(obs::Counter::FleetQuarantined, Totals.stats().FleetQuarantined);
  recordIncident(Verdict::Crash, Why, LT.unit(Id).Prefix);
}

void FleetCoordinator::died(double Now, size_t Slot, int WaitStatus) {
  SlotState &S = Slots[Slot];
  S.Alive = false;
  uint64_t Id = std::exchange(S.LeaseId, 0);
  if (S.Killed == SlotState::Drained) {
    // A straggler killed by a drain committed nothing: releasing its
    // lease keeps the frontier exact. No penalty, no respawn.
    if (Id)
      LT.release(Id);
    return;
  }
  if (Isolated) {
    if (Id)
      recoverIsolated(S, Id, WaitStatus);
    spawn(Slot, /*Respawn=*/false); // isolation has no respawn budget
    return;
  }
  bump(obs::Counter::FleetWorkerCrashes, Totals.stats().FleetWorkerCrashes);
  if (Id && LT.fail(Id, Now) == LeaseTable::FailOutcome::Requeued)
    bump(obs::Counter::FleetReissues, Totals.stats().FleetReissues);
  else if (Id)
    quarantined(Id, "work unit killed " + std::to_string(LT.attempts(Id)) +
                        " consecutive fleet workers; quarantined");
  if (RespawnsLeft > 0) {
    --RespawnsLeft;
    spawn(Slot, /*Respawn=*/true);
  } // else: reduced width; with no worker left the queue runs in-process.
}

// Isolation's recovery: commit the attempt through its last finished
// execution, attribute the next one with the probe, record it as an
// incident and re-lease the rest of the unit past it.
void FleetCoordinator::recoverIsolated(SlotState &S, uint64_t Id,
                                       int WaitStatus) {
  const CheckpointUnit &U = LT.unit(Id);
  std::optional<std::vector<ScheduleChoice>> Last = std::move(S.Stack);
  commit(std::move(S.Prog));
  // The execution that killed the worker replays advance(the last
  // finished one's stack), or the unit's own prefix if none finished.
  std::vector<ScheduleChoice> Stack = Last ? *Last : U.Prefix;
  bool HavePath = !Last || advancePrefix(Stack, U.FrozenLen, RandomWalk);
  Stack = HavePath ? Probe(Stack, Rng) : *Last; // else: died after the end
  bool Hung = S.Killed == SlotState::Hung;
  recordIncident(Hung ? Verdict::Hang : Verdict::Crash,
                 describeDeath(WaitStatus, Hung, HbTimeout), Stack);
  if (!HavePath)
    return;
  if (RandomWalk) {
    // The same PRNG state would reproduce the crash forever.
    Xorshift Step(Rng);
    Step.next();
    Rng = Step.state();
  }
  // No choice resolves after the crash point, so everything below the
  // crashing stack dies the same death: skip it.
  if (advancePrefix(Stack, U.FrozenLen, RandomWalk))
    LT.add({std::move(Stack), U.FrozenLen});
}

size_t FleetCoordinator::count(bool Busy) const {
  return size_t(std::count_if(Slots.begin(), Slots.begin() + Width,
                              [&](const SlotState &S) {
                                return S.Alive && (!Busy || S.LeaseId);
                              }));
}

uint64_t FleetCoordinator::nextCheckpoint() const {
  uint64_t E = Opts.CheckpointEvery;
  return E ? (Totals.stats().Executions / E + 1) * E : 0;
}

void FleetCoordinator::startDrain(DrainFor Why, double Now, double Grace) {
  Drain = Why;
  DrainKillAt = Now + Grace;
  for (size_t I = 0; I < Width; ++I)
    if (Slots[I].Alive && Slots[I].LeaseId)
      send(I, TagStop);
}

void FleetCoordinator::tick(double Now) {
  for (uint64_t Id : LT.expiredLeases(Now))
    if (size_t(LT.owner(Id)) < Width) // silent past its deadline: hung
      kill(size_t(LT.owner(Id)), SlotState::Hung);
  while (!Finished) {
    if (draining()) {
      // Busy workers were asked to stop and commit their remainder; past
      // the grace deadline the stragglers are killed instead.
      if (Now >= DrainKillAt)
        for (size_t I = 0; I < Width; ++I)
          if (Slots[I].LeaseId)
            kill(I, SlotState::Drained);
      if (LT.leasedCount() > 0)
        return;
      if (std::exchange(Drain, DrainFor::None) == DrainFor::Interrupt) {
        if (LT.pendingCount() > 0) {
          ResumeOut = Totals.checkpoint(LT.pendingUnits(), Rng);
          Interrupted = true;
        }
        Finished = true;
        return;
      }
      bump(obs::Counter::Checkpoints, Totals.stats().Checkpoints);
      Opts.CheckpointSink(*Totals.checkpoint(LT.pendingUnits(), Rng));
      NextCheckpointAt = nextCheckpoint();
      continue;
    }
    if (InterruptReq) {
      startDrain(DrainFor::Interrupt, Now, std::min(2.0, HbTimeout));
      continue;
    }
    const SearchStats &Total = Totals.stats();
    CapHit = Opts.MaxExecutions && Total.Executions >= Opts.MaxExecutions;
    TimedOut |= Opts.TimeBudgetSeconds > 0 && Now >= Opts.TimeBudgetSeconds;
    if (CapHit || TimedOut || LT.pendingCount() == 0) {
      Finished = true;
      return;
    }
    if (NextCheckpointAt && Opts.CheckpointSink &&
        Total.Executions >= NextCheckpointAt) {
      // Barrier: settle every lease so the frontier is exact.
      startDrain(DrainFor::Barrier, Now, 2 * HbTimeout);
      continue;
    }
    issue(Now);
    feedIdle();
    if (Ctr) {
      Ctr->setGauge(obs::Gauge::WorkQueueDepth, LT.queuedCount());
      Ctr->setGauge(obs::Gauge::ActiveWorkers, count(/*Busy=*/true));
    }
    return;
  }
}

// Idle workers are served round robin from the slot after the last one
// served, so none waits behind lower slots while units are scarce. With
// every worker gone (the respawn budget spent, or fork failing) the
// coordinator's own process takes units that never killed a worker;
// crash suspects are quarantined rather than risked in the only process
// left.
void FleetCoordinator::issue(double Now) {
  const bool InProcess = count(/*Busy=*/false) == 0;
  const size_t Start = NextSlot;
  for (size_t K = 0; K < (InProcess ? 1 : Width); ++K) {
    const size_t I = InProcess ? Width : (Start + K) % Width;
    SlotState &S = Slots[I];
    if ((!S.Alive && !InProcess) || S.LeaseId)
      continue;
    const double Deadline = InProcess ? 0 : Now + HbTimeout; // 0: never
    while (uint64_t Id = LT.lease(int(I), Now, Deadline)) {
      if (InProcess && LT.attempts(Id) > 0) {
        LT.quarantine(Id);
        quarantined(Id, "crash-suspect work unit (" +
                            std::to_string(LT.attempts(Id)) +
                            " worker deaths) quarantined: no fleet workers "
                            "left");
        continue;
      }
      if (Totals.afterBest(pathKeyOfPrefix(LT.unit(Id).Prefix))) {
        LT.commit(Id); // retired unrun: it cannot improve the bug
        continue;
      }
      // Bounded overshoot: a unit gets at most the cap's remainder at
      // issue time; committed units count whole.
      uint64_t Exec = Totals.stats().Executions;
      IssuedUnit U{Id, Batch, 0, Rng, LT.unit(Id)};
      if (Opts.MaxExecutions)
        U.Budget = std::min(Batch, Opts.MaxExecutions > Exec
                                       ? Opts.MaxExecutions - Exec
                                       : 1);
      if (Opts.TimeBudgetSeconds > 0)
        U.TimeBudget = std::max(0.001, Opts.TimeBudgetSeconds - Now);
      S.LeaseId = Id;
      S.Prog = UnitDone();
      S.Prog.LeaseId = Id;
      S.Prog.Rng = Rng;
      S.Stack.reset();
      WireWriter W;
      U.put(W);
      if (InProcess) {
        Actions.push_back({FleetAction::RunInProcess, I, TagUnit, W});
        break;
      }
      NextSlot = (I + 1) % Width;
      send(I, TagUnit, std::move(W));
      if (Opts.StopOnFirstBug && Totals.bug()) {
        WireWriter B;
        putBug(B, *Totals.bug());
        send(I, TagBestBug, std::move(B));
      }
      break; // one outstanding unit per worker
    }
  }
}

// A worker idles while nothing is queued and another holds a lease: ask
// that holder to stop early, so the remainder it hands back refills the
// queue. One request is outstanding at a time, spent once the asked
// worker commits or dies.
void FleetCoordinator::feedIdle() {
  if (StopLease && Slots[StopSlot].LeaseId == StopLease)
    return;
  StopLease = 0;
  size_t Busy = count(/*Busy=*/true);
  if (LT.queuedCount() > 0 || Busy == 0 || Busy == count(/*Busy=*/false))
    return;
  for (size_t I = 0; I < Width; ++I)
    if (Slots[I].Alive && Slots[I].LeaseId) {
      send(I, TagStop);
      StopSlot = I;
      StopLease = Slots[I].LeaseId;
      return;
    }
}

CheckResult FleetCoordinator::finish(double Now) {
  // Crash incidents keep their arrival order; runSearch picks the one
  // that stands in as the bug.
  CheckResult R = Totals.finish(CapHit, TimedOut, Interrupted, Now);
  R.Resume = ResumeOut;
  if (Ctr) {
    Ctr->setGauge(obs::Gauge::WorkQueueDepth, 0);
    Ctr->setGauge(obs::Gauge::ActiveWorkers, 0);
  }
  return R;
}
