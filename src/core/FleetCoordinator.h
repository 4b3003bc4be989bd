//===- core/FleetCoordinator.h - The fleet's process-free half -*- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything the process fleet (core/Fleet.h, docs/FLEET.md) decides,
/// apart from the processes: the records both ends of a pipe speak, the
/// worker's reading of its control records (WorkerCtl), and the
/// coordinator's state machine (FleetCoordinator). The coordinator takes
/// events stamped with a caller-supplied clock and queues actions;
/// runFleet forks, polls, reads, writes and reaps around it.
/// Nothing here forks (tests/core/FleetCoordinatorTest.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_CORE_FLEETCOORDINATOR_H
#define FSMC_CORE_FLEETCOORDINATOR_H

#include "core/SearchTotals.h"
#include "core/Wire.h"
#include "core/WorkLease.h"
#include "obs/Counters.h"

#include <deque>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

namespace fsmc {

/// Record tags. Coordinator -> worker: Unit, Stop (finish the current
/// attempt early and commit the remainder), BestBug (the DFS-smallest bug
/// so far, for first-bug pruning) and Shutdown (exit once idle). Worker
/// -> coordinator: UnitDone (the one atomic commit of an attempt),
/// Heartbeat (its lease id) and, under isolation, Progress. The crash
/// probe streams Choice records (one resolved choice each).
enum FleetTag : uint8_t {
  TagUnit = 1,
  TagStop = 2,
  TagBestBug = 3,
  TagShutdown = 4,
  TagUnitDone = 16,
  TagHeartbeat = 17,
  TagProgress = 18,
  TagChoice = 19,
};

/// Unit: one leased attempt.
struct IssuedUnit {
  uint64_t LeaseId = 0;
  uint64_t Budget = 0;   ///< Executions.
  double TimeBudget = 0; ///< Seconds; 0 = none.
  uint64_t Rng = 0;
  CheckpointUnit Work;

  void put(wire::WireWriter &W) const;
  static std::optional<IssuedUnit> get(wire::WireReader R);
};

/// UnitDone: an attempt's stats, bug and incidents (Part), its coverage,
/// its end PRNG state, the rest of its unit (Explorer::handBack) and,
/// when the coordinator counts, its counter delta.
struct UnitDone {
  uint64_t LeaseId = 0;
  bool TimedOut = false; ///< The attempt's own time budget expired.
  CheckResult Part;
  uint64_t Rng = 0;
  std::vector<uint64_t> States;
  std::vector<CheckpointUnit> Remainder;
  std::optional<obs::CounterSnapshot> Counters;

  void put(wire::WireWriter &W) const;
  static std::optional<UnitDone> get(wire::WireReader R);
};

/// Progress (isolation): the attempt after each execution. Stats and
/// Counters are the attempt's so far; States, Incidents and Bug are what
/// this execution added.
struct ProgressRecord {
  uint64_t LeaseId = 0;
  SearchStats Stats;
  uint64_t Rng = 0;
  std::vector<ScheduleChoice> Stack; ///< The execution's consumed stack.
  std::vector<uint64_t> States;
  std::vector<BugReport> Incidents;
  std::optional<BugReport> Bug;
  std::optional<obs::CounterSnapshot> Counters;

  void put(wire::WireWriter &W) const;
  static std::optional<ProgressRecord> get(wire::WireReader R);
};

void putBug(wire::WireWriter &W, const BugReport &B);

/// A worker's reading of its down pipe, fed raw bytes in any
/// fragmentation. A Stop read after a Unit is for that unit, even when
/// both arrive in one read; a Stop read before it was for the previous
/// attempt. Garbled records are dropped.
struct WorkerCtl {
  explicit WorkerCtl(const CheckerOptions &Opts) : Best(Opts) {}
  void feed(const char *P, size_t N);

  std::deque<IssuedUnit> Units;
  bool StopReq = false;
  bool Shutdown = false;
  SearchTotals Best; ///< Holds only the coordinator's best bug.

private:
  wire::FrameParser Frames;
};

/// What runFleet must do for the coordinator. Slot width() is the
/// coordinator's own process: RunInProcess runs the unit in Record there.
struct FleetAction {
  enum Kind : uint8_t { Send, Spawn, Kill, RunInProcess } K = Send;
  size_t Slot = 0;
  uint8_t Tag = 0;         ///< Send.
  wire::WireWriter Record; ///< Send, RunInProcess.
};

/// The fleet's policy: leases, commits, deaths and their recovery,
/// isolation's crash attribution, checkpoint barriers and drains. Slots
/// 0..width()-1 are worker processes; runFleet reports each Spawn with
/// spawned(), reads records into heartbeat/progress/unitDone, reports
/// reaped workers with died() and calls tick() once per loop.
class FleetCoordinator {
public:
  /// Re-runs the execution whose replay prefix is \p Prefix with PRNG
  /// state \p Rng and returns the stack it died at (isolation).
  using CrashProbe = std::function<std::vector<ScheduleChoice>(
      const std::vector<ScheduleChoice> &Prefix, uint64_t Rng)>;

  /// Queues a Spawn for every slot. \p Opts must outlive the coordinator.
  FleetCoordinator(const CheckerOptions &Opts, const CheckpointState *Resume,
                   CrashProbe Probe);

  void spawned(size_t Slot, bool Ok);
  void heartbeat(double Now, size_t Slot, uint64_t LeaseId);
  /// A null record is garbled: dropped for Progress, fatal for UnitDone.
  void progress(double Now, size_t Slot, std::optional<ProgressRecord> R);
  void unitDone(double Now, size_t Slot, std::optional<UnitDone> R);
  void died(double Now, size_t Slot, int WaitStatus);
  void interrupt() { InterruptReq = true; }
  /// Expires heartbeats, advances a drain, checks the search's stop
  /// conditions and the checkpoint schedule, issues units to idle slots
  /// and stops a busy worker for an idle one.
  void tick(double Now);

  std::vector<FleetAction> takeActions() { return std::exchange(Actions, {}); }
  bool done() const { return Finished; }
  bool draining() const { return Drain != DrainFor::None; }
  size_t width() const { return Width; }
  double heartbeatTimeout() const { return HbTimeout; }
  const SearchTotals &totals() const { return Totals; }
  const LeaseTable &leases() const { return LT; }
  uint64_t rng() const { return Rng; }
  uint64_t leaseOf(size_t Slot) const { return Slots[Slot].LeaseId; }
  /// The result; call once, after done().
  CheckResult finish(double Now);

private:
  struct SlotState {
    bool Alive = false;
    bool Respawn = false; ///< The pending spawn replaces a dead worker.
    enum KillReason : uint8_t { NotKilled, Garbled, Hung, Drained };
    KillReason Killed = NotKilled;
    uint64_t LeaseId = 0; ///< 0 = idle.
    /// Isolation: the attempt through its last Progress, and that
    /// execution's stack (none before the first).
    UnitDone Prog;
    std::optional<std::vector<ScheduleChoice>> Stack;
  };
  enum class DrainFor { None, Barrier, Interrupt };

  void send(size_t Slot, uint8_t Tag, wire::WireWriter W = {});
  void spawn(size_t Slot, bool Respawn);
  /// Counts one more in a stats row and, when observed, its counter.
  void bump(obs::Counter C, uint64_t &Row);
  void kill(size_t Slot, SlotState::KillReason Why);
  void commit(UnitDone &&D);
  void recoverIsolated(SlotState &S, uint64_t Id, int WaitStatus);
  void recordIncident(Verdict K, std::string Why,
                      const std::vector<ScheduleChoice> &Stack);
  void quarantined(uint64_t Id, const std::string &Why);
  void issue(double Now);
  void feedIdle();
  void startDrain(DrainFor Why, double Now, double Grace);
  size_t count(bool Busy) const;
  uint64_t nextCheckpoint() const;

  const CheckerOptions &Opts;
  const bool Isolated, RandomWalk;
  const size_t Width;
  const uint64_t Batch;
  const double HbTimeout;
  CrashProbe Probe;
  obs::WorkerCounters *Ctr;
  int RespawnsLeft;
  LeaseTable LT;
  SearchTotals Totals;
  /// The PRNG state units start from. It chains through the executions
  /// only under isolation, where one worker runs them in serial order;
  /// fleet attempts all start from the seed.
  uint64_t Rng;
  std::vector<SlotState> Slots; ///< Width workers, then the coordinator.
  std::vector<FleetAction> Actions;
  size_t NextSlot = 0;      ///< Round-robin start for idle slots.
  size_t StopSlot = 0;      ///< The one outstanding idle-feeding Stop...
  uint64_t StopLease = 0;   ///< ...and the lease it was sent for.
  uint64_t NextCheckpointAt;
  DrainFor Drain = DrainFor::None;
  double DrainKillAt = 0;
  bool InterruptReq = false, Interrupted = false, CapHit = false,
       TimedOut = false, Finished = false;
  std::shared_ptr<CheckpointState> ResumeOut;
};

} // namespace fsmc

#endif // FSMC_CORE_FLEETCOORDINATOR_H
