//===- core/Fleet.cpp - Supervised multi-process exploration --------------===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
// Process layout: the coordinator (this file's runFleet) forks
// FleetWorkers long-lived children, each running fleetWorkerMain in a
// blocking read loop on its "down" pipe. One unit is outstanding per
// worker at a time, so the down pipe never fills and coordinator writes
// never block. All records use the core/Wire.h framing; fork without exec
// means trivially-copyable payloads cross as raw bytes.
//
// The exactness invariant everything rests on: a worker commits an
// attempt with ONE atomic UnitDone record carrying the attempt's stats,
// bug, incidents, coverage delta and remainder units. A worker that
// dies mid-attempt therefore commits nothing, and re-running the same
// unit on another worker reproduces the identical deterministic attempt.
// Committed stats plus pending units always describe exactly the
// remaining search, which is why verdicts and incident sets match
// --jobs=N even under FSMC_FLEET_CHAOS fault injection.
//
// The isolation policy (--isolate=batch) is the same machinery at width 1
// with a finer commit grain. The worker also streams a Progress record
// after every execution (stats, PRNG state, consumed stack, coverage and
// race deltas), so when it dies the coordinator commits the attempt
// through its last finished execution, forks a probe that re-runs the
// next execution with every choice streamed -- the choices seen when the
// probe dies are the crashing stack -- records a Crash/Hang incident,
// re-leases the rest of the unit past that stack, and respawns the
// worker. One bad execution costs one execution. With one worker leasing
// the DFS-smallest unit, executions run in serial DFS order, and the
// PRNG chains through them as it does in the serial explorer.
//
//===----------------------------------------------------------------------===//

#include "core/Fleet.h"

#include "core/Checkpoint.h"
#include "core/Explorer.h"
#include "core/Schedule.h"
#include "core/SearchTotals.h"
#include "core/Wire.h"
#include "core/WorkLease.h"
#include "obs/Observer.h"
#include "runtime/StackPool.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace fsmc;
using wire::FrameParser;
using wire::WireReader;
using wire::WireWriter;
using wire::writeRecord;

namespace {

//===----------------------------------------------------------------------===//
// Protocol
//===----------------------------------------------------------------------===//

// Coordinator -> worker.
enum DownTag : uint8_t {
  TagUnit = 1,     // lease id, budget, time budget, PRNG, frozen len, prefix
  TagStop = 2,     // finish the current attempt early, commit the remainder
  TagBestBug = 3,  // DFS-smallest bug key so far (first-bug pruning)
  TagShutdown = 4, // exit once idle
};

// Worker -> coordinator.
enum UpTag : uint8_t {
  TagUnitDone = 16, // the one atomic commit record per attempt
  TagHeartbeat = 17,
  TagProgress = 18, // isolation: the attempt as of its last execution
  TagChoice = 19,   // crash probe: one resolved choice
};

enum UnitDoneFlag : uint8_t {
  FlagTimedOut = 1, // the attempt's own time budget expired
};

void putBug(WireWriter &W, const BugReport &B) {
  W.u8(uint8_t(B.Kind));
  W.str(B.Message);
  W.str(B.TraceText);
  W.str(B.Schedule);
  W.u64(B.AtExecution);
  W.u64(B.AtStep);
}

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

/// A counted list of the reports in \p B from index \p From on.
void putBugs(WireWriter &W, const std::vector<BugReport> &B, size_t From) {
  W.u32(uint32_t(B.size() - From));
  for (size_t I = From; I < B.size(); ++I)
    putBug(W, B[I]);
}

std::vector<BugReport> getBugs(WireReader &R) {
  uint32_t N = R.u32();
  std::vector<BugReport> Out;
  for (uint32_t I = 0; I < N && R.Ok; ++I)
    Out.push_back(getBug(R));
  return Out;
}

void putOptBug(WireWriter &W, const std::optional<BugReport> &B) {
  W.u8(B ? 1 : 0);
  if (B)
    putBug(W, *B);
}

std::optional<BugReport> getOptBug(WireReader &R) {
  if (!R.u8())
    return std::nullopt;
  return getBug(R);
}

// A worker's counter delta ends its UnitDone and Progress records when the
// coordinator has an Observer; it crosses as raw bytes.
static_assert(std::is_trivially_copyable_v<obs::CounterSnapshot>);

void putCounters(WireWriter &W, const obs::CounterSnapshot &C) {
  W.raw(&C, sizeof C);
}

obs::CounterSnapshot getCounters(WireReader &R) {
  obs::CounterSnapshot C;
  R.take(&C, sizeof C);
  return C;
}

//===----------------------------------------------------------------------===//
// Serialized stacks
//===----------------------------------------------------------------------===//

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

//===----------------------------------------------------------------------===//
// Chaos fault injection (FSMC_FLEET_CHAOS=kill:<n>,hang:<n>; test-only)
//===----------------------------------------------------------------------===//

/// Armed workers self-destruct after this many lifetime executions --
/// late enough to be mid-attempt, early enough for small test searches.
constexpr uint64_t ChaosTriggerExecs = 3;

struct ChaosSpec {
  int Kills = 0; // next N spawned workers SIGKILL themselves
  int Hangs = 0; // following N spawned workers hang (stop heartbeating)
};

ChaosSpec parseChaos(const char *Env) {
  ChaosSpec C;
  if (!Env)
    return C;
  const char *P = Env;
  while (*P) {
    if (std::strncmp(P, "kill:", 5) == 0)
      C.Kills = std::atoi(P + 5);
    else if (std::strncmp(P, "hang:", 5) == 0)
      C.Hangs = std::atoi(P + 5);
    const char *Comma = std::strchr(P, ',');
    if (!Comma)
      break;
    P = Comma + 1;
  }
  if (C.Kills < 0)
    C.Kills = 0;
  if (C.Hangs < 0)
    C.Hangs = 0;
  return C;
}

//===----------------------------------------------------------------------===//
// Attempts (workers and the in-process fallback) and the crash probe
//===----------------------------------------------------------------------===//

struct IssuedUnit {
  uint64_t LeaseId = 0;
  uint64_t Budget = 0;
  double TimeBudget = 0;
  uint64_t Rng = 0;
  CheckpointUnit Work;
};

/// One attempt at a unit on a fresh serial explorer (unit-local stats).
struct Attempt {
  const IssuedUnit &U;
  Explorer E;
  std::vector<CheckpointUnit> Remainder;

  Attempt(const TestProgram &Program, const CheckerOptions &Opts,
          const IssuedUnit &U, StackPool *Pool)
      : U(U), E(Program, Opts) {
    if (Opts.ReuseExecutionState)
      E.setStackPool(Pool);
    if (!U.Work.Prefix.empty())
      E.preloadScheduleFrozenPrefix(U.Work.Prefix, U.Work.FrozenLen);
    E.setRngState(U.Rng);
  }

  /// Runs the attempt, asking \p Stop(explorer, executions so far) after
  /// every execution. On a stop the unexplored rest lands in Remainder
  /// (Explorer::handBack).
  template <typename Fn> CheckResult run(Fn Stop) {
    uint64_t Done = 0;
    E.setExecutionHook([&](Explorer &Ex) {
      if (!Stop(Ex, ++Done))
        return true;
      Ex.handBack(Remainder);
      return false;
    });
    return E.run();
  }

  std::vector<uint64_t> sortedStates() const {
    std::vector<uint64_t> SS(E.seenStates().begin(), E.seenStates().end());
    std::sort(SS.begin(), SS.end());
    return SS;
  }
};

/// The coordinator owns interrupt policy; children die by pipe EOF,
/// TagShutdown, or SIGKILL. SIGPIPE must not kill a child whose
/// coordinator vanished mid-write.
void detachChildSignals() {
  ::signal(SIGINT, SIG_IGN);
  ::signal(SIGTERM, SIG_IGN);
  ::signal(SIGPIPE, SIG_IGN);
}

/// Re-runs the one execution whose replay prefix is \p Prefix in a forked
/// probe that streams every choice as it resolves. A deterministic program
/// cannot die inside the replay region it already survived, so the
/// choices streamed before the probe dies (or goes silent for
/// \p Watchdog seconds) are the exact stack of the execution that killed
/// the worker. Falls back to \p Prefix when the probe cannot run.
std::vector<ScheduleChoice>
probeCrashStack(const TestProgram &Program, CheckerOptions Opts,
                const std::vector<ScheduleChoice> &Prefix, uint64_t Rng,
                double Watchdog) {
  int P[2];
  if (::pipe(P) != 0)
    return Prefix;
  pid_t Pid = ::fork();
  if (Pid < 0) {
    ::close(P[0]);
    ::close(P[1]);
    return Prefix;
  }
  if (Pid == 0) {
    detachChildSignals();
    ::close(P[0]);
    Opts.MaxExecutions = 1;
    Explorer E(Program, Opts);
    E.preloadSchedule(Prefix, /*Frozen=*/true);
    E.setRngState(Rng);
    E.setChoiceStream([&](int Chosen, int Num, bool Backtrack,
                          uint64_t SleepMask, uint64_t FlushMask) {
      WireWriter W;
      W.choices({{Chosen, Num, Backtrack, SleepMask, FlushMask}});
      writeRecord(P[1], TagChoice, W);
    });
    (void)E.run();
    _exit(0);
  }
  ::close(P[1]);
  std::vector<ScheduleChoice> Streamed;
  FrameParser Frames;
  auto LastActivity = std::chrono::steady_clock::now();
  bool Killed = false;
  for (;;) {
    struct pollfd Pfd = {P[0], POLLIN, 0};
    int N = ::poll(&Pfd, 1, 100);
    if (N < 0 && errno != EINTR)
      break;
    if (N > 0) {
      char Buf[4096];
      ssize_t R = ::read(P[0], Buf, sizeof Buf);
      if (R == 0 || (R < 0 && errno != EINTR))
        break; // EOF: the probe died or finished.
      if (R > 0) {
        Frames.feed(Buf, size_t(R), [&](uint8_t Tag, WireReader Rd) {
          std::vector<ScheduleChoice> C = Rd.choices();
          if (Tag == TagChoice && Rd.Ok)
            Streamed.insert(Streamed.end(), C.begin(), C.end());
        });
        LastActivity = std::chrono::steady_clock::now();
      }
      continue;
    }
    if (!Killed && std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - LastActivity)
                           .count() > Watchdog) {
      ::kill(Pid, SIGKILL);
      Killed = true;
    }
  }
  ::close(P[0]);
  int Status = 0;
  while (::waitpid(Pid, &Status, 0) < 0 && errno == EINTR)
    ;
  return Streamed.empty() ? Prefix : Streamed;
}

//===----------------------------------------------------------------------===//
// Worker side
//===----------------------------------------------------------------------===//

struct WorkerConfig {
  const TestProgram *Program = nullptr;
  CheckerOptions Opts; // stripped attempt options (no Obs, no budgets)
  /// Set when the coordinator counts: the worker then counts into its
  /// own sink-less registry and ships the counts with its stats.
  std::optional<obs::Observer::Config> Counting;
  bool WantStates = false;
  bool Isolated = false; // stream a Progress record per execution
  double HeartbeatPeriod = 0.1;
  uint64_t KillAfter = 0; // chaos: SIGKILL self after N lifetime execs
  uint64_t HangAfter = 0; // chaos: hang (no heartbeats) after N execs
};

/// The worker's view of the down pipe: one FrameParser shared between the
/// idle read loop and the mid-attempt control pump, so records survive
/// arbitrary fragmentation across both.
struct WorkerCtl {
  int DownFd = -1;
  FrameParser Frames;
  std::deque<IssuedUnit> Units;
  bool StopReq = false;
  bool Shutdown = false;
  bool HaveBest = false;
  std::vector<int> BestKey;

  void onRecord(uint8_t Tag, WireReader R) {
    switch (Tag) {
    case TagUnit: {
      IssuedUnit U;
      U.LeaseId = R.u64();
      U.Budget = R.u64();
      U.TimeBudget = R.f64();
      U.Rng = R.u64();
      U.Work = R.unit();
      if (R.Ok) {
        Units.push_back(std::move(U));
        // A Stop read before this unit was for the previous attempt; one
        // read after it is for this one, even when both arrive together.
        StopReq = false;
      }
      break;
    }
    case TagStop:
      StopReq = true;
      break;
    case TagBestBug: {
      uint32_t N = R.u32();
      std::vector<int> Key;
      Key.reserve(N);
      for (uint32_t I = 0; I < N && R.Ok; ++I)
        Key.push_back(int(R.u32()));
      if (R.Ok) {
        HaveBest = true;
        BestKey = std::move(Key);
      }
      break;
    }
    case TagShutdown:
      Shutdown = true;
      break;
    }
  }

  /// Drains whatever is readable; with \p Block, waits for at least one
  /// byte first. EOF or a read error means the coordinator is gone -- the
  /// worker has nothing left to live for.
  void pump(bool Block) {
    for (;;) {
      struct pollfd P = {DownFd, POLLIN, 0};
      int R = ::poll(&P, 1, Block ? -1 : 0);
      if (R < 0) {
        if (errno == EINTR)
          continue;
        _exit(0);
      }
      if (R == 0)
        return;
      char Buf[4096];
      ssize_t N = ::read(DownFd, Buf, sizeof Buf);
      if (N < 0) {
        if (errno == EINTR)
          continue;
        _exit(0);
      }
      if (N == 0)
        _exit(0); // coordinator closed the pipe
      Frames.feed(Buf, size_t(N),
                  [&](uint8_t Tag, WireReader Rd) { onRecord(Tag, Rd); });
      Block = false; // got something; finish draining and return
    }
  }
};

/// The worker process: loop forever running issued units, one fresh
/// serial Explorer per attempt (unit-local stats, shared stack pool), and
/// commit each with a single UnitDone record.
[[noreturn]] void fleetWorkerMain(const WorkerConfig &Cfg, int DownFd,
                                  int UpFd) {
  detachChildSignals();

  WorkerCtl Ctl;
  Ctl.DownFd = DownFd;
  StackPool Pool; // persists across attempts (fiber-stack reuse)
  std::optional<obs::Observer> Obs;
  if (Cfg.Counting)
    Obs.emplace(*Cfg.Counting);
  uint64_t LifetimeExecs = 0;

  for (;;) {
    Ctl.pump(/*Block=*/Ctl.Units.empty());
    if (Ctl.Units.empty()) {
      if (Ctl.Shutdown)
        _exit(0);
      continue;
    }
    IssuedUnit U = std::move(Ctl.Units.front());
    Ctl.Units.pop_front();

    CheckerOptions AOpts = Cfg.Opts;
    AOpts.TimeBudgetSeconds = U.TimeBudget;
    AOpts.Obs = Obs ? &*Obs : nullptr;
    Attempt A(*Cfg.Program, AOpts, U, &Pool);
    if (Cfg.Isolated && Cfg.WantStates)
      A.E.enableStateLog();
    auto LastBeat = std::chrono::steady_clock::now();
    bool SentBeat = false;
    // What earlier Progress records already carried.
    size_t StatesSent = 0, IncidentsSent = 0;
    bool BugSent = false;

    CheckResult R = A.run([&](Explorer &Ex, uint64_t Done) {
      ++LifetimeExecs;
      // Fault injection: die or go silent mid-attempt, before anything
      // is committed -- exactly the failure the recovery path must mask.
      if (Cfg.KillAfter && LifetimeExecs >= Cfg.KillAfter)
        ::kill(::getpid(), SIGKILL);
      if (Cfg.HangAfter && LifetimeExecs >= Cfg.HangAfter)
        for (;;)
          ::pause();
      auto NowT = std::chrono::steady_clock::now();
      if (Cfg.Isolated) {
        // Isolation commits through the last finished execution, so every
        // execution reports; the record doubles as the heartbeat.
        WireWriter W;
        W.u64(U.LeaseId);
        W.stats(Ex.currentStats());
        W.u64(Ex.rngState());
        W.choices(Ex.currentStackSnapshot());
        const std::vector<uint64_t> &Log = Ex.stateLog();
        W.states(Log.data() + StatesSent, Log.size() - StatesSent);
        StatesSent = Log.size();
        putBugs(W, Ex.incidents(), IncidentsSent);
        IncidentsSent = Ex.incidents().size();
        putOptBug(W, BugSent ? std::optional<BugReport>() : Ex.bug());
        BugSent = Ex.bug().has_value();
        if (Obs) // the attempt's counts so far, like its stats
          putCounters(W, Obs->snapshot());
        if (!writeRecord(UpFd, TagProgress, W))
          _exit(0);
      } else if (!SentBeat ||
                 std::chrono::duration<double>(NowT - LastBeat).count() >=
                     Cfg.HeartbeatPeriod) {
        WireWriter W;
        W.u64(U.LeaseId);
        W.u64(LifetimeExecs);
        if (!writeRecord(UpFd, TagHeartbeat, W))
          _exit(0);
        LastBeat = NowT;
        SentBeat = true;
      }
      Ctl.pump(/*Block=*/false);
      // Everything still unexplored in this unit is DFS-after the path
      // just consumed; if that path is already at-or-after the best bug,
      // nothing here can improve it (SearchTotals::afterBest, on the key
      // the coordinator sent; the coordinator retires the remainder unrun).
      if (Ctl.HaveBest && Cfg.Opts.StopOnFirstBug &&
          !dfsBefore(Ex.consumedPathKey(), Ctl.BestKey))
        return true;
      return Ctl.StopReq || Ctl.Shutdown || Done >= U.Budget;
    });

    WireWriter W;
    W.u64(U.LeaseId);
    W.u8(R.Stats.TimedOut ? FlagTimedOut : 0);
    W.stats(R.Stats);
    W.u64(A.E.rngState());
    putOptBug(W, R.Bug);
    putBugs(W, R.Incidents, 0);
    std::vector<uint64_t> SS;
    if (Cfg.WantStates)
      SS = A.sortedStates();
    W.states(SS.data(), SS.size());
    W.u32(uint32_t(A.Remainder.size()));
    for (const CheckpointUnit &Rem : A.Remainder)
      W.unit(Rem);
    if (Obs) // the whole attempt's counts; the next attempt starts at zero
      putCounters(W, Obs->drain());
    if (!writeRecord(UpFd, TagUnitDone, W))
      _exit(0);
    // Wait for the coordinator's next word before tearing the attempt
    // down: on Shutdown the worker exits at once instead of first
    // unwinding its explorer.
    while (Ctl.Units.empty() && !Ctl.Shutdown)
      Ctl.pump(/*Block=*/true);
    if (Ctl.Shutdown)
      _exit(0);
  }
}

//===----------------------------------------------------------------------===//
// Coordinator side
//===----------------------------------------------------------------------===//

/// Isolation: a leased attempt as of its last finished execution.
struct Progress {
  bool Have = false;
  CheckResult Part; // stats (cumulative over the attempt), incidents, bug
  uint64_t Rng = 0;
  std::vector<ScheduleChoice> Stack;
  std::vector<uint64_t> States;  // accumulated coverage deltas
  obs::CounterSnapshot Counters; // cumulative over the attempt
};

struct FleetWorker {
  pid_t Pid = -1;
  int DownFd = -1; // coordinator -> worker
  int UpFd = -1;   // worker -> coordinator
  FrameParser Frames;
  uint64_t LeaseId = 0; // 0 = idle
  bool Alive = false;
  bool UpEof = false;
  bool KillSent = false;    // SIGKILL already delivered
  bool Hung = false;        // killed for missing its heartbeat deadline
  bool DrainKilled = false; // deliberately killed as a drain straggler
  Progress Prog;
};

bool spawnWorker(FleetWorker &W, const WorkerConfig &BaseCfg,
                 ChaosSpec &Chaos) {
  int Down[2], Up[2];
  if (::pipe(Down) != 0)
    return false;
  if (::pipe(Up) != 0) {
    ::close(Down[0]);
    ::close(Down[1]);
    return false;
  }
  // Chaos arming happens at spawn so replacements fork unarmed once the
  // configured fault count is spent -- the search then finishes cleanly.
  uint64_t KillAfter = 0, HangAfter = 0;
  if (Chaos.Kills > 0) {
    KillAfter = ChaosTriggerExecs;
    --Chaos.Kills;
  } else if (Chaos.Hangs > 0) {
    HangAfter = ChaosTriggerExecs;
    --Chaos.Hangs;
  }
  pid_t Pid = ::fork();
  if (Pid < 0) {
    ::close(Down[0]);
    ::close(Down[1]);
    ::close(Up[0]);
    ::close(Up[1]);
    return false;
  }
  if (Pid == 0) {
    ::close(Down[1]);
    ::close(Up[0]);
    WorkerConfig Cfg = BaseCfg;
    Cfg.KillAfter = KillAfter;
    Cfg.HangAfter = HangAfter;
    fleetWorkerMain(Cfg, Down[0], Up[1]);
  }
  ::close(Down[0]);
  ::close(Up[1]);
  W = FleetWorker();
  W.Pid = Pid;
  W.DownFd = Down[1];
  W.UpFd = Up[0];
  W.Alive = true;
  return true;
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

CheckResult fsmc::runFleet(const TestProgram &Program,
                           const CheckerOptions &Opts,
                           const CheckpointState *ResumeCK) {
  auto StartTime = std::chrono::steady_clock::now();
  auto elapsed = [&]() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         StartTime)
        .count();
  };
  // A worker dying mid-read must surface as EPIPE from write(), never as
  // a fatal signal to the coordinator.
  wire::ScopedSigpipeIgnore NoSigpipe;

  const bool Isolated = Opts.Isolate == IsolationMode::Batch;
  const bool RandomWalk = Opts.Kind == SearchKind::RandomWalk;
  const bool WantStates = Opts.TrackCoverage || Opts.ExportStateSignatures;
  const int Width = Isolated ? 1 : std::max(1, Opts.FleetWorkers);
  const uint64_t Batch = Opts.BatchSize > 0 ? uint64_t(Opts.BatchSize) : 64;
  const double HbTimeout =
      Opts.FleetHeartbeatTimeout > 0
          ? Opts.FleetHeartbeatTimeout
          : (Opts.HangTimeoutSeconds > 0 ? Opts.HangTimeoutSeconds : 10.0);
  int RespawnsLeft =
      Opts.FleetRespawnBudget >= 0 ? Opts.FleetRespawnBudget : 2 * Width + 2;

  obs::WorkerCounters *Ctr = Opts.Obs ? &Opts.Obs->shard(0) : nullptr;

  // Attempt options: in-process serial exploration with every
  // parent-owned mechanism stripped. Budgets are enforced per-unit through
  // the execution hook, and the coordinator's observer must stay out of
  // children -- fork duplicates sink FILE buffers; workers count into
  // their own (WorkerConfig::Counting). Profiles cannot cross the pipe
  // (shared_ptr payload).
  CheckerOptions ChildOpts = Opts;
  ChildOpts.Obs = nullptr;
  ChildOpts.InterruptFlag = nullptr;
  ChildOpts.CheckpointEvery = 0;
  ChildOpts.CheckpointSink = nullptr;
  ChildOpts.ExportStateSignatures = false;
  ChildOpts.TrackCoverage = WantStates;
  ChildOpts.MaxExecutions = 0;
  ChildOpts.ProfileSearch = false;

  WorkerConfig BaseCfg;
  BaseCfg.Program = &Program;
  BaseCfg.Opts = ChildOpts;
  if (Opts.Obs) {
    obs::Observer::Config OC;
    OC.MaxWorkers = 1;
    OC.StepTiming = Opts.Obs->stepTiming();
    OC.PhaseTiming = Opts.Obs->phaseTiming();
    BaseCfg.Counting = OC;
  }
  BaseCfg.WantStates = WantStates;
  BaseCfg.Isolated = Isolated;
  BaseCfg.HeartbeatPeriod = std::min(0.1, HbTimeout / 4);

  // Fault injection targets the fleet's re-issue path, which isolation
  // replaces with crash attribution; its workers are never armed.
  ChaosSpec Chaos =
      Isolated ? ChaosSpec() : parseChaos(std::getenv("FSMC_FLEET_CHAOS"));

  LeaseTable::Config LC;
  LC.QuarantineAfter = Opts.FleetQuarantine > 0 ? Opts.FleetQuarantine : 3;
  LeaseTable LT(LC);

  // The committed search (core/SearchTotals.h); attempts enter it only
  // through commitAttempt.
  SearchTotals Totals(Opts, ResumeCK);
  SearchStats &Total = Totals.stats();
  // The PRNG state units start from. It chains from execution to
  // execution only under isolation, where one worker runs them in serial
  // order; fleet attempts all start from the seed.
  uint64_t Rng = Opts.Seed;

  bool Interrupted = false, CapHit = false, TimedOut = false;
  std::shared_ptr<CheckpointState> ResumeOut;

  if (ResumeCK) {
    if (Isolated && ResumeCK->Rng)
      Rng = ResumeCK->Rng;
    for (const CheckpointUnit &U : ResumeCK->Frontier)
      LT.add(U);
  } else {
    LT.add({}); // the whole choice tree
  }

  auto bump = [&](obs::Counter C, uint64_t &Field) {
    ++Field;
    if (Ctr)
      Ctr->add(C);
  };

  std::vector<FleetWorker> Workers;
  Workers.resize(size_t(Width));
  for (FleetWorker &W : Workers)
    (void)spawnWorker(W, BaseCfg, Chaos);

  auto aliveCount = [&]() {
    size_t N = 0;
    for (const FleetWorker &W : Workers)
      if (W.Alive)
        ++N;
    return N;
  };
  auto busyCount = [&]() {
    size_t N = 0;
    for (const FleetWorker &W : Workers)
      if (W.Alive && W.LeaseId)
        ++N;
    return N;
  };

  auto sendTo = [&](FleetWorker &W, uint8_t Tag, const WireWriter &Wr) {
    return writeRecord(W.DownFd, Tag, Wr);
  };
  auto bestBugRecord = [&]() {
    WireWriter Wr;
    Wr.u32(uint32_t(Totals.bestKey().size()));
    for (int K : Totals.bestKey())
      Wr.u32(uint32_t(K));
    return Wr;
  };
  auto broadcastBestBug = [&]() {
    WireWriter Wr = bestBugRecord();
    for (FleetWorker &W : Workers)
      if (W.Alive && W.LeaseId)
        (void)sendTo(W, TagBestBug, Wr); // EPIPE = dead; reaped below
  };

  auto recordIncident = [&](Verdict K, std::string Why,
                            const std::vector<ScheduleChoice> &Stack) {
    if (Ctr)
      Ctr->add(K == Verdict::Hang ? obs::Counter::Hangs
                                  : obs::Counter::Crashes);
    Totals.addCrash(K, std::move(Why), encodeSchedule(Stack));
  };
  auto quarantineIncident = [&](uint64_t Id, const std::string &Why) {
    bump(obs::Counter::FleetQuarantined, Total.FleetQuarantined);
    recordIncident(Verdict::Crash, Why, LT.unit(Id).Prefix);
  };

  // Merges one committed attempt -- the only way search results enter the
  // totals, shared by UnitDone, isolation's partial commits and the
  // in-process fallback. \p Counts is what the attempt counted.
  auto commitAttempt = [&](uint64_t LeaseId, const CheckResult &Part,
                           const std::vector<uint64_t> &UnitStates,
                           const obs::CounterSnapshot &Counts,
                           bool AttemptTimedOut,
                           std::vector<CheckpointUnit> &&Rem,
                           uint64_t EndRng, bool Broadcast) {
    if (Ctr) {
      Ctr->addDelta(Counts);
      Ctr->add(obs::Counter::FleetUnits);
    }
    uint64_t NewRaces = Totals.add(Part, UnitStates);
    if (Ctr && NewRaces)
      Ctr->add(obs::Counter::RacesFound, NewRaces);
    if (Part.Bug && Totals.offerBug(*Part.Bug) && Broadcast &&
        Opts.StopOnFirstBug)
      broadcastBestBug();
    for (CheckpointUnit &U : Rem)
      LT.add(std::move(U));
    LT.commit(LeaseId);
    if (AttemptTimedOut)
      TimedOut = true;
    if (Isolated)
      Rng = EndRng;
  };

  auto commitUnitDone = [&](FleetWorker &W, WireReader R) {
    uint64_t LeaseId = R.u64();
    uint8_t Flags = R.u8();
    CheckResult Part;
    Part.Stats = R.stats();
    uint64_t EndRng = R.u64();
    Part.Bug = getOptBug(R);
    Part.Incidents = getBugs(R);
    std::vector<uint64_t> UnitStates = R.states();
    uint32_t NRem = R.u32();
    std::vector<CheckpointUnit> Rem;
    for (uint32_t I = 0; I < NRem && R.Ok; ++I)
      Rem.push_back(R.unit());
    obs::CounterSnapshot Counts = Ctr ? getCounters(R) : obs::CounterSnapshot();
    if (!R.Ok || LeaseId == 0 || LeaseId != W.LeaseId) {
      // Garbled commit: the worker is compromised; kill it and let the
      // reap path fail its lease so nothing half-merged survives.
      if (W.Alive && !W.KillSent) {
        ::kill(W.Pid, SIGKILL);
        W.KillSent = true;
      }
      return;
    }
    W.LeaseId = 0;
    commitAttempt(LeaseId, Part, UnitStates, Counts,
                  (Flags & FlagTimedOut) != 0, std::move(Rem), EndRng,
                  /*Broadcast=*/true);
  };

  auto noteProgress = [&](FleetWorker &W, WireReader R) {
    uint64_t LeaseId = R.u64();
    SearchStats S = R.stats();
    uint64_t AtRng = R.u64();
    std::vector<ScheduleChoice> Stack = R.choices();
    std::vector<uint64_t> Delta = R.states();
    std::vector<BugReport> Incs = getBugs(R);
    std::optional<BugReport> Bug = getOptBug(R);
    obs::CounterSnapshot Counts = Ctr ? getCounters(R) : obs::CounterSnapshot();
    if (!R.Ok || LeaseId == 0 || LeaseId != W.LeaseId)
      return;
    Progress &P = W.Prog;
    P.Have = true;
    P.Part.Stats = S;
    P.Rng = AtRng;
    P.Stack = std::move(Stack);
    P.States.insert(P.States.end(), Delta.begin(), Delta.end());
    P.Part.Incidents.insert(P.Part.Incidents.end(), Incs.begin(), Incs.end());
    if (Bug)
      P.Part.Bug = std::move(Bug);
    P.Counters = Counts;
    LT.renew(LeaseId, elapsed() + HbTimeout);
  };

  // Isolation's recovery from a worker death: commit the attempt through
  // its last finished execution, attribute the next one with a probe,
  // record it as an incident and re-lease the rest of the unit past it.
  // A death is never re-issued or quarantined.
  auto recoverIsolated = [&](FleetWorker &W, uint64_t Id, int Status) {
    Progress P = std::move(W.Prog);
    const CheckpointUnit &U = LT.unit(Id);
    commitAttempt(Id, P.Part, P.States, P.Counters, false, {},
                  P.Have ? P.Rng : Rng, /*Broadcast=*/false);
    // The execution that killed the worker replays advance(stack of the
    // last finished one) -- or the unit's own prefix if none finished.
    std::vector<ScheduleChoice> Stack = P.Have ? P.Stack : U.Prefix;
    bool HavePath = !P.Have || advancePrefix(Stack, U.FrozenLen, RandomWalk);
    if (HavePath)
      Stack = probeCrashStack(Program, ChildOpts, Stack, Rng, HbTimeout);
    else
      Stack = P.Stack; // died after the unit's last execution
    recordIncident(W.Hung ? Verdict::Hang : Verdict::Crash,
                   describeDeath(Status, W.Hung, HbTimeout), Stack);
    if (!HavePath)
      return;
    if (RandomWalk) {
      // Re-running with the same PRNG state would reproduce the crash
      // forever; step the generator to a fresh stream.
      Xorshift Step(Rng);
      Step.next();
      Rng = Step.state();
    }
    // No choice resolves after the crash point, so everything below the
    // crashing stack dies the same death: skip it.
    if (advancePrefix(Stack, U.FrozenLen, RandomWalk))
      LT.add({std::move(Stack), U.FrozenLen});
  };

  auto handleDeath = [&](FleetWorker &W, int Status) {
    W.Alive = false;
    if (W.DownFd >= 0) {
      ::close(W.DownFd);
      W.DownFd = -1;
    }
    if (W.UpFd >= 0) {
      ::close(W.UpFd);
      W.UpFd = -1;
    }
    uint64_t Id = W.LeaseId;
    W.LeaseId = 0;
    if (W.DrainKilled) {
      // Deliberate straggler kill at drain time: nothing was committed,
      // so releasing the lease keeps the frontier exact. No penalty, no
      // crash accounting, no respawn -- the fleet is shutting down.
      if (Id)
        LT.release(Id);
      return;
    }
    if (Isolated) {
      if (Id)
        recoverIsolated(W, Id, Status);
      (void)spawnWorker(W, BaseCfg, Chaos); // no respawn budget
      return;
    }
    bump(obs::Counter::FleetWorkerCrashes, Total.FleetWorkerCrashes);
    if (Id) {
      if (LT.fail(Id, elapsed()) == LeaseTable::FailOutcome::Requeued)
        bump(obs::Counter::FleetReissues, Total.FleetReissues);
      else
        quarantineIncident(
            Id, "work unit killed " + std::to_string(LT.attempts(Id)) +
                    " consecutive fleet workers; quarantined");
    }
    if (RespawnsLeft > 0) {
      --RespawnsLeft;
      if (spawnWorker(W, BaseCfg, Chaos))
        bump(obs::Counter::FleetRespawns, Total.FleetRespawns);
    }
    // else: degraded width; with zero workers left the main loop falls
    // back to in-process completion.
  };

  auto reapZombies = [&]() {
    for (FleetWorker &W : Workers) {
      // A worker is the only writer of its up pipe, so EOF means it has
      // exited and every record it wrote has been read: reaping any
      // earlier could drop progress it already reported.
      if (!W.Alive || !W.UpEof)
        continue;
      int Status = 0;
      while (::waitpid(W.Pid, &Status, 0) < 0 && errno == EINTR)
        ;
      handleDeath(W, Status);
    }
  };

  auto expireHeartbeats = [&]() {
    for (uint64_t Id : LT.expiredLeases(elapsed())) {
      int Owner = LT.owner(Id);
      if (Owner < 0 || size_t(Owner) >= Workers.size())
        continue;
      FleetWorker &W = Workers[size_t(Owner)];
      if (W.Alive && !W.KillSent) {
        // Silent past the deadline: hung (or wedged). SIGKILL and let the
        // reap path do the failure bookkeeping.
        ::kill(W.Pid, SIGKILL);
        W.KillSent = true;
        W.Hung = true;
      }
    }
  };

  auto processEvents = [&](int TimeoutMs) {
    std::vector<struct pollfd> Pfds;
    std::vector<size_t> Idx;
    for (size_t I = 0; I < Workers.size(); ++I)
      if (Workers[I].Alive && !Workers[I].UpEof && Workers[I].UpFd >= 0) {
        Pfds.push_back({Workers[I].UpFd, POLLIN, 0});
        Idx.push_back(I);
      }
    if (Pfds.empty()) {
      if (TimeoutMs > 0)
        ::usleep(useconds_t(TimeoutMs) * 1000);
    } else {
      int R = ::poll(Pfds.data(), nfds_t(Pfds.size()), TimeoutMs);
      for (size_t K = 0; R > 0 && K < Pfds.size(); ++K) {
        if (!(Pfds[K].revents & (POLLIN | POLLHUP | POLLERR)))
          continue;
        FleetWorker &W = Workers[Idx[K]];
        char Buf[65536];
        ssize_t N = ::read(W.UpFd, Buf, sizeof Buf);
        if (N < 0) {
          if (errno != EINTR && errno != EAGAIN) {
            // An unreadable pipe: treat the worker as dead and make sure
            // it is, so the reap below cannot block.
            ::kill(W.Pid, SIGKILL);
            W.UpEof = true;
          }
          continue;
        }
        if (N == 0) {
          W.UpEof = true; // the worker exited; reapZombies collects it
          continue;
        }
        W.Frames.feed(Buf, size_t(N), [&](uint8_t Tag, WireReader Rd) {
          if (Tag == TagHeartbeat) {
            uint64_t Id = Rd.u64();
            (void)Rd.u64(); // lifetime execs: informational
            if (Rd.Ok && Id && Id == W.LeaseId)
              LT.renew(Id, elapsed() + HbTimeout);
          } else if (Tag == TagProgress) {
            noteProgress(W, Rd);
          } else if (Tag == TagUnitDone) {
            commitUnitDone(W, Rd);
          }
        });
      }
    }
    reapZombies();
    expireHeartbeats();
  };

  auto interruptRequested = [&]() {
    return Opts.InterruptFlag &&
           Opts.InterruptFlag->load(std::memory_order_relaxed);
  };

  // Idle workers are served round robin from the slot after the last one
  // served, so no idle worker waits behind lower slots while units are
  // scarce.
  size_t NextSlot = 0;
  auto issueUnits = [&]() {
    double Now = elapsed();
    const size_t Start = NextSlot;
    for (size_t K = 0; K < Workers.size(); ++K) {
      const size_t I = (Start + K) % Workers.size();
      FleetWorker &W = Workers[I];
      if (!W.Alive || W.LeaseId)
        continue;
      for (;;) {
        uint64_t Id = LT.lease(int(I), Now, Now + HbTimeout);
        if (!Id)
          break;
        if (Totals.afterBest(pathKeyOfPrefix(LT.unit(Id).Prefix))) {
          // Retire the unit without running it: it cannot improve the bug.
          LT.commit(Id);
          continue;
        }
        uint64_t Budget = Batch;
        if (Opts.MaxExecutions) {
          // Bounded overshoot: each in-flight unit gets at most the cap
          // remainder at issue time; committed units count whole.
          uint64_t Left = Opts.MaxExecutions > Total.Executions
                              ? Opts.MaxExecutions - Total.Executions
                              : 1;
          if (Left < Budget)
            Budget = Left;
        }
        double TimeBudget = 0;
        if (Opts.TimeBudgetSeconds > 0) {
          TimeBudget = Opts.TimeBudgetSeconds - Now;
          if (TimeBudget < 0.001)
            TimeBudget = 0.001;
        }
        WireWriter Wr;
        Wr.u64(Id);
        Wr.u64(Budget);
        Wr.f64(TimeBudget);
        Wr.u64(Rng);
        Wr.unit(LT.unit(Id));
        W.LeaseId = Id;
        NextSlot = (I + 1) % Workers.size();
        W.Prog = Progress();
        if (!sendTo(W, TagUnit, Wr))
          break; // worker just died; reap fails the lease
        if (Opts.StopOnFirstBug && Totals.bug())
          (void)sendTo(W, TagBestBug, bestBugRecord());
        break; // one outstanding unit per worker
      }
    }
  };

  // A worker idles while nothing is queued and another worker still holds
  // a lease: ask that holder to stop early, so the remainder it hands back
  // refills the queue. One request is outstanding at a time; it is spent
  // once the asked worker commits or dies.
  size_t StopSlot = 0;
  uint64_t StopLease = 0;
  auto feedIdleWorkers = [&]() {
    if (StopLease && Workers[StopSlot].LeaseId == StopLease)
      return;
    StopLease = 0;
    if (LT.queuedCount() > 0 || busyCount() == 0 ||
        busyCount() == aliveCount())
      return;
    for (size_t I = 0; I < Workers.size(); ++I) {
      FleetWorker &W = Workers[I];
      if (!W.Alive || !W.LeaseId)
        continue;
      if (sendTo(W, TagStop, WireWriter())) {
        StopSlot = I;
        StopLease = W.LeaseId;
      }
      return;
    }
  };

  auto buildCheckpoint = [&]() {
    return Totals.checkpoint(LT.pendingUnits(), Rng);
  };

  // Settles every outstanding lease: asks busy workers to stop (they
  // commit their partial attempt plus remainder), and past the grace
  // deadline SIGKILLs stragglers, whose leases release without penalty.
  // Either way the frontier stays exact.
  auto drainLeases = [&](double GraceSeconds) {
    WireWriter Empty;
    for (FleetWorker &W : Workers)
      if (W.Alive && W.LeaseId)
        (void)sendTo(W, TagStop, Empty);
    double KillAt = elapsed() + GraceSeconds;
    bool Killed = false;
    while (busyCount() > 0 || LT.leasedCount() > 0) {
      if (busyCount() == 0 && LT.leasedCount() > 0) {
        // Leases held by already-dead workers only; reap settles them.
        reapZombies();
        if (LT.leasedCount() == 0)
          break;
      }
      processEvents(20);
      if (!Killed && elapsed() >= KillAt) {
        for (FleetWorker &W : Workers)
          if (W.Alive && W.LeaseId) {
            W.DrainKilled = true;
            ::kill(W.Pid, SIGKILL);
          }
        Killed = true;
      }
    }
  };

  // Tells every worker to exit, waits up to a second for each up pipe to
  // reach EOF (the worker exited; late records are discarded unread),
  // then reaps -- SIGKILLing whoever is still running.
  auto shutdownWorkers = [&]() {
    WireWriter Empty;
    for (FleetWorker &W : Workers)
      if (W.Alive) {
        (void)sendTo(W, TagShutdown, Empty);
        ::close(W.DownFd); // EOF makes even a mid-attempt worker exit
        W.DownFd = -1;
      }
    double Deadline = elapsed() + 1.0;
    for (;;) {
      std::vector<struct pollfd> Pfds;
      std::vector<FleetWorker *> Open;
      for (FleetWorker &W : Workers)
        if (W.Alive && !W.UpEof) {
          Pfds.push_back({W.UpFd, POLLIN, 0});
          Open.push_back(&W);
        }
      double Left = Deadline - elapsed();
      if (Pfds.empty() || Left <= 0)
        break;
      if (::poll(Pfds.data(), nfds_t(Pfds.size()), int(Left * 1000) + 1) < 0 &&
          errno != EINTR)
        break;
      for (size_t K = 0; K < Pfds.size(); ++K) {
        if (!Pfds[K].revents)
          continue;
        char Buf[4096];
        ssize_t N = ::read(Pfds[K].fd, Buf, sizeof Buf);
        if (N == 0 || (N < 0 && errno != EINTR && errno != EAGAIN))
          Open[K]->UpEof = true;
      }
    }
    for (FleetWorker &W : Workers) {
      if (!W.Alive)
        continue;
      if (!W.UpEof)
        ::kill(W.Pid, SIGKILL);
      int Status = 0;
      while (::waitpid(W.Pid, &Status, 0) < 0 && errno == EINTR)
        ;
      W.Alive = false;
      ::close(W.UpFd);
      W.UpFd = -1;
    }
  };

  // Last-resort degradation: every worker is gone and the respawn budget
  // is spent (or fork itself fails). Units that never failed finish in
  // the coordinator; units that already killed a worker are crash
  // suspects and must not run in the only process left -- they are
  // quarantined.
  auto runQueueInProcess = [&]() {
    StackPool Pool;
    // Counted like a worker, so the coordinator's races_found stays the
    // count of globally distinct races.
    std::optional<obs::Observer> Local;
    if (BaseCfg.Counting)
      Local.emplace(*BaseCfg.Counting);
    for (;;) {
      if (interruptRequested()) {
        Interrupted = true;
        return;
      }
      if (Opts.MaxExecutions && Total.Executions >= Opts.MaxExecutions) {
        CapHit = true;
        return;
      }
      if (Opts.TimeBudgetSeconds > 0 && elapsed() >= Opts.TimeBudgetSeconds) {
        TimedOut = true;
        return;
      }
      if (TimedOut)
        return;
      uint64_t Id = LT.lease(/*Owner=*/-2, elapsed(), /*Deadline=*/0);
      if (!Id) {
        if (LT.pendingCount() == 0)
          return;
        ::usleep(10000); // only backoff-delayed units remain
        continue;
      }
      if (LT.attempts(Id) > 0) {
        LT.quarantine(Id);
        quarantineIncident(
            Id, "crash-suspect work unit (" + std::to_string(LT.attempts(Id)) +
                    " worker deaths) quarantined: no fleet workers left");
        continue;
      }
      if (Totals.afterBest(pathKeyOfPrefix(LT.unit(Id).Prefix))) {
        LT.commit(Id);
        continue;
      }
      IssuedUnit IU;
      IU.Work = LT.unit(Id);
      IU.Rng = Rng;
      CheckerOptions AOpts = ChildOpts;
      AOpts.Obs = Local ? &*Local : nullptr;
      if (Opts.TimeBudgetSeconds > 0)
        AOpts.TimeBudgetSeconds =
            std::max(0.001, Opts.TimeBudgetSeconds - elapsed());
      uint64_t Budget = UINT64_MAX;
      if (Opts.MaxExecutions && Opts.MaxExecutions > Total.Executions)
        Budget = Opts.MaxExecutions - Total.Executions;
      Attempt A(Program, AOpts, IU, &Pool);
      CheckResult R = A.run([&](Explorer &Ex, uint64_t Done) {
        return Totals.afterBest(Ex.consumedPathKey()) ||
               interruptRequested() || Done >= Budget;
      });
      obs::CounterSnapshot Counts =
          Local ? Local->drain() : obs::CounterSnapshot();
      commitAttempt(Id, R, A.sortedStates(), Counts, R.Stats.TimedOut,
                    std::move(A.Remainder), A.E.rngState(),
                    /*Broadcast=*/false);
    }
  };

  uint64_t NextCheckpointAt =
      Opts.CheckpointEvery
          ? (Total.Executions / Opts.CheckpointEvery + 1) *
                Opts.CheckpointEvery
          : 0;

  for (;;) {
    if (interruptRequested()) {
      drainLeases(std::min(2.0, HbTimeout));
      if (LT.pendingCount() > 0) {
        ResumeOut = buildCheckpoint();
        Interrupted = true;
      }
      break;
    }
    if (Opts.MaxExecutions && Total.Executions >= Opts.MaxExecutions) {
      CapHit = true;
      break;
    }
    if (Opts.TimeBudgetSeconds > 0 && elapsed() >= Opts.TimeBudgetSeconds)
      TimedOut = true;
    if (TimedOut)
      break;
    if (LT.pendingCount() == 0)
      break;
    if (aliveCount() == 0) {
      runQueueInProcess();
      if (Interrupted)
        ResumeOut = buildCheckpoint();
      break;
    }
    if (NextCheckpointAt && Opts.CheckpointSink &&
        Total.Executions >= NextCheckpointAt) {
      // Checkpoint barrier: settle every lease so the frontier is exact,
      // persist, then resume issuing.
      drainLeases(2 * HbTimeout);
      ++Total.Checkpoints;
      if (Ctr)
        Ctr->add(obs::Counter::Checkpoints);
      Opts.CheckpointSink(*buildCheckpoint());
      NextCheckpointAt = (Total.Executions / Opts.CheckpointEvery + 1) *
                         Opts.CheckpointEvery;
      continue;
    }
    issueUnits();
    feedIdleWorkers();
    if (Ctr) {
      Ctr->setGauge(obs::Gauge::WorkQueueDepth, LT.queuedCount());
      Ctr->setGauge(obs::Gauge::ActiveWorkers, busyCount());
    }
    processEvents(50);
  }

  shutdownWorkers();

  // Crash incidents keep their arrival order; runSearch picks the one
  // that stands in as the bug.
  CheckResult Result = Totals.finish(CapHit, TimedOut, Interrupted, elapsed());
  Result.Resume = ResumeOut;
  if (Ctr) {
    Ctr->setGauge(obs::Gauge::WorkQueueDepth, 0);
    Ctr->setGauge(obs::Gauge::ActiveWorkers, 0);
  }
  return Result;
}
