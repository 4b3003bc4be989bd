//===- core/Fleet.cpp - Supervised multi-process exploration --------------===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
// The fleet's processes. runFleet is a process loop around a
// FleetCoordinator (core/FleetCoordinator.h), which owns every decision:
// runFleet forks the workers it asks for, writes the records it queues,
// reads the workers' records into it, reaps the dead and reports them,
// and ticks it, polling at most 50 ms a round. Each worker
// (fleetWorkerMain) runs one leased unit at a time on a fresh serial
// Explorer and commits it with ONE UnitDone record, so a worker that dies
// mid-attempt commits nothing and a re-run of its unit reproduces the
// same attempt. Under isolation
// the worker also streams a Progress record after every execution, and
// the crash probe (probeCrashStack) re-runs the execution a worker died in
// with every choice streamed back. One reader (readPipes) serves every
// pipe of both sides.
//
//===----------------------------------------------------------------------===//

#include "core/Fleet.h"

#include "core/Explorer.h"
#include "core/FleetCoordinator.h"
#include "obs/Observer.h"
#include "runtime/StackPool.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <span>
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

/// A child process and the pipes to it (Out) and from it (In). A worker
/// sees its coordinator as a Peer with no pid.
struct Peer {
  pid_t Pid = -1;
  int Out = -1;
  int In = -1;
  bool Eof = false; ///< In reached EOF or failed: the writer is gone.
  FrameParser Frames;
};

/// The one pipe reader: waits up to \p TimeoutMs (-1: forever) for any
/// open In of \p Ps, then reads once from each readable one and hands the
/// bytes to OnBytes(index, bytes, length). A pipe that cannot be read has
/// its child killed, so reaping it cannot block. \returns false when no
/// pipe is open or poll itself fails.
template <typename Fn>
bool readPipes(std::span<Peer> Ps, int TimeoutMs, Fn OnBytes) {
  std::vector<pollfd> Pfds;
  std::vector<size_t> Idx;
  for (size_t I = 0; I < Ps.size(); ++I)
    if (Ps[I].In >= 0 && !Ps[I].Eof) {
      Pfds.push_back({Ps[I].In, POLLIN, 0});
      Idx.push_back(I);
    }
  if (Pfds.empty())
    return false;
  int Ready = ::poll(Pfds.data(), nfds_t(Pfds.size()), TimeoutMs);
  if (Ready <= 0)
    return Ready == 0 || errno == EINTR;
  for (size_t K = 0; K < Pfds.size(); ++K) {
    if (!(Pfds[K].revents & (POLLIN | POLLHUP | POLLERR)))
      continue;
    Peer &P = Ps[Idx[K]];
    char Buf[65536];
    ssize_t N = ::read(P.In, Buf, sizeof Buf);
    if (N < 0 && (errno == EINTR || errno == EAGAIN))
      continue;
    if (N < 0 && P.Pid > 0)
      ::kill(P.Pid, SIGKILL);
    if (N <= 0)
      P.Eof = true;
    else
      OnBytes(Idx[K], Buf, size_t(N));
  }
  return true;
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
  for (const char *P = Env; P && *P;) {
    if (std::strncmp(P, "kill:", 5) == 0)
      C.Kills = std::max(0, std::atoi(P + 5));
    else if (std::strncmp(P, "hang:", 5) == 0)
      C.Hangs = std::max(0, std::atoi(P + 5));
    P = std::strchr(P, ',');
    P = P ? P + 1 : nullptr;
  }
  return C;
}

//===----------------------------------------------------------------------===//
// Attempts (workers and the in-process fallback) and the crash probe
//===----------------------------------------------------------------------===//

struct WorkerConfig {
  const TestProgram *Program = nullptr;
  CheckerOptions Opts; // stripped attempt options (no Obs, no budgets)
  /// Set when the coordinator counts: the worker then counts into its
  /// own sink-less registry and ships the counts with its stats.
  std::optional<obs::Observer::Config> Counting;
  bool Isolated = false; // stream a Progress record per execution
  double HeartbeatPeriod = 0.1;
  uint64_t KillAfter = 0; // chaos: SIGKILL self after N lifetime execs
  uint64_t HangAfter = 0; // chaos: hang (no heartbeats) after N execs
};

/// One attempt at a unit on a fresh serial explorer (unit-local stats).
struct Attempt {
  const IssuedUnit &U;
  Explorer E;

  Attempt(const WorkerConfig &Cfg, const IssuedUnit &U, obs::Observer *Obs,
          StackPool *Pool)
      : U(U), E(*Cfg.Program, [&] {
          CheckerOptions O = Cfg.Opts;
          O.TimeBudgetSeconds = U.TimeBudget;
          O.Obs = Obs;
          return O;
        }()) {
    if (Cfg.Opts.ReuseExecutionState)
      E.setStackPool(Pool);
    if (!U.Work.Prefix.empty())
      E.preloadScheduleFrozenPrefix(U.Work.Prefix, U.Work.FrozenLen);
    E.setRngState(U.Rng);
    if (Cfg.Isolated && Cfg.Opts.TrackCoverage)
      E.enableStateLog();
  }

  /// Runs the attempt to its commit record, stopping after an execution
  /// at the budget, where \p Best prunes the path just consumed, or when
  /// Stop(explorer) says so; the unexplored rest is the remainder
  /// (Explorer::handBack). The explorer lives on until the attempt does.
  template <typename Fn>
  UnitDone run(const SearchTotals &Best, obs::Observer *Obs, Fn Stop) {
    UnitDone D;
    uint64_t Done = 0;
    E.setExecutionHook([&](Explorer &Ex) {
      bool Halt = Stop(Ex) | (++Done >= U.Budget);
      if (!Halt && !(Best.bug() && Best.afterBest(Ex.consumedPathKey())))
        return true;
      Ex.handBack(D.Remainder);
      return false;
    });
    D.Part = E.run();
    D.LeaseId = U.LeaseId;
    D.TimedOut = D.Part.Stats.TimedOut;
    D.Rng = E.rngState();
    D.States.assign(E.seenStates().begin(), E.seenStates().end());
    std::sort(D.States.begin(), D.States.end());
    if (Obs) // the attempt's counts; the next attempt starts at zero
      D.Counters = Obs->drain();
    return D;
  }
};

/// Waits for child \p Pid to exit and returns its wait status.
int reap(pid_t Pid) {
  int Status = 0;
  while (::waitpid(Pid, &Status, 0) < 0 && errno == EINTR)
    ;
  return Status;
}

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
  Peer Probe;
  Probe.In = P[0];
  Probe.Pid = ::fork();
  if (Probe.Pid == 0) {
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
  auto Last = std::chrono::steady_clock::now();
  bool Killed = Probe.Pid < 0;
  while (readPipes({&Probe, 1}, 100, [&](size_t, const char *B, size_t N) {
    Probe.Frames.feed(B, N, [&](uint8_t Tag, WireReader R) {
      std::vector<ScheduleChoice> C = R.choices();
      if (Tag == TagChoice && R.Ok)
        Streamed.insert(Streamed.end(), C.begin(), C.end());
    });
    Last = std::chrono::steady_clock::now();
  })) {
    std::chrono::duration<double> Quiet =
        std::chrono::steady_clock::now() - Last;
    if (!Killed && Quiet.count() > Watchdog)
      Killed = ::kill(Probe.Pid, SIGKILL) == 0;
  }
  ::close(P[0]);
  if (Probe.Pid > 0)
    (void)reap(Probe.Pid);
  return Streamed.empty() ? Prefix : Streamed;
}

//===----------------------------------------------------------------------===//
// Worker side
//===----------------------------------------------------------------------===//

/// The worker process: runs issued units one at a time, one fresh serial
/// Explorer per attempt (unit-local stats, shared stack pool), and commits
/// each with a single UnitDone record.
[[noreturn]] void fleetWorkerMain(const WorkerConfig &Cfg, int DownFd,
                                  int UpFd) {
  detachChildSignals();
  WorkerCtl Ctl(Cfg.Opts);
  Peer Coordinator;
  Coordinator.In = DownFd;
  // EOF or a read error means the coordinator is gone, and the worker's
  // purpose with it.
  auto pump = [&](bool Block) {
    if (!readPipes({&Coordinator, 1}, Block ? -1 : 0,
                   [&](size_t, const char *B, size_t N) { Ctl.feed(B, N); }) ||
        Coordinator.Eof)
      _exit(0);
  };
  auto send = [&](uint8_t Tag, const auto &Rec) {
    WireWriter W;
    Rec.put(W);
    if (!writeRecord(UpFd, Tag, W))
      _exit(0);
  };
  StackPool Pool; // persists across attempts (fiber-stack reuse)
  std::optional<obs::Observer> Obs;
  if (Cfg.Counting)
    Obs.emplace(*Cfg.Counting);
  uint64_t LifetimeExecs = 0;

  for (;;) {
    while (Ctl.Units.empty() && !Ctl.Shutdown)
      pump(/*Block=*/true);
    if (Ctl.Shutdown)
      _exit(0);
    IssuedUnit U = std::move(Ctl.Units.front());
    Ctl.Units.pop_front();
    Attempt A(Cfg, U, Obs ? &*Obs : nullptr, &Pool);
    auto LastBeat = std::chrono::steady_clock::time_point();
    // What earlier Progress records already carried.
    size_t StatesSent = 0, IncidentsSent = 0;
    bool BugSent = false;

    UnitDone D = A.run(Ctl.Best, Obs ? &*Obs : nullptr, [&](Explorer &Ex) {
      // Fault injection: die or go silent mid-attempt, before anything
      // is committed -- exactly the failure the recovery path must mask.
      ++LifetimeExecs;
      if (Cfg.KillAfter && LifetimeExecs >= Cfg.KillAfter)
        ::kill(::getpid(), SIGKILL);
      while (Cfg.HangAfter && LifetimeExecs >= Cfg.HangAfter)
        ::pause();
      auto Now = std::chrono::steady_clock::now();
      if (Cfg.Isolated) {
        // Isolation commits through the last finished execution, so every
        // execution reports; the record doubles as the heartbeat.
        ProgressRecord P;
        P.LeaseId = U.LeaseId;
        P.Stats = Ex.currentStats();
        P.Rng = Ex.rngState();
        P.Stack = Ex.currentStackSnapshot();
        const std::vector<uint64_t> &Log = Ex.stateLog();
        P.States.assign(Log.begin() + long(StatesSent), Log.end());
        StatesSent = Log.size();
        const std::vector<BugReport> &Inc = Ex.incidents();
        P.Incidents.assign(Inc.begin() + long(IncidentsSent), Inc.end());
        IncidentsSent = Inc.size();
        if (!BugSent)
          P.Bug = Ex.bug();
        BugSent = Ex.bug().has_value();
        if (Obs) // the attempt's counts so far, like its stats
          P.Counters = Obs->snapshot();
        send(TagProgress, P);
      } else if (std::chrono::duration<double>(Now - LastBeat).count() >=
                 Cfg.HeartbeatPeriod) {
        WireWriter W;
        W.u64(U.LeaseId);
        if (!writeRecord(UpFd, TagHeartbeat, W))
          _exit(0);
        LastBeat = Now;
      }
      pump(/*Block=*/false);
      return Ctl.StopReq || Ctl.Shutdown;
    });
    send(TagUnitDone, D);
    // Wait for the coordinator's next word before tearing the attempt
    // down: on Shutdown the worker exits at once instead of first
    // unwinding its explorer.
    while (Ctl.Units.empty() && !Ctl.Shutdown)
      pump(/*Block=*/true);
  }
}

/// Forks a worker into \p W; false if the pipes or the fork failed.
bool spawnWorker(Peer &W, const WorkerConfig &BaseCfg, ChaosSpec &Chaos) {
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
  WorkerConfig Cfg = BaseCfg;
  if (Chaos.Kills > 0) {
    Cfg.KillAfter = ChaosTriggerExecs;
    --Chaos.Kills;
  } else if (Chaos.Hangs > 0) {
    Cfg.HangAfter = ChaosTriggerExecs;
    --Chaos.Hangs;
  }
  pid_t Pid = ::fork();
  if (Pid == 0) {
    ::close(Down[1]);
    ::close(Up[0]);
    fleetWorkerMain(Cfg, Down[0], Up[1]);
  }
  ::close(Down[0]);
  ::close(Up[1]);
  W = Peer();
  if (Pid < 0) {
    ::close(Down[1]);
    ::close(Up[0]);
    return false;
  }
  W.Pid = Pid;
  W.Out = Down[1];
  W.In = Up[0];
  return true;
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

  // Attempt options: serial exploration with every parent-owned
  // mechanism stripped. Budgets come with each unit, and the
  // coordinator's observer must stay out of children -- fork duplicates
  // sink FILE buffers; workers count into their own
  // (WorkerConfig::Counting). Profiles cannot cross the pipe.
  WorkerConfig Cfg;
  Cfg.Program = &Program;
  Cfg.Opts = Opts;
  Cfg.Opts.Obs = nullptr;
  Cfg.Opts.InterruptFlag = nullptr;
  Cfg.Opts.CheckpointEvery = 0;
  Cfg.Opts.CheckpointSink = nullptr;
  Cfg.Opts.ExportStateSignatures = false;
  Cfg.Opts.TrackCoverage = Opts.TrackCoverage || Opts.ExportStateSignatures;
  Cfg.Opts.MaxExecutions = 0;
  Cfg.Opts.ProfileSearch = false;
  if (Opts.Obs) {
    Cfg.Counting.emplace();
    Cfg.Counting->MaxWorkers = 1;
    Cfg.Counting->StepTiming = Opts.Obs->stepTiming();
    Cfg.Counting->PhaseTiming = Opts.Obs->phaseTiming();
  }
  Cfg.Isolated = Opts.Isolate == IsolationMode::Batch;

  FleetCoordinator C(Opts, ResumeCK, [&](const auto &Prefix, uint64_t Rng) {
    return probeCrashStack(Program, Cfg.Opts, Prefix, Rng,
                           C.heartbeatTimeout());
  });
  Cfg.HeartbeatPeriod = std::min(0.1, C.heartbeatTimeout() / 4);
  // Fault injection targets the fleet's re-issue path, which isolation
  // replaces with crash attribution; its workers are never armed.
  ChaosSpec Chaos =
      Cfg.Isolated ? ChaosSpec() : parseChaos(std::getenv("FSMC_FLEET_CHAOS"));

  std::vector<Peer> Workers(C.width());
  // The in-process fallback counts like a worker, so the coordinator's
  // races_found stays the count of globally distinct races.
  StackPool Pool;
  std::optional<obs::Observer> Local;
  if (Cfg.Counting)
    Local.emplace(*Cfg.Counting);

  auto interrupted = [&]() {
    return Opts.InterruptFlag &&
           Opts.InterruptFlag->load(std::memory_order_relaxed);
  };
  // Carries out what the coordinator asked for; true if a unit ran here.
  auto perform = [&]() {
    bool Ran = false;
    for (FleetAction &A : C.takeActions()) {
      if (A.K == FleetAction::RunInProcess) {
        obs::Observer *Obs = Local ? &*Local : nullptr;
        const std::string &B = A.Record.Buf;
        IssuedUnit U = *IssuedUnit::get({B.data(), B.size()});
        Attempt At(Cfg, U, Obs, &Pool);
        C.unitDone(elapsed(), A.Slot, At.run(C.totals(), Obs, [&](Explorer &) {
          return interrupted();
        }));
        Ran = true;
      } else if (A.K == FleetAction::Spawn) {
        C.spawned(A.Slot, spawnWorker(Workers[A.Slot], Cfg, Chaos));
      } else if (A.K == FleetAction::Kill) {
        ::kill(Workers[A.Slot].Pid, SIGKILL);
      } else { // a dead worker's EPIPE is seen at its reap
        (void)writeRecord(Workers[A.Slot].Out, A.Tag, A.Record);
      }
    }
    return Ran;
  };

  perform();
  for (;;) {
    if (interrupted())
      C.interrupt();
    C.tick(elapsed());
    bool Ran = perform();
    if (C.done())
      break;
    int Wait = Ran ? 0 : C.draining() ? 20 : 50;
    if (!readPipes(Workers, Wait, [&](size_t I, const char *B, size_t N) {
          Workers[I].Frames.feed(B, N, [&](uint8_t Tag, WireReader R) {
            if (Tag == TagHeartbeat)
              C.heartbeat(elapsed(), I, R.u64());
            else if (Tag == TagProgress)
              C.progress(elapsed(), I, ProgressRecord::get(R));
            else if (Tag == TagUnitDone)
              C.unitDone(elapsed(), I, UnitDone::get(R));
          });
        }) && Wait)
      ::usleep(useconds_t(Wait) * 1000);
    // A worker is the only writer of its up pipe, so EOF means it has
    // exited and every record it wrote has been read: reaping any earlier
    // could drop progress it already reported.
    for (size_t I = 0; I < Workers.size(); ++I)
      if (Workers[I].Pid > 0 && Workers[I].Eof) {
        int Status = reap(Workers[I].Pid);
        ::close(Workers[I].Out);
        ::close(Workers[I].In);
        Workers[I] = Peer();
        C.died(elapsed(), I, Status);
      }
    perform();
  }

  // Shutdown: tell every worker to exit and close its down pipe (EOF
  // makes even a mid-attempt worker exit), wait up to a second for each up
  // pipe to reach EOF, discarding late records, then reap, SIGKILLing
  // whoever is still running.
  for (Peer &W : Workers)
    if (W.Pid > 0) {
      (void)writeRecord(W.Out, TagShutdown, WireWriter());
      ::close(W.Out);
    }
  auto discard = [](size_t, const char *, size_t) {};
  double Deadline = elapsed() + 1.0;
  for (double Left = 1.0; Left > 0; Left = Deadline - elapsed())
    if (!readPipes(Workers, int(Left * 1000) + 1, discard))
      break;
  for (Peer &W : Workers)
    if (W.Pid > 0) {
      if (!W.Eof)
        ::kill(W.Pid, SIGKILL);
      (void)reap(W.Pid);
      ::close(W.In);
    }
  return C.finish(elapsed());
}
