//===- tools/fsmc_run.cpp - Command-line checker driver ------------------===//
//
// A small CLI over the checker, in the spirit of the chess.exe driver:
// pick a registered workload (or one of the seeded-bug variants), choose
// a search strategy, run, and print the verdict plus the replayable
// schedule of any counterexample.
//
//   fsmc_run --list
//   fsmc_run --program=wsq-bug1 --cb=2
//   fsmc_run --program=dining-livelock --bound=300
//   fsmc_run --program=minikernel --random --executions=100
//   fsmc_run --program=wsq-bug1 --cb=2 --stats-json=- --trace-out=t.jsonl
//   fsmc_run --program=crashfault-segv --isolate=batch --repro-dir=repros
//   fsmc_run --program=peterson --checkpoint=run.ckpt --checkpoint-every=50
//   fsmc_run --resume=run.ckpt --checkpoint=run.ckpt
//   fsmc_run --program=dining --fleet=4        (supervised worker fleet)
//
// Installed as `fsmc_fleet`, the same binary defaults --fleet to the
// hardware concurrency (clamped to [2,8]) so `fsmc_fleet --program=X`
// is the supervised-search spelling of `fsmc_run --program=X`.
//
// Exit codes (docs/ROBUSTNESS.md, docs/RACES.md, docs/FLEET.md):
//   0 = no bug found            4 = workload hang (worker watchdog)
//   1 = bug found               5 = interrupted (SIGINT/SIGTERM)
//   2 = usage/setup error       6 = replay divergence (checker limitation)
//   3 = workload crash          7 = data race (--races=on|fatal)
//                               8 = corrupt/truncated checkpoint (--resume)
//
//===----------------------------------------------------------------------===//

#include "core/Checker.h"
#include "core/Checkpoint.h"
#include "core/Explorer.h"
#include "core/IterativeCheck.h"
#include "core/Schedule.h"
#include "obs/EventSink.h"
#include "obs/Explain.h"
#include "obs/HtmlReport.h"
#include "obs/Observer.h"
#include "obs/ProgressReporter.h"
#include "obs/StatsJson.h"
#include "support/OutStream.h"
#include "support/TablePrinter.h"
#include "workloads/Channels.h"
#include "workloads/CrashFault.h"
#include "workloads/DiningPhilosophers.h"
#include "workloads/Peterson.h"
#include "workloads/Promise.h"
#include "workloads/SpinWait.h"
#include "workloads/WorkStealQueue.h"
#include "workloads/WorkerGroup.h"
#include "workloads/WorkloadRegistry.h"
#include "workloads/minikernel/Kernel.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <vector>

using namespace fsmc;

namespace {

/// Named test programs available to the CLI: every registry row plus the
/// seeded-bug variants the paper's Table 3 and Section 4.3 evaluate.
std::map<std::string, std::function<TestProgram()>> catalogue() {
  std::map<std::string, std::function<TestProgram()>> C;
  for (const RegisteredWorkload &W : allWorkloads()) {
    std::string Key;
    for (char Ch : W.Name)
      Key += Ch == ' ' ? '-' : char(std::tolower(Ch));
    C[Key] = W.Make;
  }
  C["dining-livelock"] = [] {
    DiningConfig D;
    D.Philosophers = 2;
    D.Kind = DiningConfig::Variant::TryLockRetry;
    return makeDiningProgram(D);
  };
  C["dining-deadlock"] = [] {
    DiningConfig D;
    D.Philosophers = 2;
    D.Kind = DiningConfig::Variant::DeadlockProne;
    return makeDiningProgram(D);
  };
  // wsq-bug1 is the missing-fence defect (workloads/WorkStealQueue.h):
  // it manifests only under --memory=tso|pso; under the default sc model
  // the variant is indistinguishable from the correct code. bug2/bug3
  // are ordering bugs and reproduce under every memory model.
  for (int B = 1; B <= 3; ++B)
    C["wsq-bug" + std::to_string(B)] = [B] {
      WsqConfig W;
      W.Stealers = 1;
      W.Tasks = 2;
      W.Bug = WsqBug(B);
      return makeWsqProgram(W);
    };
  for (int B = 1; B <= 4; ++B)
    C["channels-bug" + std::to_string(B)] = [B] {
      ChannelsConfig Ch;
      Ch.Bug = ChannelBug(B);
      if (Ch.Bug == ChannelBug::LostSignal) {
        Ch.Producers = 2;
        Ch.Consumers = 1;
      }
      if (Ch.Bug == ChannelBug::RacyClose ||
          Ch.Bug == ChannelBug::BadCloseFix)
        Ch.CloseAfter = 1;
      return makeChannelsProgram(Ch);
    };
  C["promise-livelock"] = [] {
    PromiseConfig P;
    P.StaleReadBug = true;
    return makePromiseProgram(P);
  };
  C["workergroup-gs"] = [] {
    WorkerGroupConfig W;
    return makeWorkerGroupProgram(W);
  };
  C["spinwait-noyield"] = [] {
    SpinWaitConfig S;
    S.WithYield = false;
    return makeSpinWaitProgram(S);
  };
  C["peterson"] = [] { return makePetersonProgram(PetersonConfig()); };
  C["peterson-livelock"] = [] {
    PetersonConfig P;
    P.Kind = PetersonConfig::Variant::NoTurn;
    return makePetersonProgram(P);
  };
  C["peterson-bug"] = [] {
    PetersonConfig P;
    P.Kind = PetersonConfig::Variant::FlagAfterCheck;
    return makePetersonProgram(P);
  };
  // Fault-injection variants for --isolate=batch (docs/ROBUSTNESS.md).
  // Deliberately kept out of the workload registry: they kill the process
  // that runs them, so only an isolated search can explore them.
  C["crashfault-segv"] = [] {
    CrashFaultConfig F;
    F.Kind = CrashFaultConfig::Fault::NullDeref;
    return makeCrashFaultProgram(F);
  };
  C["crashfault-abort"] = [] {
    CrashFaultConfig F;
    F.Kind = CrashFaultConfig::Fault::Abort;
    return makeCrashFaultProgram(F);
  };
  C["crashfault-hang"] = [] {
    CrashFaultConfig F;
    F.Kind = CrashFaultConfig::Fault::Hang;
    return makeCrashFaultProgram(F);
  };
  // Seeded data races for --races (docs/RACES.md). Like the fault
  // variants, these stay out of the workload registry: the registry rows
  // double as the detector's zero-false-positive corpus.
  C["crashfault-race"] = [] {
    CrashFaultConfig F;
    F.Kind = CrashFaultConfig::Fault::Race;
    return makeCrashFaultProgram(F);
  };
  C["wsq-racy"] = [] {
    WsqConfig W;
    W.Stealers = 1;
    W.Tasks = 2;
    W.RacySize = true;
    return makeWsqProgram(W);
  };
  C["minikernel"] = [] {
    return minikernel::makeKernelBootProgram(minikernel::KernelConfig());
  };
  return C;
}

bool parseFlag(const char *Arg, const char *Name, const char **Value) {
  size_t Len = std::strlen(Name);
  if (std::strncmp(Arg, Name, Len) != 0)
    return false;
  if (Arg[Len] == '\0') {
    *Value = "";
    return true;
  }
  if (Arg[Len] == '=') {
    *Value = Arg + Len + 1;
    return true;
  }
  return false;
}

/// Widest --jobs/--fleet accepted: a typo must not ask for thousands of
/// threads or forked workers.
constexpr int MaxWorkers = 256;

/// Strict parse of a numeric flag's value: the whole of \p V must be a
/// decimal integer in [Min, Max]. atoi/strtoull would read "4x" as 4,
/// "abc" as 0 and "-1" as a negative or wrapped count. Prints the
/// diagnostic and returns false on a bad value.
template <typename T>
bool parseIntFlag(const char *Flag, const char *V, T Min, T Max, T &Out) {
  const char *End = V + std::strlen(V);
  T X{};
  auto [P, Ec] = std::from_chars(V, End, X);
  if (Ec != std::errc() || P != End || X < Min || X > Max) {
    errs() << Flag << " must be an integer ";
    if (Max == std::numeric_limits<T>::max())
      errs() << ">= " << Min << "\n";
    else
      errs() << "in [" << Min << ", " << Max << "]\n";
    return false;
  }
  Out = X;
  return true;
}

template <typename T>
bool parseIntFlag(const char *Flag, const char *V, T Min, T &Out) {
  return parseIntFlag(Flag, V, Min, std::numeric_limits<T>::max(), Out);
}

/// Strict parse of a duration in seconds: a whole finite decimal number,
/// > 0, or >= 0 when \p AllowZero (0 = no budget).
bool parseSecondsFlag(const char *Flag, const char *V, bool AllowZero,
                      double &Out) {
  char *End = nullptr;
  errno = 0;
  double X = std::strtod(V, &End);
  if (End == V || *End != '\0' || errno || !std::isfinite(X) || X < 0 ||
      (X == 0 && !AllowZero)) {
    errs() << Flag << " must be a number of seconds "
           << (AllowZero ? ">= 0" : "> 0") << "\n";
    return false;
  }
  Out = X;
  return true;
}

void printUsage(OutStream &OS) {
  OS << "usage: fsmc_run --program=<name> [options]\n"
        "       fsmc_run --list [--stats-json=FILE|-]\n"
        "       fsmc_run --help\n\n"
        "search options:\n"
        "  --cb=N           context-bounded search with N preemptions\n"
        "  --iterative=N    iterative context bounding up to N\n"
        "  --random         random-walk search\n"
        "  --unfair         disable the fair scheduler\n"
        "  --depth=N        depth bound (with --unfair: the baseline "
        "mode)\n"
        "  --bound=N        execution bound for divergence detection\n"
        "  --executions=N   cap on executions\n"
        "  --jobs=N         parallel search with N worker threads "
        "(N <= 256)\n"
        "  --seconds=S      time budget\n"
        "  --seed=N         PRNG seed\n"
        "  --yieldk=N       process every k-th yield (N >= 1)\n"
        "  --por=on|off     sleep-set partial-order reduction "
        "(docs/POR.md;\n"
        "                   default off)\n"
        "  --memory=MODEL   sc (default) | tso | pso: explore under a "
        "weak\n"
        "                   memory model with per-thread store buffers "
        "whose\n"
        "                   flushes are schedule points (docs/MEMORY.md;\n"
        "                   wsq-bug1 needs --memory=tso to manifest)\n"
        "  --replay=SCHED   replay a recorded schedule (an fsmc1:... "
        "string\n"
        "                   or the path of a file holding one)\n\n"
        "robustness options (docs/ROBUSTNESS.md):\n"
        "  --isolate=MODE   off (default) | batch: run executions in a "
        "worker\n"
        "                   process so workload crashes/hangs are "
        "harvested,\n"
        "                   not fatal\n"
        "  --batch-size=N   executions per leased work unit (default 64)\n"
        "  --hang-timeout=S worker watchdog: kill a worker that finishes "
        "no\n"
        "                   execution for S seconds (default 10)\n"
        "  --divergence-retries=N  retries before a mismatching "
        "prefix is\n"
        "                   discarded as a divergence (default 3)\n"
        "  --checkpoint=F   write a resumable checkpoint to F on "
        "SIGINT/\n"
        "                   SIGTERM (and periodically, see below)\n"
        "  --checkpoint-every=K    also checkpoint every K "
        "executions\n"
        "  --resume=F       continue the search recorded in "
        "checkpoint F\n"
        "  --repro-dir=D    write every bug/crash/hang schedule "
        "under D as\n"
        "                   a file --replay accepts\n"
        "  --races=MODE     off (default) | on: report happens-before "
        "data\n"
        "                   races as incidents without changing the "
        "search |\n"
        "                   fatal: stop at the first race like a bug "
        "(docs/\n"
        "                   RACES.md)\n\n"
        "fleet options (docs/FLEET.md):\n"
        "  --fleet=N        supervised multi-process search: a "
        "coordinator\n"
        "                   forks N (<= 256) long-lived workers, "
        "re-issues the\n"
        "                   units of crashed/hung workers and degrades "
        "gracefully\n"
        "                   (mutually exclusive with --jobs/--isolate="
        "batch/\n"
        "                   --random; the fsmc_fleet binary defaults "
        "this)\n"
        "  --fleet-batch=N  same as --batch-size\n"
        "  --fleet-quarantine=K    quarantine a unit after K "
        "consecutive\n"
        "                   fatal attempts as a replayable crash "
        "incident\n"
        "                   (default 3)\n\n"
        "observability options:\n"
        "  --stats-json=F   machine-readable run report to file F "
        "('-' = stdout)\n"
        "  --trace-out=F    Chrome trace_event JSONL trace to file F "
        "(Perfetto-loadable;\n"
        "                   '-' = stdout)\n"
        "  --progress[=S]   live status line to stderr every S seconds "
        "(default 1)\n"
        "  --estimate       online tree-size estimation: progress % "
        "and projected\n"
        "                   total executions in the progress line and "
        "stats-json\n"
        "                   (docs/OBSERVABILITY.md)\n"
        "  --profile-search schedule-point hotspot profile (per-op/"
        "per-object\n"
        "                   branch points) in stats-json\n"
        "  --report=F       self-contained HTML search report to F "
        "(implies\n"
        "                   --profile-search)\n"
        "  --explain=S      render schedule S (literal, file, or "
        "--repro-dir\n"
        "                   directory) as a thread-by-step timeline\n"
        "  --coverage       track state signatures; adds the coverage "
        "section\n"
        "                   (distinct states, hit rate) to stats-json\n"
        "  --step-timing    fill the per-transition latency histogram\n"
        "  --timing         add the wall-clock timing block (elapsed_ms,\n"
        "                   execs_per_sec) to --stats-json reports\n"
        "  --phase-timing   split wall time into replay/execute/race-"
        "check/\n"
        "                   snapshot buckets (shown under timing with "
        "--timing)\n"
        "  --reuse=on|off   recycle runtime state and pooled fiber "
        "stacks\n"
        "                   across executions (default on; off is the\n"
        "                   measurement baseline, docs/PERFORMANCE.md)\n"
        "  --quiet          suppress the human-readable summary\n"
        "  --verbose        also print the counter and per-op tables\n\n"
        "exit codes: 0 = no bug found, 1 = bug found, 2 = usage "
        "error,\n"
        "            3 = workload crash, 4 = workload hang, "
        "5 = interrupted,\n"
        "            6 = replay divergence, 7 = data race,\n"
        "            8 = corrupt/truncated checkpoint\n";
}

int usage() {
  printUsage(errs());
  return 2;
}

/// Set by the SIGINT/SIGTERM handler; polled by the search at execution
/// boundaries (and by the fleet coordinator's event loop).
std::atomic<bool> GInterrupted{false};

extern "C" void onInterrupt(int) {
  // Second signal: the user really wants out. 130 = 128 + SIGINT, the
  // shell convention for death-by-interrupt.
  if (GInterrupted.exchange(true))
    _exit(130);
}

/// Maps a finished run to the documented exit code. Interruption wins
/// (the verdict is provisional -- the search did not finish), then the
/// process-death incident classes, then the divergence non-verdict, then the
/// plain bug/no-bug split.
int exitCode(const CheckResult &R) {
  if (R.Stats.Interrupted)
    return 5;
  if (R.Kind == Verdict::Crash)
    return 3;
  if (R.Kind == Verdict::Hang)
    return 4;
  if (R.Kind == Verdict::Divergence)
    return 6;
  if (R.Kind == Verdict::DataRace)
    return 7;
  return R.foundBug() ? 1 : 0;
}

/// A --replay operand is either a literal schedule or the path of a file
/// holding one (as written by --repro-dir). Files win the ambiguity by
/// the literal's mandatory "fsmc1:" prefix.
bool loadReplayOperand(const std::string &Operand, std::string &Schedule) {
  if (Operand.rfind("fsmc1:", 0) == 0) {
    Schedule = Operand;
    return true;
  }
  std::ifstream In(Operand);
  if (!In)
    return false;
  std::stringstream SS;
  SS << In.rdbuf();
  Schedule = SS.str();
  // Trim trailing/leading whitespace so a text editor's final newline is
  // harmless.
  while (!Schedule.empty() && std::isspace((unsigned char)Schedule.back()))
    Schedule.pop_back();
  size_t B = 0;
  while (B < Schedule.size() && std::isspace((unsigned char)Schedule[B]))
    ++B;
  Schedule.erase(0, B);
  return true;
}

/// File-name token for a verdict ("safety violation" -> "safety-violation").
std::string verdictSlug(Verdict V) {
  std::string S = verdictName(V);
  for (char &C : S)
    if (C == ' ')
      C = '-';
  return S;
}

/// Writes one repro file per distinct failure of the run: the bug (if
/// any) and every incident. Each file holds a single schedule
/// line that --replay accepts verbatim. Returns the paths written.
std::vector<std::string> writeReproFiles(const std::string &Dir,
                                         const std::string &Program,
                                         const CheckResult &R) {
  std::vector<std::string> Paths;
  ::mkdir(Dir.c_str(), 0777); // EEXIST is fine; open() below reports others.
  int N = 0;
  auto WriteOne = [&](const BugReport &B) {
    if (B.Schedule.empty())
      return;
    std::string Path = Dir + "/" + Program + "." + verdictSlug(B.Kind) +
                       "." + std::to_string(N++) + ".sched";
    OutStream F = OutStream::open(Path);
    if (!F.valid()) {
      errs() << "warning: cannot write repro file " << Path << "\n";
      return;
    }
    F << B.Schedule << "\n";
    Paths.push_back(std::move(Path));
  };
  if (R.Bug)
    WriteOne(*R.Bug);
  for (const BugReport &B : R.Incidents)
    if (!R.Bug || B.Schedule != R.Bug->Schedule)
      WriteOne(B);
  return Paths;
}

/// Appends "key:  value\n"-style summary lines, padding keys to a fixed
/// column so the block stays aligned.
void summaryLine(std::string &Out, const char *Key, const std::string &Val) {
  std::string K = Key;
  K += ':';
  if (K.size() < 13)
    K += std::string(13 - K.size(), ' ');
  Out += K + Val + "\n";
}

std::string formatSeconds(double S) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.3fs", S);
  return Buf;
}

/// Runs one frozen replay of \p Schedule with an explain log attached and
/// prints renderExplainTimeline. Exit code as for a replay of the same
/// schedule.
int explainOne(const TestProgram &Program, const CheckerOptions &Opts,
               const std::string &Schedule) {
  std::vector<ScheduleChoice> Choices;
  if (!decodeSchedule(Schedule, Choices)) {
    errs() << "malformed schedule string\n";
    return 2;
  }
  CheckerOptions Effective = Opts;
  Effective.MaxExecutions = 1;
  Effective.StopOnFirstBug = true;
  Effective.Jobs = 1;
  // In-process always: the explain log borrows runtime state (names) that
  // a worker process could not hand back.
  Effective.Isolate = IsolationMode::Off;
  obs::ExplainLog Log;
  Explorer E(Program, Effective);
  E.setExplainLog(&Log);
  E.preloadSchedule(Choices, /*Frozen=*/true);
  CheckResult R = E.run();
  finalizeRaces(R, Effective);
  outs() << obs::renderExplainTimeline(Log, R, Program.Name);
  return exitCode(R);
}

/// The --explain operand is a schedule (literal or file, like --replay)
/// or a --repro-dir directory, in which case every *.sched file inside is
/// explained in name order. Returns the worst exit code seen.
int runExplain(const TestProgram &Program, const CheckerOptions &Opts,
               const std::string &Operand) {
  struct stat St;
  if (::stat(Operand.c_str(), &St) == 0 && S_ISDIR(St.st_mode)) {
    std::vector<std::string> Files;
    if (DIR *D = ::opendir(Operand.c_str())) {
      while (struct dirent *Ent = ::readdir(D)) {
        std::string Name = Ent->d_name;
        if (Name.size() > 6 && Name.rfind(".sched") == Name.size() - 6)
          Files.push_back(Name);
      }
      ::closedir(D);
    }
    std::sort(Files.begin(), Files.end());
    if (Files.empty()) {
      errs() << "no .sched files in " << Operand << "\n";
      return 2;
    }
    int Code = 0;
    bool First = true;
    for (const std::string &Name : Files) {
      std::string Schedule;
      if (!loadReplayOperand(Operand + "/" + Name, Schedule)) {
        errs() << "cannot read " << Operand << "/" << Name << "\n";
        Code = std::max(Code, 2);
        continue;
      }
      if (!First)
        outs() << "\n";
      outs() << "== " << Name << " ==\n";
      Code = std::max(Code, explainOne(Program, Opts, Schedule));
      First = false;
    }
    return Code;
  }
  std::string Schedule;
  if (!loadReplayOperand(Operand, Schedule)) {
    errs() << "cannot read explain operand " << Operand << "\n";
    return 2;
  }
  return explainOne(Program, Opts, Schedule);
}

/// The --verbose counter dump: every nonzero counter and gauge, then the
/// per-op scheduling-point table, then the latency histogram if filled.
void printVerboseTables(const obs::CounterSnapshot &S) {
  TablePrinter Counters({"counter", "value"});
  for (unsigned I = 0; I < unsigned(obs::Counter::NumCounters); ++I)
    if (uint64_t V = S.counter(obs::Counter(I)))
      Counters.addRow({obs::counterName(obs::Counter(I)),
                       TablePrinter::cell(V)});
  for (unsigned I = 0; I < unsigned(obs::Gauge::NumGauges); ++I)
    if (uint64_t V = S.gauge(obs::Gauge(I)))
      Counters.addRow({obs::gaugeName(obs::Gauge(I)),
                       TablePrinter::cell(V)});
  outs() << "\ncounters:\n";
  Counters.print(outs());

  TablePrinter Ops({"op", "schedule points", "contended"});
  for (unsigned I = 0; I <= unsigned(OpKind::VarFence); ++I)
    if (S.Ops[I] || S.Contended[I])
      Ops.addRow({opKindName(OpKind(I)), TablePrinter::cell(S.Ops[I]),
                  TablePrinter::cell(S.Contended[I])});
  outs() << "\nscheduling points by op:\n";
  Ops.print(outs());

  bool AnyLatency = false;
  for (uint64_t V : S.Latency)
    AnyLatency |= V != 0;
  if (AnyLatency) {
    TablePrinter Lat({"step latency (ns)", "count"});
    for (size_t I = 0; I < obs::LatencyBuckets; ++I)
      if (S.Latency[I])
        Lat.addRow({"< " + std::to_string(uint64_t(1) << (I + 1)),
                    TablePrinter::cell(S.Latency[I])});
    outs() << "\nstep latency histogram:\n";
    Lat.print(outs());
  }
}

} // namespace

int main(int Argc, char **Argv) {
  auto Programs = catalogue();
  std::string ProgramName;
  std::string Replay;
  std::string StatsJsonPath;
  std::string TraceOutPath;
  std::string CheckpointPath;
  std::string ResumePath;
  std::string ReproDir;
  std::string ReportPath;
  std::string ExplainOperand;
  CheckerOptions Opts;
  int Iterative = -1;
  bool List = false;
  bool Progress = false;
  double ProgressSeconds = 1.0;
  bool Quiet = false;
  bool Verbose = false;
  bool StepTiming = false;
  bool Timing = false;
  bool PhaseTiming = false;
  bool SeedSet = false;

  // Help wins wherever it appears, ahead of any malformed flag.
  for (int I = 1; I < Argc; ++I)
    if (std::strcmp(Argv[I], "--help") == 0 ||
        std::strcmp(Argv[I], "-h") == 0) {
      printUsage(outs());
      return 0;
    }

  for (int I = 1; I < Argc; ++I) {
    const char *V = nullptr;
    if (parseFlag(Argv[I], "--list", &V))
      List = true;
    else if (parseFlag(Argv[I], "--program", &V))
      ProgramName = V;
    else if (parseFlag(Argv[I], "--cb", &V)) {
      Opts.Kind = SearchKind::ContextBounded;
      if (!parseIntFlag("--cb", V, 0, Opts.ContextBound))
        return usage();
    } else if (parseFlag(Argv[I], "--iterative", &V)) {
      if (!parseIntFlag("--iterative", V, 0, Iterative))
        return usage();
    } else if (parseFlag(Argv[I], "--random", &V))
      Opts.Kind = SearchKind::RandomWalk;
    else if (parseFlag(Argv[I], "--unfair", &V))
      Opts.Fair = false;
    else if (parseFlag(Argv[I], "--depth", &V)) {
      if (!parseIntFlag("--depth", V, uint64_t(0), Opts.DepthBound))
        return usage();
    } else if (parseFlag(Argv[I], "--bound", &V)) {
      if (!parseIntFlag("--bound", V, uint64_t(0), Opts.ExecutionBound))
        return usage();
    } else if (parseFlag(Argv[I], "--executions", &V)) {
      if (!parseIntFlag("--executions", V, uint64_t(0), Opts.MaxExecutions))
        return usage();
    } else if (parseFlag(Argv[I], "--jobs", &V)) {
      if (!parseIntFlag("--jobs", V, 1, MaxWorkers, Opts.Jobs))
        return usage();
    } else if (parseFlag(Argv[I], "--fleet", &V)) {
      if (!parseIntFlag("--fleet", V, 1, MaxWorkers, Opts.FleetWorkers))
        return usage();
    } else if (parseFlag(Argv[I], "--fleet-batch", &V)) {
      if (!parseIntFlag("--fleet-batch", V, 1, Opts.BatchSize))
        return usage();
    } else if (parseFlag(Argv[I], "--fleet-quarantine", &V)) {
      if (!parseIntFlag("--fleet-quarantine", V, 1, Opts.FleetQuarantine))
        return usage();
    } else if (parseFlag(Argv[I], "--seconds", &V)) {
      if (!parseSecondsFlag("--seconds", V, /*AllowZero=*/true,
                            Opts.TimeBudgetSeconds))
        return usage();
    } else if (parseFlag(Argv[I], "--seed", &V)) {
      if (!parseIntFlag("--seed", V, uint64_t(0), Opts.Seed))
        return usage();
      SeedSet = true;
    } else if (parseFlag(Argv[I], "--yieldk", &V)) {
      // A zero k would divide by zero in the scheduler, and "-1" used to
      // wrap to 2^32-1 inside it, which silently switched fairness off.
      if (!parseIntFlag("--yieldk", V, 1, Opts.YieldK))
        return usage();
    } else if (parseFlag(Argv[I], "--por", &V)) {
      if (*V == '\0' || std::strcmp(V, "on") == 0)
        Opts.Por = true;
      else if (std::strcmp(V, "off") == 0)
        Opts.Por = false;
      else {
        errs() << "--por must be 'on' or 'off'\n";
        return usage();
      }
    } else if (parseFlag(Argv[I], "--memory", &V)) {
      if (std::strcmp(V, "sc") == 0)
        Opts.Memory = MemoryModel::Sc;
      else if (std::strcmp(V, "tso") == 0)
        Opts.Memory = MemoryModel::Tso;
      else if (std::strcmp(V, "pso") == 0)
        Opts.Memory = MemoryModel::Pso;
      else {
        errs() << "--memory must be 'sc', 'tso' or 'pso'\n";
        return usage();
      }
    } else if (parseFlag(Argv[I], "--replay", &V))
      Replay = V;
    else if (parseFlag(Argv[I], "--isolate", &V)) {
      if (std::strcmp(V, "off") == 0)
        Opts.Isolate = IsolationMode::Off;
      else if (std::strcmp(V, "batch") == 0)
        Opts.Isolate = IsolationMode::Batch;
      else {
        errs() << "--isolate must be 'off' or 'batch'\n";
        return usage();
      }
    } else if (parseFlag(Argv[I], "--batch-size", &V)) {
      if (!parseIntFlag("--batch-size", V, 1, Opts.BatchSize))
        return usage();
    } else if (parseFlag(Argv[I], "--hang-timeout", &V)) {
      if (!parseSecondsFlag("--hang-timeout", V, /*AllowZero=*/false,
                            Opts.HangTimeoutSeconds))
        return usage();
    } else if (parseFlag(Argv[I], "--races", &V)) {
      if (std::strcmp(V, "off") == 0)
        Opts.Races = RaceCheckMode::Off;
      else if (std::strcmp(V, "on") == 0)
        Opts.Races = RaceCheckMode::On;
      else if (std::strcmp(V, "fatal") == 0)
        Opts.Races = RaceCheckMode::Fatal;
      else {
        errs() << "--races must be 'off', 'on' or 'fatal'\n";
        return usage();
      }
    } else if (parseFlag(Argv[I], "--divergence-retries", &V)) {
      if (!parseIntFlag("--divergence-retries", V, 0, Opts.DivergenceRetries))
        return usage();
    } else if (parseFlag(Argv[I], "--checkpoint", &V)) {
      if (!*V) {
        errs() << "--checkpoint needs a file name\n";
        return usage();
      }
      CheckpointPath = V;
    } else if (parseFlag(Argv[I], "--checkpoint-every", &V)) {
      if (!parseIntFlag("--checkpoint-every", V, uint64_t(1),
                        Opts.CheckpointEvery))
        return usage();
    } else if (parseFlag(Argv[I], "--resume", &V)) {
      if (!*V) {
        errs() << "--resume needs a file name\n";
        return usage();
      }
      ResumePath = V;
    } else if (parseFlag(Argv[I], "--repro-dir", &V)) {
      if (!*V) {
        errs() << "--repro-dir needs a directory\n";
        return usage();
      }
      ReproDir = V;
    } else if (parseFlag(Argv[I], "--stats-json", &V)) {
      if (!*V) {
        errs() << "--stats-json needs a file name (or '-')\n";
        return usage();
      }
      StatsJsonPath = V;
    } else if (parseFlag(Argv[I], "--trace-out", &V)) {
      if (!*V) {
        errs() << "--trace-out needs a file name\n";
        return usage();
      }
      TraceOutPath = V;
    } else if (parseFlag(Argv[I], "--progress", &V)) {
      Progress = true;
      if (*V && !parseSecondsFlag("--progress", V, /*AllowZero=*/false,
                                  ProgressSeconds))
        return usage();
    } else if (parseFlag(Argv[I], "--step-timing", &V))
      StepTiming = true;
    else if (parseFlag(Argv[I], "--timing", &V))
      Timing = true;
    else if (parseFlag(Argv[I], "--phase-timing", &V))
      PhaseTiming = true;
    else if (parseFlag(Argv[I], "--estimate", &V))
      Opts.Estimate = true;
    else if (parseFlag(Argv[I], "--profile-search", &V))
      Opts.ProfileSearch = true;
    else if (parseFlag(Argv[I], "--coverage", &V))
      Opts.TrackCoverage = true;
    else if (parseFlag(Argv[I], "--report", &V)) {
      if (!*V) {
        errs() << "--report needs a file name\n";
        return usage();
      }
      ReportPath = V;
    } else if (parseFlag(Argv[I], "--explain", &V)) {
      if (!*V) {
        errs() << "--explain needs a schedule, file or repro directory\n";
        return usage();
      }
      ExplainOperand = V;
    }
    else if (parseFlag(Argv[I], "--reuse", &V)) {
      if (std::strcmp(V, "on") == 0)
        Opts.ReuseExecutionState = true;
      else if (std::strcmp(V, "off") == 0)
        Opts.ReuseExecutionState = false;
      else {
        errs() << "--reuse must be 'on' or 'off'\n";
        return usage();
      }
    }
    else if (parseFlag(Argv[I], "--quiet", &V))
      Quiet = true;
    else if (parseFlag(Argv[I], "--verbose", &V))
      Verbose = true;
    else {
      errs() << "unknown option: " << Argv[I] << "\n";
      return usage();
    }
  }

  if (List) {
    if (!StatsJsonPath.empty()) {
      // Machine-readable program list, mirroring the stats-json schema.
      std::string Out = "{\n  \"schema\": 1,\n  \"programs\": [";
      bool First = true;
      for (const auto &[Name, _] : Programs) {
        Out += First ? "\n    \"" : ",\n    \"";
        obs::appendJsonEscaped(Out, Name);
        Out += '"';
        First = false;
      }
      Out += "\n  ]\n}\n";
      if (StatsJsonPath == "-") {
        outs() << Out;
      } else {
        OutStream F = OutStream::open(StatsJsonPath);
        if (!F.valid()) {
          errs() << "cannot open " << StatsJsonPath << " for writing\n";
          return 2;
        }
        F << Out;
      }
    } else {
      std::string Out;
      for (const auto &[Name, _] : Programs)
        Out += Name + "\n";
      outs() << Out;
    }
    return 0;
  }
  if (Opts.CheckpointEvery && CheckpointPath.empty()) {
    errs() << "--checkpoint-every needs --checkpoint=FILE to write to\n";
    return usage();
  }

  // Installed as fsmc_fleet, the binary is the supervised-search spelling:
  // default the fleet width to the machine, clamped so a 128-core box does
  // not fork 128 checkers for a toy workload.
  {
    const char *Base = std::strrchr(Argv[0], '/');
    Base = Base ? Base + 1 : Argv[0];
    if (std::strcmp(Base, "fsmc_fleet") == 0 && Opts.FleetWorkers == 0) {
      unsigned HW = std::thread::hardware_concurrency();
      Opts.FleetWorkers = int(std::min(8u, std::max(2u, HW ? HW : 2u)));
    }
  }
  if (Opts.FleetWorkers > 0) {
    if (Opts.Jobs > 1) {
      errs() << "--fleet and --jobs are mutually exclusive (fleet workers "
                "are processes, not threads)\n";
      return usage();
    }
    if (Opts.Isolate == IsolationMode::Batch) {
      errs() << "--fleet already isolates workloads in worker processes; "
                "drop --isolate=batch\n";
      return usage();
    }
    if (Opts.Kind == SearchKind::RandomWalk) {
      errs() << "--fleet needs a deterministic frontier and cannot drive "
                "--random\n";
      return usage();
    }
  }

  // A checkpoint names the program and seed it froze; --resume alone is a
  // complete invocation. Explicit flags still win so a resumed search can
  // e.g. lower its remaining time budget.
  CheckpointState ResumeCK;
  if (!ResumePath.empty()) {
    if (!Replay.empty() || Iterative >= 0) {
      errs() << "--resume cannot be combined with --replay/--iterative\n";
      return usage();
    }
    std::string CkProgram, Err;
    uint64_t CkSeed = 0;
    if (!readCheckpointFile(ResumePath, ResumeCK, CkProgram, CkSeed, Err)) {
      errs() << "cannot resume from " << ResumePath << ": " << Err << "\n";
      // 8 = the file exists but is corrupt/truncated -- distinguishable
      // from plain usage errors so automation can tell "retry with the
      // previous checkpoint" from "fix the command line".
      std::ifstream Probe(ResumePath);
      return Probe ? 8 : 2;
    }
    if (ProgramName.empty())
      ProgramName = CkProgram;
    else if (ProgramName != CkProgram) {
      errs() << "checkpoint " << ResumePath << " is for program '"
             << CkProgram << "', not '" << ProgramName << "'\n";
      return 2;
    }
    if (!SeedSet)
      Opts.Seed = CkSeed;
  }

  auto It = Programs.find(ProgramName);
  if (It == Programs.end()) {
    errs() << "unknown program '" << ProgramName << "' (try --list)\n";
    return usage();
  }
  TestProgram Program = It->second();

  // Explain mode: one frozen replay with the timeline log attached,
  // rendered and done. Search-shaping options (--por, --races, --cb) must
  // match the recording run, which is why they stay honored here.
  if (!ExplainOperand.empty()) {
    if (!Replay.empty() || !ResumePath.empty() || Iterative >= 0) {
      errs() << "--explain cannot be combined with --replay/--resume/"
                "--iterative\n";
      return usage();
    }
    return runExplain(Program, Opts, ExplainOperand);
  }

  // The HTML report is built from the search profile.
  if (!ReportPath.empty())
    Opts.ProfileSearch = true;

  // Observability: one Observer per run, attached through CheckerOptions.
  // Created whenever any consumer of its counters/events is requested.
  std::unique_ptr<obs::JsonlTraceSink> Sink;
  if (!TraceOutPath.empty()) {
    Sink = std::make_unique<obs::JsonlTraceSink>(TraceOutPath);
    if (!Sink->valid()) {
      errs() << "cannot open " << TraceOutPath << " for writing\n";
      return 2;
    }
  }
  std::unique_ptr<obs::Observer> Obs;
  if (Sink || !StatsJsonPath.empty() || !ReportPath.empty() || Progress ||
      Verbose || StepTiming || PhaseTiming || Opts.Estimate) {
    obs::Observer::Config OC;
    OC.Sink = Sink.get();
    OC.StepTiming = StepTiming;
    OC.PhaseTiming = PhaseTiming;
    Obs = std::make_unique<obs::Observer>(OC);
    Opts.Obs = Obs.get();
  }

  std::unique_ptr<obs::ProgressReporter> Reporter;
  if (Progress && Obs) {
    obs::ProgressReporter::Config PC;
    PC.IntervalSeconds = ProgressSeconds;
    PC.TimeBudgetSeconds = Opts.TimeBudgetSeconds;
    PC.MaxExecutions = Opts.MaxExecutions;
    PC.Jobs = Opts.FleetWorkers > 0 ? Opts.FleetWorkers : Opts.Jobs;
    PC.Estimate = Opts.Estimate;
    Reporter = std::make_unique<obs::ProgressReporter>(*Obs, PC, errs());
  }

  // Interrupt and checkpoint wiring. The handler only sets a flag; the
  // search notices it at the next execution boundary (or fleet event-loop
  // slice), checkpoints cleanly and returns with Stats.Interrupted. No
  // SA_RESTART: an interrupted syscall should surface promptly.
  Opts.InterruptFlag = &GInterrupted;
  {
    struct sigaction SA;
    std::memset(&SA, 0, sizeof(SA));
    SA.sa_handler = onInterrupt;
    sigemptyset(&SA.sa_mask);
    sigaction(SIGINT, &SA, nullptr);
    sigaction(SIGTERM, &SA, nullptr);
  }
  // Checkpoints record the catalogue name --resume looks up, which for
  // some workloads differs from Program.Name (e.g. dryad-fifo/fifomux).
  if (!CheckpointPath.empty() && Opts.CheckpointEvery)
    Opts.CheckpointSink = [&](const CheckpointState &CK) {
      if (!writeCheckpointFile(CheckpointPath, CK, ProgramName, Opts.Seed))
        errs() << "warning: cannot write checkpoint " << CheckpointPath
               << "\n";
    };

  CheckResult R;
  if (!Replay.empty()) {
    std::string Schedule;
    if (!loadReplayOperand(Replay, Schedule)) {
      errs() << "cannot read replay file " << Replay << "\n";
      return 2;
    }
    R = replaySchedule(Program, Opts, Schedule);
  } else if (!ResumePath.empty()) {
    R = resumeCheck(Program, Opts, ResumeCK);
  } else if (Iterative >= 0) {
    IterativeCheckResult IR = iterativeCheck(Program, Opts, Iterative);
    if (!Quiet)
      for (const IterationResult &Step : IR.PerBound) {
        char Buf[128];
        std::snprintf(Buf, sizeof(Buf), "cb=%d: %s (%llu executions, %.2fs)\n",
                      Step.Bound, verdictName(Step.Result.Kind),
                      (unsigned long long)Step.Result.Stats.Executions,
                      Step.Result.Stats.Seconds);
        outs() << Buf;
      }
    R = IR.Final;
  } else {
    R = check(Program, Opts);
  }

  // Quiesce the background output before printing the summary, and seal
  // the trace so it is valid JSON even if the summary path throws.
  Reporter.reset();
  if (Sink)
    Sink->close();

  // An interrupted search hands back its frontier; persist it so the run
  // can be continued with --resume. Without --checkpoint the progress is
  // lost, which the summary calls out.
  bool CheckpointSaved = false;
  if (R.Stats.Interrupted && R.Resume && !CheckpointPath.empty()) {
    if (writeCheckpointFile(CheckpointPath, *R.Resume, ProgramName,
                            Opts.Seed))
      CheckpointSaved = true;
    else
      errs() << "warning: cannot write checkpoint " << CheckpointPath
             << "\n";
  }

  std::vector<std::string> ReproPaths;
  if (!ReproDir.empty())
    ReproPaths = writeReproFiles(ReproDir, Program.Name, R);

  if (!Quiet) {
    std::string Out;
    summaryLine(Out, "program", Program.Name);
    summaryLine(Out, "verdict", verdictName(R.Kind));
    summaryLine(Out, "executions",
                std::to_string(R.Stats.Executions) +
                    (R.Stats.SearchExhausted ? " (search exhausted)" : ""));
    summaryLine(Out, "transitions", std::to_string(R.Stats.Transitions));
    summaryLine(Out, "states", std::to_string(R.Stats.DistinctStates));
    summaryLine(Out, "time", formatSeconds(R.Stats.Seconds));
    summaryLine(Out, "stop reason", obs::stopReason(R));
    std::string Note = obs::budgetNote(R, Opts);
    if (!Note.empty())
      summaryLine(Out, "note", Note);
    if (R.Stats.Interrupted) {
      if (CheckpointSaved)
        summaryLine(Out, "checkpoint",
                    CheckpointPath + " (continue with --resume)");
      else
        summaryLine(Out, "checkpoint",
                    "not saved -- progress lost (pass --checkpoint=FILE)");
    }
    for (const BugReport &B : R.Incidents) {
      if (R.Bug && B.Schedule == R.Bug->Schedule)
        continue; // Already shown as the bug below.
      summaryLine(Out, "incident", B.Message);
      summaryLine(Out, "schedule", B.Schedule);
    }
    if (R.Bug) {
      summaryLine(Out, "bug", R.Bug->Message);
      summaryLine(Out, "schedule", R.Bug->Schedule);
      Out += "trace suffix:\n" + R.Bug->TraceText;
    }
    for (const std::string &P : ReproPaths)
      summaryLine(Out, "repro", P);
    outs() << Out;
    if (Verbose && Obs)
      printVerboseTables(Obs->snapshot());
  }

  if (!StatsJsonPath.empty()) {
    obs::StatsJsonInfo Info;
    Info.Program = Program.Name;
    Info.Options = &Opts;
    Info.Obs = Obs.get();
    Info.Replay = !Replay.empty();
    Info.Timing = Timing;
    if (StatsJsonPath == "-") {
      obs::writeStatsJson(outs(), R, Info);
    } else {
      OutStream F = OutStream::open(StatsJsonPath);
      if (!F.valid()) {
        errs() << "cannot open " << StatsJsonPath << " for writing\n";
        return 2;
      }
      obs::writeStatsJson(F, R, Info);
    }
  }

  if (!ReportPath.empty()) {
    OutStream F = OutStream::open(ReportPath);
    if (!F.valid()) {
      errs() << "cannot open " << ReportPath << " for writing\n";
      return 2;
    }
    F << obs::renderHtmlReport(R, Opts, Program.Name, Obs->snapshot());
  }
  return exitCode(R);
}
