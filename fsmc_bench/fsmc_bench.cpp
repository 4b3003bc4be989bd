//===- fsmc_bench/fsmc_bench.cpp - The performance ledger ----------------===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
//
// Times one workload of the ledger (Searches.cpp) as repeated passes and
// prints one JSON line of metrics. A pass runs every search of the
// workload once, each in its own forked child, so every search starts
// cold, independent of the ones before it, with its own peak RSS. The
// parent only forks, times a reference computation around each child
// (Ledger.h, referenceSeconds) and summarizes. It pins itself, and so the
// serial searches, to one CPU; the thread and fleet searches get every CPU
// back.
//
//   fsmc_bench --workload=NAME [--seed=N] [--seconds=S] [--trace=0|1]
//              [--passes=N] [--out=FILE]
//   fsmc_bench --list            (prints the workload names)
//
// --trace=0 reports the end-to-end metrics (medians over the passes).
// --trace=1 reports the per-layer metrics instead: traced passes (an
// Observer with phase timing on every check, plus the ledger's own spans),
// alternated with untraced ones to price the tracing, the seeded layer
// microbenches of Layers.cpp and, on scaleout, a serial reference search.
// --seconds bounds the measuring: passes continue while the next one is
// expected to fit. --passes=N runs exactly N passes instead. --out writes
// the full report (quartiles, min/max, per-search rows, provenance) and,
// when tracing, the spans as Chrome trace_event JSON next to it.
//
// Reported times are in reference-host seconds: each search's measured
// time scaled by NominalReferenceSeconds over the reference timed around
// it, which cancels the drift of a shared host's speed (README.md).
//
// The seed permutes the order of the searches inside each pass and seeds
// the microbench inputs; the searches themselves are fixed, so their
// verdicts and execution counts are checked against Searches.cpp on every
// pass. The last line of stdout is always the result object; everything
// else goes to stderr.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"
#include "Ledger.h"
#include "Searches.h"

#include "core/Schedule.h"
#include "core/Wire.h"
#include "obs/Observer.h"
#include "obs/TraceValidate.h"
#include "support/Xorshift.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <optional>

#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace fsmc;
using namespace fsmc::ledger;

namespace {

/// A pass child that has not finished after this long is killed and its
/// searches count as failed.
constexpr double WatchdogSeconds = 120;

/// Untraced passes a time-bounded run makes at least, whatever the budget.
constexpr size_t MinPasses = 3;

struct MetricDef {
  std::string Name;
  const char *Unit;
};

const MetricDef EndToEnd[] = {
    {"wall_s", "s"},       {"cpu_s", "s"},   {"execs", "count"},
    {"peak_rss_mb", "MB"}, {"setup_s", "s"},
};

/// Per-layer metrics in report order; search.<id>.wall_s rows follow.
const MetricDef PerLayer[] = {
    {"explorer.transitions", "count"},
    {"explorer.replay_steps", "count"},
    {"explorer.fresh_frac", "ratio"},
    {"explorer.replay_s", "s"},
    {"explorer.execute_s", "s"},
    {"explorer.max_depth", "count"},
    {"explorer.execs_per_s", "1/s"},
    {"runtime.fiber_switch_ns", "ns"},
    {"runtime.stack_cycle_ns", "ns"},
    {"runtime.schedule_points", "count"},
    {"runtime.sync_contention", "count"},
    {"fair.allowed_ns.t3", "ns"},
    {"fair.allowed_ns.t14", "ns"},
    {"fair.on_transition_ns.t3", "ns"},
    {"fair.on_transition_ns.t14", "ns"},
    {"fair.edge_adds", "count"},
    {"fair.edge_removals", "count"},
    {"por.independent_ns", "ns"},
    {"por.sleep_hits", "count"},
    {"por.branches_pruned", "count"},
    {"por.fair_wakes", "count"},
    {"memory.buffered_stores", "count"},
    {"memory.store_flushes", "count"},
    {"state.record_ns", "ns"},
    {"state.distinct", "count"},
    {"state.hit_frac", "ratio"},
    {"explorer.snapshot_s", "s"},
    {"race.on_access_ns", "ns"},
    {"race.checks", "count"},
    {"race.found", "count"},
    {"explorer.race_check_s", "s"},
    {"schedule.encode_ns", "ns"},
    {"schedule.decode_ns", "ns"},
    {"schedule.replay_s", "s"},
    {"par.steals", "count"},
    {"par.steal_fails", "count"},
    {"par.queue_lock_acquires", "count"},
    {"par.merge_s", "s"},
    {"par.donation_bytes", "bytes"},
    {"par.util", "ratio"},
    {"par.speedup", "ratio"},
    {"deque.push_pop_ns", "ns"},
    {"deque.steal_half_ns", "ns"},
    {"fleet.util", "ratio"},
    {"fleet.speedup", "ratio"},
    {"wire.record_roundtrip_ns", "ns"},
    {"sandbox.crashes", "count"},
    {"obs.trace_overhead_frac", "ratio"},
    {"host.reference_s", "s"},
    {"host.measured_wall_s", "s"},
    {"host.measured_cpu_s", "s"},
    {"span.pass.self_s", "s"},
    {"span.search.self_s", "s"},
    {"span.setup.self_s", "s"},
    {"span.check.self_s", "s"},
    {"span.replaySchedule.self_s", "s"},
};

/// referenceSeconds() on the box the ledger was calibrated on (4-vCPU
/// 2 GHz Xeon VM, pinned CPU; median over 40 runs of 30 s). Every reported
/// time is scaled by this over the reference timed around its search.
/// There the host's speed drifted by up to 25% between runs minutes apart;
/// scaled, the run-to-run spread of wall_s fell from 4-15% to 1-4% (IQR
/// over median of 10 runs). host.measured_* keep the unscaled times.
constexpr double NominalReferenceSeconds = 0.0101;

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  size_t Passes = 0; ///< 0: fill Seconds.
  std::string Out;
};

//===--- CPU placement -----------------------------------------------------===//

/// The CPUs the ledger may use, captured before it pins itself.
cpu_set_t AllowedCpus;

/// Pins the ledger, and so every child it forks, to the highest CPU it may
/// use. On the shared VM the ledger was calibrated on, passes free to
/// wander between vCPUs spread by 15-24% (IQR over median within one run)
/// and pinned ones by 1-6%; pinned, the reference computation also times
/// the very CPU the searches run on. \returns the CPU, or -1.
int pinToOneCpu() {
  if (::sched_getaffinity(0, sizeof(AllowedCpus), &AllowedCpus) != 0)
    return -1;
  int Cpu = -1;
  for (int I = 0; I < CPU_SETSIZE; ++I)
    if (CPU_ISSET(I, &AllowedCpus))
      Cpu = I;
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(Cpu, &One);
  return Cpu >= 0 && ::sched_setaffinity(0, sizeof(One), &One) == 0 ? Cpu
                                                                     : -1;
}

//===--- Child processes ---------------------------------------------------===//

double cpuSeconds() {
  double S = 0;
  for (int Who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage RU;
    if (getrusage(Who, &RU) == 0)
      S += double(RU.ru_utime.tv_sec + RU.ru_stime.tv_sec) +
           double(RU.ru_utime.tv_usec + RU.ru_stime.tv_usec) * 1e-6;
  }
  return S;
}

/// Largest resident set of this process or any child it reaped, in MB.
double peakRssMb() {
  long Kb = 0;
  for (int Who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage RU;
    if (getrusage(Who, &RU) == 0)
      Kb = std::max(Kb, RU.ru_maxrss);
  }
  return double(Kb) / 1024.0;
}

/// Runs \p Work in a forked child and parses the JSON object it answers
/// with into \p V. The child's stdout is pointed at stderr so nothing the
/// library prints can reach the ledger's result line. It stays in the
/// ledger's process group, so whoever stops the ledger stops it too; the
/// workers a child forks exit when its pipes close.
bool runChild(const std::function<std::string()> &Work, obs::JsonValue &V,
              std::string &Err) {
  int Fds[2];
  if (::pipe(Fds) != 0) {
    Err = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  pid_t Pid = ::fork();
  if (Pid < 0) {
    Err = std::string("fork: ") + std::strerror(errno);
    ::close(Fds[0]);
    ::close(Fds[1]);
    return false;
  }
  if (Pid == 0) {
    ::close(Fds[0]);
    ::dup2(2, 1);
    int Code = 0;
    try {
      std::string Text = Work();
      Code = wire::writeAll(Fds[1], Text.data(), Text.size()) ? 0 : 3;
    } catch (...) {
      Code = 4;
    }
    ::_exit(Code);
  }
  ::close(Fds[1]);
  std::string Out;
  auto Start = Clock::now();
  bool TimedOut = false;
  char Buf[65536];
  for (;;) {
    double Left = WatchdogSeconds - secondsBetween(Start, Clock::now());
    if (Left <= 0) {
      TimedOut = true;
      break;
    }
    pollfd P{Fds[0], POLLIN, 0};
    int Ready = ::poll(&P, 1, int(Left * 1000) + 1);
    if (Ready < 0 && errno == EINTR)
      continue;
    if (Ready <= 0)
      continue;
    ssize_t N = ::read(Fds[0], Buf, sizeof(Buf));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Out.append(Buf, size_t(N));
  }
  ::close(Fds[0]);
  if (TimedOut)
    ::kill(Pid, SIGKILL);
  int Status = 0;
  while (::waitpid(Pid, &Status, 0) < 0 && errno == EINTR)
    ;
  if (TimedOut) {
    Err = "watchdog: child exceeded " + num(WatchdogSeconds) + " s";
    return false;
  }
  if (WIFSIGNALED(Status)) {
    Err = "child killed by signal " + std::to_string(WTERMSIG(Status));
    return false;
  }
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0) {
    Err = "child exited with status " + std::to_string(WEXITSTATUS(Status));
    return false;
  }
  if (obs::parseJson(Out, V, Err) && V.isObject())
    return true;
  Err = "unreadable child report: " + Err;
  return false;
}

//===--- One search (runs in a child) -------------------------------------===//

/// Runs \p S once: a one-execution check() as its set-up, the timed check()
/// to its verdict, then replaySchedule of any bug it found. With \p Traced
/// an Observer with phase timing rides on the timed check and a span is
/// recorded around each call. \returns the search's row as JSON.
std::string runSearch(const SearchSpec &S, bool Traced,
                      Clock::time_point Origin) {
  // The thread and fleet engines get back every CPU the ledger may use.
  if (S.Opts.Jobs > 1 || S.Opts.FleetWorkers > 1)
    ::sched_setaffinity(0, sizeof(AllowedCpus), &AllowedCpus);
  SpanRecorder Spans(Origin, 0);
  CheckerOptions SetupOpts = S.Opts;
  SetupOpts.MaxExecutions = 1;
  int SetupSpan = Spans.open("setup");
  auto T0 = Clock::now();
  check(S.Make(), SetupOpts);
  double Setup = secondsBetween(T0, Clock::now());
  Spans.close(SetupSpan);

  std::optional<obs::Observer> Obs;
  CheckerOptions Opts = S.Opts;
  if (Traced) {
    obs::Observer::Config ObsCfg;
    ObsCfg.PhaseTiming = true;
    Opts.Obs = &Obs.emplace(ObsCfg);
  }
  TestProgram Program = S.Make();
  int CheckSpan = Spans.open("check");
  double Cpu0 = cpuSeconds();
  T0 = Clock::now();
  CheckResult R = check(Program, Opts);
  double Wall = secondsBetween(T0, Clock::now());
  double Cpu = cpuSeconds() - Cpu0;

  std::string Counters, Args = "\"executions\": " +
                               std::to_string(R.Stats.Executions);
  if (Traced) {
    auto Add = [&Counters](const std::string &Key, double V) {
      Counters += (Counters.empty() ? "" : ", ") + quote(Key) + ": " + num(V);
    };
    obs::CounterSnapshot Snap = Obs->snapshot();
    for (unsigned C = 0; C < unsigned(obs::Counter::NumCounters); ++C)
      Add(obs::counterName(obs::Counter(C)),
          double(Snap.counter(obs::Counter(C))));
    for (unsigned P = 0; P < unsigned(obs::Phase::NumPhases); ++P) {
      std::string Key = std::string(obs::phaseName(obs::Phase(P))) + "_ns";
      double Ns = double(Snap.phaseNs(obs::Phase(P)));
      Add(Key, Ns);
      Args += ", " + quote(Key) + ": " + num(Ns);
    }
    Add("max_depth", double(Snap.gauge(obs::Gauge::MaxDepth)));
    Add("distinct_states", double(R.Stats.DistinctStates));
    Add("state_hits", double(R.Stats.StateHits));
    Add("stat_crashes", double(R.Stats.Crashes));
    Add("stat_races_found", double(R.Stats.RacesFound));
  }
  Spans.close(CheckSpan, Args);

  double Replay = 0;
  std::string Error = checkOutcome(S, R);
  if (Error.empty() && R.Bug && R.foundBug()) {
    int ReplaySpan = Spans.open("replaySchedule");
    T0 = Clock::now();
    CheckResult Again = replaySchedule(S.Make(), S.Opts, R.Bug->Schedule);
    Replay = secondsBetween(T0, Clock::now());
    Spans.close(ReplaySpan);
    if (Again.Kind != R.Bug->Kind)
      Error = std::string("bug schedule replays to ") +
              verdictName(Again.Kind) + ", expected " +
              verdictName(R.Bug->Kind);
  }

  std::string Json = "{\"wall_s\": " + num(Wall) + ", \"cpu_s\": " +
                     num(Cpu) + ", \"setup_s\": " + num(Setup) +
                     ", \"replay_s\": " + num(Replay) +
                     ", \"execs\": " + std::to_string(R.Stats.Executions) +
                     ", \"peak_rss_mb\": " + num(peakRssMb()) +
                     ", \"error\": " + quote(Error) + ", \"counters\": {" +
                     Counters + "}, \"spans\": [";
  if (Traced)
    for (size_t I = 0; I < Spans.spans().size(); ++I) {
      const Span &Sp = Spans.spans()[I];
      Json += (I ? ", " : "") + std::string("{\"name\": ") + quote(Sp.Name) +
              ", \"start\": " + num(Sp.Start) + ", \"end\": " +
              num(Sp.End) + ", \"args\": {" + Sp.Args + "}}";
    }
  return Json + "]}";
}

//===--- The parent: passes, failures, summaries ---------------------------===//

/// One search as the parent saw it. Times are in reference-host seconds:
/// the measured time scaled by NominalReferenceSeconds over the reference
/// computation timed just before and just after the search's child.
struct SearchSample {
  double Wall = 0, Cpu = 0, Setup = 0;
  double RawWall = 0, RawCpu = 0, Replay = 0, Execs = 0, RssMb = 0;
  obs::JsonValue Report; ///< The child's row: counters and spans.
};

struct PassSample {
  bool Traced = false;
  double Wall = 0, Cpu = 0, Setup = 0, Execs = 0, RssMb = 0;
  double RawWall = 0, RawCpu = 0, Replay = 0;
  /// Parent-side time of the whole pass, forks included: the budget unit.
  double Elapsed = 0;
  std::map<std::string, double> SearchWall, SearchCpu;
  std::map<std::string, double> Counters;
  std::vector<Span> Spans;
};

double numberAt(const obs::JsonValue &V, const char *Key) {
  const obs::JsonValue *F = V.find(Key);
  return F ? F->Num : 0;
}

class Ledger {
public:
  Ledger(const Options &O, std::vector<const SearchSpec *> Searches)
      : Opt(O), Searches(std::move(Searches)), Origin(Clock::now()) {}

  void run();
  void printResult() const;
  bool writeReport(std::string &Err) const;

private:
  std::vector<const SearchSpec *> passOrder(uint64_t PassId) const;
  SearchSample sample(const SearchSpec &S, bool Traced);
  void runOnePass(bool Traced);
  void runLayerChild();
  void runSerialReference();
  bool budgetLeft(double NextCost) const;
  std::vector<double> passValues(bool Traced,
                                 double PassSample::*Field) const;
  std::map<std::string, Summary> endToEnd() const;
  std::map<std::string, Summary> perLayer() const;
  std::map<std::string, Summary> metrics() const {
    return Opt.Trace ? perLayer() : endToEnd();
  }

  Options Opt;
  std::vector<const SearchSpec *> Searches;
  Clock::time_point Origin;
  std::vector<PassSample> Passes;
  std::map<std::string, double> Micros;
  /// referenceSeconds() around every search, for host.reference_s.
  std::vector<double> RefSamples;
  double SerialWall = 0;
  int PinnedCpu = -1;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures;
};

std::vector<const SearchSpec *> Ledger::passOrder(uint64_t PassId) const {
  std::vector<const SearchSpec *> Order = Searches;
  Xorshift R(Opt.Seed * 0x9e3779b97f4a7c15ULL + PassId + 1);
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[size_t(R.nextBelow(int(I)))]);
  return Order;
}

SearchSample Ledger::sample(const SearchSpec &S, bool Traced) {
  ++Attempted;
  SearchSample Out;
  std::string Err;
  Clock::time_point Origin = this->Origin;
  double RefBefore = referenceSeconds();
  bool Ok = runChild(
      [&S, Traced, Origin] { return runSearch(S, Traced, Origin); },
      Out.Report, Err);
  double Ref = (RefBefore + referenceSeconds()) / 2;
  RefSamples.push_back(Ref);
  if (Ok)
    Err = Out.Report.find("error")->Str;
  if (!Err.empty()) {
    ++Failed;
    Failures.push_back(S.Id + ": " + Err);
  }
  const obs::JsonValue &V = Out.Report;
  double Scale = Ref > 0 ? NominalReferenceSeconds / Ref : 1;
  Out.RawWall = numberAt(V, "wall_s");
  Out.RawCpu = numberAt(V, "cpu_s");
  Out.Wall = Out.RawWall * Scale;
  Out.Cpu = Out.RawCpu * Scale;
  Out.Setup = numberAt(V, "setup_s") * Scale;
  Out.Replay = numberAt(V, "replay_s");
  Out.Execs = numberAt(V, "execs");
  Out.RssMb = numberAt(V, "peak_rss_mb");
  return Out;
}

/// The scaleout search on the serial engine, the base of par.speedup and
/// fleet.speedup. Its totals must match the parallel ones.
void Ledger::runSerialReference() {
  for (const SearchSpec *S : Searches) {
    if (S->Opts.Jobs <= 1)
      continue;
    SearchSpec Serial = *S;
    Serial.Id = S->Id + " on one worker";
    Serial.Opts.Jobs = 1;
    SerialWall = sample(Serial, /*Traced=*/false).Wall;
  }
}

void Ledger::runLayerChild() {
  uint64_t Seed = Opt.Seed;
  obs::JsonValue V;
  std::string Err;
  ++Attempted;
  bool Ok = runChild(
      [Seed] {
        std::string Json;
        for (const auto &[Name, Ns] : runLayerMicros(Seed))
          Json += (Json.empty() ? "" : ", ") + quote(Name) + ": " + num(Ns);
        return "{" + Json + "}";
      },
      V, Err);
  if (!Ok) {
    ++Failed;
    Failures.push_back("layer microbenches: " + Err);
    return;
  }
  for (const auto &[K, X] : V.Obj)
    Micros[K] = X.Num;
}

void Ledger::runOnePass(bool Traced) {
  uint64_t PassId = Passes.size();
  PassSample P;
  P.Traced = Traced;
  SpanRecorder Spans(Origin, PassId);
  int PassSpan = Spans.open("pass");
  auto T0 = Clock::now();
  for (const SearchSpec *S : passOrder(PassId)) {
    int SearchSpan = Spans.open("search:" + S->Id);
    SearchSample X = sample(*S, Traced);
    P.SearchWall[S->Id] = X.Wall;
    P.SearchCpu[S->Id] = X.Cpu;
    P.Wall += X.Wall;
    P.Cpu += X.Cpu;
    P.Setup += X.Setup;
    P.RawWall += X.RawWall;
    P.RawCpu += X.RawCpu;
    P.Replay += X.Replay;
    P.Execs += X.Execs;
    P.RssMb = std::max(P.RssMb, X.RssMb);
    if (const obs::JsonValue *C = X.Report.find("counters"))
      for (const auto &[K, V] : C->Obj)
        P.Counters[K] = K == "max_depth" ? std::max(P.Counters[K], V.Num)
                                         : P.Counters[K] + V.Num;
    if (const obs::JsonValue *Rows = X.Report.find("spans"))
      for (const obs::JsonValue &Row : Rows->Arr) {
        Span Sp;
        Sp.Name = Row.find("name")->Str;
        Sp.Start = numberAt(Row, "start");
        Sp.End = numberAt(Row, "end");
        for (const auto &[K, V] : Row.find("args")->Obj)
          Sp.Args +=
              (Sp.Args.empty() ? "" : ", ") + quote(K) + ": " + num(V.Num);
        Spans.adopt(Sp);
      }
    Spans.close(SearchSpan);
  }
  Spans.close(PassSpan);
  P.Elapsed = secondsBetween(T0, Clock::now());
  if (Traced)
    P.Spans = Spans.spans();
  std::fprintf(stderr,
               "fsmc_bench: %s pass %llu%s: wall %.4f s (measured %.4f s), "
               "cpu %.4f s, setup %.5f s\n",
               Opt.Workload.c_str(), (unsigned long long)PassId,
               Traced ? " (traced)" : "", P.Wall, P.RawWall, P.Cpu, P.Setup);
  Passes.push_back(std::move(P));
}

/// Whether another unit of work expected to take \p NextCost seconds
/// still fits in the measuring budget.
bool Ledger::budgetLeft(double NextCost) const {
  return secondsBetween(Origin, Clock::now()) + NextCost <= Opt.Seconds;
}

void Ledger::run() {
  PinnedCpu = pinToOneCpu();
  auto PassCost = [this] {
    double Cost = 0;
    for (const PassSample &P : Passes)
      Cost = std::max(Cost, P.Elapsed);
    return Cost;
  };
  if (!Opt.Trace) {
    while (Opt.Passes ? Passes.size() < Opt.Passes
                      : Passes.size() < MinPasses || budgetLeft(PassCost()))
      runOnePass(/*Traced=*/false);
    return;
  }
  runLayerChild();
  runSerialReference();
  // Untraced and traced passes alternate so both see the same machine.
  for (size_t Pairs = 0;
       Opt.Passes ? Pairs < Opt.Passes : Pairs < 1 || budgetLeft(2 * PassCost());
       ++Pairs) {
    runOnePass(/*Traced=*/false);
    runOnePass(/*Traced=*/true);
  }
}

std::vector<double> Ledger::passValues(bool Traced,
                                       double PassSample::*Field) const {
  std::vector<double> V;
  for (const PassSample &P : Passes)
    if (P.Traced == Traced)
      V.push_back(P.*Field);
  return V;
}

std::map<std::string, Summary> Ledger::endToEnd() const {
  std::map<std::string, Summary> M;
  M["wall_s"] = summarize(passValues(false, &PassSample::Wall));
  M["cpu_s"] = summarize(passValues(false, &PassSample::Cpu));
  M["execs"] = summarize(passValues(false, &PassSample::Execs));
  M["peak_rss_mb"] = summarize(passValues(false, &PassSample::RssMb));
  M["setup_s"] = summarize(passValues(false, &PassSample::Setup));
  return M;
}

std::map<std::string, Summary> Ledger::perLayer() const {
  std::map<std::string, Summary> M;
  auto Single = [](double V) {
    Summary S;
    S.Median = S.Q1 = S.Q3 = S.Min = S.Max = V;
    S.N = 1;
    return S;
  };
  auto CounterSummary = [this](const std::string &Key, double Scale = 1) {
    std::vector<double> V;
    for (const PassSample &P : Passes)
      if (P.Traced) {
        auto It = P.Counters.find(Key);
        V.push_back(It == P.Counters.end() ? 0 : It->second * Scale);
      }
    return summarize(V);
  };
  auto Counter = [&](const char *Name, const std::string &Key,
                     double Scale = 1) { M[Name] = CounterSummary(Key, Scale); };
  // A search's untraced wall times or, given its worker count, its CPU
  // time over wall time times workers.
  auto SearchValues = [this](const std::string &Id, int Workers = 0) {
    std::vector<double> V;
    for (const PassSample &P : Passes) {
      auto W = P.SearchWall.find(Id);
      if (P.Traced || W == P.SearchWall.end())
        continue;
      if (!Workers)
        V.push_back(W->second);
      else if (W->second > 0)
        V.push_back(P.SearchCpu.at(Id) / (W->second * Workers));
    }
    return V;
  };

  Counter("explorer.transitions", "transitions");
  Counter("explorer.replay_steps", "replay_steps");
  double Transitions = CounterSummary("transitions").Median;
  M["explorer.fresh_frac"] =
      Single(Transitions > 0
                 ? 1 - CounterSummary("replay_steps").Median / Transitions
                 : 0);
  Counter("explorer.replay_s", "replay_ns", 1e-9);
  Counter("explorer.execute_s", "execute_ns", 1e-9);
  Counter("explorer.max_depth", "max_depth");
  double Wall = summarize(passValues(false, &PassSample::Wall)).Median;
  double Execs = summarize(passValues(false, &PassSample::Execs)).Median;
  M["explorer.execs_per_s"] = Single(Wall > 0 ? Execs / Wall : 0);
  Counter("runtime.schedule_points", "schedule_points");
  Counter("runtime.sync_contention", "sync_contention");
  Counter("fair.edge_adds", "fair_edge_adds");
  Counter("fair.edge_removals", "fair_edge_removals");
  Counter("por.sleep_hits", "por_sleep_hits");
  Counter("por.branches_pruned", "por_branches_pruned");
  Counter("por.fair_wakes", "por_fair_wakes");
  Counter("memory.buffered_stores", "buffered_stores");
  Counter("memory.store_flushes", "store_flushes");
  Counter("state.distinct", "distinct_states");
  double Distinct = CounterSummary("distinct_states").Median;
  double Hits = CounterSummary("state_hits").Median;
  M["state.hit_frac"] =
      Single(Distinct + Hits > 0 ? Hits / (Distinct + Hits) : 0);
  Counter("explorer.snapshot_s", "snapshot_ns", 1e-9);
  Counter("race.checks", "races_checked");
  Counter("race.found", "stat_races_found");
  Counter("explorer.race_check_s", "race_check_ns", 1e-9);
  M["schedule.replay_s"] = summarize(passValues(false, &PassSample::Replay));
  Counter("par.steals", "steals");
  Counter("par.steal_fails", "steal_fails");
  Counter("par.queue_lock_acquires", "queue_lock_acquires");
  Counter("par.merge_s", "merge_ns", 1e-9);
  Counter("par.donation_bytes", "donation_bytes");
  Counter("sandbox.crashes", "stat_crashes");

  M["par.util"] = Single(0);
  M["fleet.util"] = Single(0);
  M["par.speedup"] = Single(0);
  M["fleet.speedup"] = Single(0);
  for (const SearchSpec *S : Searches) {
    if (S->Opts.Jobs <= 1 && S->Opts.FleetWorkers <= 1)
      continue;
    bool Threads = S->Opts.Jobs > 1;
    std::string Prefix = Threads ? "par." : "fleet.";
    M[Prefix + "util"] = summarize(
        SearchValues(S->Id, Threads ? S->Opts.Jobs : S->Opts.FleetWorkers));
    double SearchWall = summarize(SearchValues(S->Id)).Median;
    M[Prefix + "speedup"] =
        Single(SearchWall > 0 ? SerialWall / SearchWall : 0);
  }
  for (const SearchSpec &S : allSearches()) {
    std::vector<double> V = SearchValues(S.Id);
    M["search." + S.Id + ".wall_s"] = V.empty() ? Single(0) : summarize(V);
  }

  double Traced = summarize(passValues(true, &PassSample::Wall)).Median;
  M["obs.trace_overhead_frac"] = Single(Wall > 0 ? Traced / Wall - 1 : 0);

  std::map<std::string, std::vector<double>> SelfByKind;
  for (const PassSample &P : Passes) {
    if (!P.Traced)
      continue;
    std::map<std::string, double> Sum = {{"pass", 0},  {"search", 0},
                                         {"setup", 0}, {"check", 0},
                                         {"replaySchedule", 0}};
    std::vector<double> Self = selfTimes(P.Spans);
    for (size_t I = 0; I < P.Spans.size(); ++I)
      Sum[spanKind(P.Spans[I].Name)] += Self[I];
    for (const auto &[Kind, S] : Sum)
      SelfByKind[Kind].push_back(S);
  }
  for (const auto &[Kind, V] : SelfByKind)
    M["span." + Kind + ".self_s"] = summarize(V);

  M["host.reference_s"] = summarize(RefSamples);
  M["host.measured_wall_s"] = summarize(passValues(false, &PassSample::RawWall));
  M["host.measured_cpu_s"] = summarize(passValues(false, &PassSample::RawCpu));
  for (const auto &[Name, Ns] : Micros)
    M[Name] = Single(Ns);
  return M;
}

/// Metric names and units in report order for the current mode.
std::vector<MetricDef> metricDefs(bool Trace) {
  if (!Trace)
    return std::vector<MetricDef>(std::begin(EndToEnd), std::end(EndToEnd));
  std::vector<MetricDef> Defs(std::begin(PerLayer), std::end(PerLayer));
  for (const SearchSpec &S : allSearches())
    Defs.push_back({"search." + S.Id + ".wall_s", "s"});
  return Defs;
}

void Ledger::printResult() const {
  std::map<std::string, Summary> M = metrics();
  std::string Json = "{\"correct\": " +
                     std::string(Failed == 0 && !Passes.empty() ? "true"
                                                                : "false") +
                     ", \"attempted\": " + std::to_string(Attempted) +
                     ", \"failed\": " + std::to_string(Failed) +
                     ", \"metrics\": {";
  bool First = true;
  for (const MetricDef &D : metricDefs(Opt.Trace)) {
    Json += (First ? "" : ", ") + quote(D.Name) + ": {\"value\": " +
            num(M[D.Name].Median) + ", \"unit\": " + quote(D.Unit) + "}";
    First = false;
  }
  std::printf("%s}}\n", Json.c_str());
  std::fflush(stdout);
}

bool Ledger::writeReport(std::string &Err) const {
  Provenance Prov = collectProvenance();
  Prov.Seed = Opt.Seed;
  Prov.Passes = Passes.size();
  Prov.PinnedCpu = PinnedCpu;
  std::map<std::string, Summary> M = metrics();
  std::string Json = "{\n  \"provenance\": " + provenanceJson(Prov) +
                     ",\n  \"workload\": " + quote(Opt.Workload) +
                     ",\n  \"trace\": " + (Opt.Trace ? "true" : "false") +
                     ",\n  \"correct\": " +
                     (Failed == 0 && !Passes.empty() ? "true" : "false") +
                     ",\n  \"attempted\": " + std::to_string(Attempted) +
                     ",\n  \"failed\": " + std::to_string(Failed) +
                     ",\n  \"failures\": [";
  for (size_t I = 0; I < Failures.size(); ++I)
    Json += (I ? ", " : "") + quote(Failures[I]);
  auto Row = [](const std::string &Name, const char *Unit, const Summary &S) {
    return "    " + quote(Name) + ": {\"unit\": " + quote(Unit) +
           ", \"median\": " + num(S.Median) + ", \"q1\": " + num(S.Q1) +
           ", \"q3\": " + num(S.Q3) + ", \"min\": " + num(S.Min) +
           ", \"max\": " + num(S.Max) + ", \"n\": " + std::to_string(S.N) +
           "}";
  };
  Json += "],\n  \"metrics\": {";
  bool First = true;
  for (const MetricDef &D : metricDefs(Opt.Trace)) {
    Json += (First ? "\n" : ",\n") + Row(D.Name, D.Unit, M[D.Name]);
    First = false;
  }
  // How fast the host ran, and the pass before scaling to the reference.
  Json += "\n  },\n  \"host\": {\n" +
          Row("reference_s", "s", summarize(RefSamples)) + ",\n" +
          Row("measured_wall_s", "s",
              summarize(passValues(false, &PassSample::RawWall))) +
          ",\n" +
          Row("measured_cpu_s", "s",
              summarize(passValues(false, &PassSample::RawCpu)));
  // Where inside the workload a move sits: each search's untraced wall.
  Json += "\n  },\n  \"searches\": {";
  First = true;
  for (const SearchSpec *S : Searches) {
    std::vector<double> V;
    for (const PassSample &P : Passes)
      if (!P.Traced)
        V.push_back(P.SearchWall.at(S->Id));
    Json += (First ? "\n" : ",\n") + Row(S->Id, "s", summarize(V));
    First = false;
  }
  Json += "\n  }\n}\n";

  auto WriteFile = [&Err](const std::string &Path, const std::string &Text) {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F) {
      Err = "cannot write " + Path + ": " + std::strerror(errno);
      return false;
    }
    bool Ok = std::fwrite(Text.data(), 1, Text.size(), F) == Text.size();
    Ok = std::fclose(F) == 0 && Ok;
    if (!Ok)
      Err = "short write to " + Path;
    return Ok;
  };
  if (!WriteFile(Opt.Out, Json))
    return false;
  if (!Opt.Trace)
    return true;
  std::vector<Span> All;
  for (const PassSample &P : Passes)
    All.insert(All.end(), P.Spans.begin(), P.Spans.end());
  std::string TracePath = Opt.Out;
  if (TracePath.size() > 5 &&
      TracePath.compare(TracePath.size() - 5, 5, ".json") == 0)
    TracePath.resize(TracePath.size() - 5);
  return WriteFile(TracePath + ".trace.json", chromeTrace(All));
}

int usage(const char *Msg) {
  std::fprintf(stderr,
               "fsmc_bench: %s\n"
               "usage: fsmc_bench --workload=NAME [--seed=N] [--seconds=S] "
               "[--trace=0|1]\n"
               "                  [--passes=N] [--out=FILE]\n"
               "workloads:",
               Msg);
  for (const std::string &W : workloadNames())
    std::fprintf(stderr, " %s", W.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--list") {
      for (const std::string &W : workloadNames())
        std::printf("%s\n", W.c_str());
      return 0;
    }
    size_t Eq = Arg.find('=');
    std::string Key = Arg.substr(0, Eq);
    if (Eq == std::string::npos) {
      if (I + 1 >= Argc)
        return usage(("missing value for " + Arg).c_str());
      Eq = Arg.size();
      Arg += '=';
      Arg += Argv[++I];
    }
    std::string Value = Arg.substr(Eq + 1);
    char *End = nullptr;
    if (Key == "--workload") {
      Opt.Workload = Value;
    } else if (Key == "--seed") {
      Opt.Seed = std::strtoull(Value.c_str(), &End, 10);
    } else if (Key == "--seconds") {
      Opt.Seconds = std::strtod(Value.c_str(), &End);
    } else if (Key == "--trace") {
      Opt.Trace = Value == "1";
      if (Value != "0" && Value != "1")
        return usage("--trace takes 0 or 1");
    } else if (Key == "--passes") {
      Opt.Passes = std::strtoull(Value.c_str(), &End, 10);
    } else if (Key == "--out") {
      Opt.Out = Value;
    } else {
      return usage(("unknown option " + Key).c_str());
    }
    if (End && (*End || Value.empty()))
      return usage(("bad number for " + Key + ": " + Value).c_str());
  }
  std::vector<const SearchSpec *> Searches = searchesOf(Opt.Workload);
  if (Searches.empty())
    return usage(("unknown workload '" + Opt.Workload + "'").c_str());
  if (!(Opt.Seconds > 0))
    return usage("--seconds must be positive");
#ifndef NDEBUG
  std::fprintf(stderr, "fsmc_bench: refusing to report from a build with "
                       "asserts on; configure with CMAKE_BUILD_TYPE=Release\n");
  return 2;
#endif

  Ledger L(Opt, std::move(Searches));
  L.run();
  if (!Opt.Out.empty()) {
    std::string Err;
    if (!L.writeReport(Err)) {
      std::fprintf(stderr, "fsmc_bench: %s\n", Err.c_str());
      return 1;
    }
  }
  L.printResult();
  return 0;
}
