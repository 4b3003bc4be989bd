//===- obs/ProgressReporter.h - Live search status lines -------*- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A background thread that snapshots the Observer's counters on a fixed
/// interval and prints a one-line status to stderr, so a multi-hour
/// search is not a black box until it returns:
///
///   [fsmc 12.0s] elapsed_ms=12000 exec=48210 (4012/s, avg 3900/s)
///       trans=1.2M depth=37 edges=880 replay=64% queue=3 workers=4 eta=88s
///
/// The parenthesized rate pair is the last window's delta rate followed
/// by the cumulative average (executions / elapsed -- the same
/// execs_per_sec the stats-json timing block reports); replay is the
/// share of transitions spent re-running recorded prefixes; the ETA is
/// against whichever budget (time or executions) binds first. Each line
/// is composed fully before a single atomic write, so progress never
/// shears with a bug report being printed on stdout (see OutStream).
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_OBS_PROGRESSREPORTER_H
#define FSMC_OBS_PROGRESSREPORTER_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

namespace fsmc {

class OutStream;

namespace obs {

class Observer;
struct CounterSnapshot;

class ProgressReporter {
public:
  struct Config {
    double IntervalSeconds = 1.0;
    /// Budgets, if known, for the ETA field; 0 = unbounded.
    double TimeBudgetSeconds = 0;
    uint64_t MaxExecutions = 0;
    /// Number of search workers, shown as `workers=N`; 0 hides the field.
    int Jobs = 0;
    /// Tree-size estimation is on (CheckerOptions::Estimate): append
    /// `progress=…% est=… eta_est=…` from the live weighted-backtrack
    /// mass. Off keeps the historical line shape.
    bool Estimate = false;
  };

  /// Starts the reporter thread immediately; prints to \p OS.
  ProgressReporter(const Observer &Obs, const Config &Cfg, OutStream &OS);
  /// Stops and joins the thread; no further output after this returns.
  ~ProgressReporter();

  ProgressReporter(const ProgressReporter &) = delete;
  ProgressReporter &operator=(const ProgressReporter &) = delete;

  /// Stops early (idempotent). The final status line is printed by the
  /// caller's summary, not here, so stop() prints nothing.
  void stop();

private:
  void run();

  const Observer &Obs;
  Config Cfg;
  OutStream &OS;
  /// Captured at construction, i.e. when the search starts -- not when the
  /// reporter thread first gets scheduled. Seeding the first window from
  /// thread startup undercounted its elapsed time and overstated (or, with
  /// a slow spawn, zeroed) the first printed rate.
  std::chrono::steady_clock::time_point Start;
  std::mutex M;
  std::condition_variable CV;
  bool Stopping = false;
  std::thread Th;
};

/// Composes one status line, newline included, from the counters \p S
/// taken \p ElapsedSeconds into the search. \p ExecRate is the last
/// window's executions per second. Optional fields (POR, fleet recovery,
/// replay share, workers, ETA, estimate) appear only when \p Cfg or \p S
/// gives them something to say, so a line without them keeps the
/// historical shape.
std::string formatProgressLine(const ProgressReporter::Config &Cfg,
                               const CounterSnapshot &S,
                               double ElapsedSeconds, double ExecRate);

} // namespace obs
} // namespace fsmc

#endif // FSMC_OBS_PROGRESSREPORTER_H
