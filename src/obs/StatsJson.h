//===- obs/StatsJson.h - Machine-readable run reports ----------*- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders a CheckResult (verdict, SearchStats, bug report, live counter
/// snapshot) as one JSON object -- the `--stats-json=FILE|-` output of
/// fsmc_run and the format CI tooling diffs across revisions. The
/// schema is documented in docs/OBSERVABILITY.md; `schema` is bumped on
/// incompatible changes.
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_OBS_STATSJSON_H
#define FSMC_OBS_STATSJSON_H

#include "core/Checker.h"

#include <string>
#include <string_view>

namespace fsmc {

class OutStream;

namespace obs {

class Observer;

/// Appends \p S to \p Out with JSON string escaping (quotes, backslash,
/// control characters) but without the surrounding quotes.
void appendJsonEscaped(std::string &Out, std::string_view S);

/// Why the search stopped, as a stable machine-readable token:
/// "bug_found", "time_budget_exhausted", "execution_cap_hit",
/// "search_exhausted", or "stopped".
const char *stopReason(const CheckResult &R);

/// Human-readable version of stopReason for the run summary; empty for
/// an exhausted bug-free search (the unremarkable case).
std::string budgetNote(const CheckResult &R, const CheckerOptions &Opts);

/// Context for the report; all fields optional except Program.
struct StatsJsonInfo {
  std::string Program;
  const CheckerOptions *Options = nullptr; ///< Echoed into "options".
  const Observer *Obs = nullptr;           ///< Adds the "counters" section.
  bool Replay = false;                     ///< Run was a schedule replay.
  /// Adds the "timing" section (elapsed_ms, execs_per_sec). Off by
  /// default -- wall-clock numbers vary run to run, and default reports
  /// are kept byte-identical across revisions (the PR 3 convention);
  /// opt in via fsmc_run --timing.
  bool Timing = false;
};

/// Renders the full report as a pretty-printed JSON object (trailing
/// newline included).
std::string renderStatsJson(const CheckResult &R, const StatsJsonInfo &Info);

/// renderStatsJson written to \p OS and flushed.
void writeStatsJson(OutStream &OS, const CheckResult &R,
                    const StatsJsonInfo &Info);

} // namespace obs
} // namespace fsmc

#endif // FSMC_OBS_STATSJSON_H
