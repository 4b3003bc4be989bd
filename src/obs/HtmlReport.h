//===- obs/HtmlReport.h - Self-contained HTML search report ----*- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders one check run -- verdict, search stats, the tree-size
/// estimate, and the schedule-point profile -- as a single
/// self-contained HTML page (inline CSS only, no scripts, no external
/// fetches), so a hotspot report can be attached to a CI artifact or
/// mailed around as one file. Produced by `fsmc_run --report=<out>`,
/// which implies --profile-search.
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_OBS_HTMLREPORT_H
#define FSMC_OBS_HTMLREPORT_H

#include <string>

namespace fsmc {
struct CheckResult;
struct CheckerOptions;

namespace obs {

struct CounterSnapshot;

/// Renders the full report page. Sections without data (no profile, no
/// estimate) are omitted rather than rendered empty. \p Counters are the
/// run's observer counters, for the rows derived from them (the replay
/// share).
std::string renderHtmlReport(const CheckResult &R, const CheckerOptions &Opts,
                             const std::string &ProgramName,
                             const CounterSnapshot &Counters);

} // namespace obs
} // namespace fsmc

#endif // FSMC_OBS_HTMLREPORT_H
