//===- fsmc_bench/Searches.h - The ledger's searches and verdicts -*- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fixed searches the ledger times, grouped into its four workloads,
/// each with the outcome it must reproduce on every pass. The expectation
/// table doubles as the hardware-independent half of the ledger: a search
/// whose verdict or execution count moves is a failed search, not a
/// faster one.
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_BENCH_SEARCHES_H
#define FSMC_BENCH_SEARCHES_H

#include "core/Checker.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace fsmc {
namespace ledger {

/// One search of a workload and the outcome every pass must reproduce.
struct SearchSpec {
  /// Metric id: the search's time is reported as search.<Id>.wall_s.
  std::string Id;
  std::string Workload;
  std::function<TestProgram()> Make;
  CheckerOptions Opts;
  Verdict Expect = Verdict::Pass;
  /// Executions to the verdict. Exact for every search: serial searches
  /// are deterministic, and the parallel ones are exhaustive.
  uint64_t Executions = 0;
  /// Distinct states; checked only when the search tracks coverage.
  uint64_t States = 0;
  /// Sandbox-harvested crashes (SearchStats::Crashes).
  uint64_t Crashes = 0;
  /// Distinct data races (SearchStats::RacesFound).
  uint64_t Races = 0;
};

/// Every search of every workload, in a fixed order.
const std::vector<SearchSpec> &allSearches();

/// The workload names, in ledger order.
const std::vector<std::string> &workloadNames();

/// The searches of \p Workload, in table order; empty if unknown.
std::vector<const SearchSpec *> searchesOf(const std::string &Workload);

/// Compares \p R with the expectation table. \returns an empty string when
/// it matches, else a one-line description of the first mismatch.
std::string checkOutcome(const SearchSpec &S, const CheckResult &R);

} // namespace ledger
} // namespace fsmc

#endif // FSMC_BENCH_SEARCHES_H
