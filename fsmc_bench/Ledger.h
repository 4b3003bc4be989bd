//===- fsmc_bench/Ledger.h - Samples, spans and JSON for the ledger -*- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bookkeeping half of the ledger: order statistics over repeated
/// passes, the in-memory span recorder behind the traced pass, JSON text
/// helpers, and the provenance block every report carries.
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_BENCH_LEDGER_H
#define FSMC_BENCH_LEDGER_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace fsmc {
namespace ledger {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

/// Order statistics of one metric over a run's passes. Quartiles follow
/// Python's statistics.quantiles(n=4) (the exclusive method), so a report
/// and a script reading it agree on the spread.
struct Summary {
  double Median = 0;
  double Q1 = 0;
  double Q3 = 0;
  double Min = 0;
  double Max = 0;
  size_t N = 0;
};

Summary summarize(std::vector<double> Values);

/// Times a fixed computation that shares no code with the checker: 20000
/// ucontext round trips through libc's swapcontext, the operation that
/// dominates a stateless search's cost profile. Host-wide slowdowns
/// (co-tenants, frequency) stretch it and a search alike, so a search's
/// time scaled by it is far steadier across runs than either time alone.
double referenceSeconds();

/// Renders \p V with every digit a double carries (round-trip exact).
std::string num(double V);

/// Renders \p S as a quoted JSON string.
std::string quote(const std::string &S);

/// One traced interval. Spans of one pass share Pass; Parent is the id of
/// the enclosing span, -1 at the root.
struct Span {
  std::string Name;
  int Id = 0;
  int Parent = -1;
  uint64_t Pass = 0;
  double Start = 0; ///< Seconds since the run's time origin.
  double End = 0;
  /// Extra Chrome-trace args, as the inside of a JSON object ("" = none).
  std::string Args;
};

/// Records spans in memory around the calls the ledger makes into the
/// checker; nothing is written until the run ends.
class SpanRecorder {
public:
  SpanRecorder(Clock::time_point Origin, uint64_t Pass)
      : Origin(Origin), Pass(Pass) {}

  /// Opens a span under the innermost open one. \returns its id.
  int open(const std::string &Name);
  /// Closes span \p Id, attaching \p Args to it.
  void close(int Id, const std::string &Args = "");
  /// Adds \p S, a closed span recorded by another process against the same
  /// origin, under the innermost open span.
  void adopt(Span S);

  const std::vector<Span> &spans() const { return Spans; }

private:
  Clock::time_point Origin;
  uint64_t Pass;
  std::vector<Span> Spans;
  std::vector<int> Stack;
};

/// The span kind of \p Name: the text before the first ':' ("search:x"
/// is kind "search").
std::string spanKind(const std::string &Name);

/// Self time of each span: its duration minus the durations of its
/// children. Children of one span never overlap (the ledger is
/// sequential), so this is exact.
std::vector<double> selfTimes(const std::vector<Span> &Spans);

/// Renders \p Spans as a Chrome trace_event document.
std::string chromeTrace(const std::vector<Span> &Spans);

/// Where a report came from, so two reports can be compared knowingly.
struct Provenance {
  std::string BuildType;
  bool Asserts = false;
  std::string Commit;
  long Nproc = 0;
  unsigned HardwareConcurrency = 0;
  uint64_t Seed = 0;
  size_t Passes = 0;
  int PinnedCpu = -1; ///< The CPU serial searches ran on; -1 = unpinned.
  int Schema = 1;
};

/// Fills the build and host fields; the rest are the caller's.
Provenance collectProvenance();

std::string provenanceJson(const Provenance &P);

} // namespace ledger
} // namespace fsmc

#endif // FSMC_BENCH_LEDGER_H
