//===- core/Schedule.h - Serialized schedules for bug replay ---*- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serialized schedules: the choice sequence of one execution, printable
/// and replayable. CHESS's headline workflow is deterministic repro --
/// "CHESS executes this test repeatedly, while controlling the thread
/// schedule" -- and a found bug is only useful if the failing schedule
/// can be re-run under a debugger. A Schedule captures exactly the
/// explorer's non-forced choices; forced moves are recomputed during
/// replay, so schedules stay short and survive unrelated code edits that
/// do not change the choice structure.
///
/// Wire format (version 1):
///   fsmc1:c/n;c/n;...;c/n
/// where each `c/n` is the chosen index and the number of options of one
/// choice point (scheduling or data). Non-backtrackable (random-tail)
/// choices are marked with a trailing `r`. Under --memory=tso|pso a
/// scheduling choice whose candidates include store-buffer flush agents
/// (docs/MEMORY.md) carries their bits as a trailing `f<hex>` thread
/// mask; replay recomputes the flush-agent set and validates it against
/// the recorded mask, so a schedule replayed under the wrong memory
/// model surfaces as Verdict::Divergence instead of silently exploring a
/// different interleaving. Under sleep-set POR (CheckerOptions::Por) a
/// scheduling choice additionally carries the sleep set at the choice
/// point as a trailing `s<hex>` thread mask, validated the same way
/// against the wrong POR mode. Suffix order is `r`, `f<hex>`, `s<hex>`.
/// Schedules recorded with POR off and --memory=sc carry no masks and
/// are byte-identical to pre-POR, pre-weak-memory output.
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_CORE_SCHEDULE_H
#define FSMC_CORE_SCHEDULE_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace fsmc {

struct CheckerOptions;
struct CheckResult;
struct TestProgram;

/// One recorded choice: `Chosen` of `Num` options.
struct ScheduleChoice {
  int Chosen = 0;
  int Num = 1;
  bool Backtrack = true;
  /// Sleep set (ThreadSet::rawBits) at this choice point; nonzero only
  /// for scheduling choices recorded under CheckerOptions::Por. The mask
  /// is the set *before* this choice resolves, so every sibling at the
  /// same node shares it -- which is what lets splitWork donate siblings
  /// with the mask copied verbatim.
  uint64_t SleepMask = 0;
  /// Flush-agent bits (tids >= Runtime::FlushBase) of the candidate set
  /// at this choice point; nonzero only for scheduling choices recorded
  /// under --memory=tso|pso with at least one flush agent among the
  /// candidates. Shared by every sibling at the node, like SleepMask.
  uint64_t FlushMask = 0;
};

/// One unexplored region of the choice tree, and the one unit of work of
/// every engine: the thread engine's deques, the fleet's leases and
/// checkpoint frontiers all carry it. The region is Prefix's own path and
/// every path DFS would reach after it by advancing a record at index
/// FrozenLen or deeper (Explorer::preloadScheduleFrozenPrefix). FrozenLen
/// is Prefix.size() for a donated sibling subtree, 0 for a serial DFS
/// stack, and anything between for a handed-back continuation
/// (Explorer::handBack).
struct CheckpointUnit {
  std::vector<ScheduleChoice> Prefix;
  /// Leading records the explorer must not advance or pop.
  size_t FrozenLen = 0;
};

/// Renders choices in the `fsmc1:` wire format.
std::string encodeSchedule(const std::vector<ScheduleChoice> &Choices);

/// Parses the wire format. \returns false on malformed input, leaving
/// \p Out unspecified.
bool decodeSchedule(const std::string &Text,
                    std::vector<ScheduleChoice> &Out);

/// DFS order over choice paths (the Chosen values of a schedule): the
/// first differing choice index decides and an ancestor precedes its
/// extensions. Two distinct complete executions always differ at some
/// consumed index, so this totally orders bugs; it is what makes every
/// engine report the counterexample serial DFS finds first.
bool dfsBefore(const std::vector<int> &A, const std::vector<int> &B);

/// The DFS path key of an encoded schedule; empty if it does not parse.
std::vector<int> pathKeyOfSchedule(const std::string &Schedule);

/// The DFS path key of a choice prefix.
std::vector<int> pathKeyOfPrefix(const std::vector<ScheduleChoice> &Prefix);

/// Re-executes \p Program once under the recorded \p Schedule (typically
/// BugReport::Schedule) and reports that single execution's outcome.
/// The options must match the original run's semantics-affecting knobs
/// (Fair, YieldK, bounds); scheduling decisions come from the schedule.
CheckResult replaySchedule(const TestProgram &Program,
                           const CheckerOptions &Opts,
                           const std::string &Schedule);

} // namespace fsmc

#endif // FSMC_CORE_SCHEDULE_H
