//===- core/ParallelExplorer.h - Prefix-sharded parallel search *- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel exploration engine: N OS worker threads cooperatively
/// enumerate the same DFS choice tree the serial Explorer walks, sharded
/// by schedule prefix.
///
/// Stateless search parallelizes on a simple observation: every execution
/// is a pure function of its choice sequence, so any subtree of the
/// choice tree can be explored by whoever holds the prefix that reaches
/// it. A work item is a CheckpointUnit (core/Schedule.h): such a prefix
/// plus the length of its frozen head. A worker replays it
/// (Explorer::preloadScheduleFrozenPrefix), then runs the ordinary serial
/// DFS from it without advancing the frozen head. Each worker keeps its
/// items on a private steal deque; a starving worker steals half of
/// another's deque or asks a busy one to split, and the victim carves
/// the unexplored sibling alternatives off the *shallowest* record of its
/// DFS stack -- the largest subtrees it owns -- onto its deque (work
/// stealing by splitting).
///
/// The partition is exact -- every complete execution of the serial
/// search runs on exactly one worker -- so the totals merged in
/// SearchTotals (core/SearchTotals.h) equal the serial run's. Under
/// StopOnFirstBug the engine reports the *DFS-smallest* bug: work that
/// lies after the current best is pruned, and work before it keeps
/// running until no earlier bug can exist. That tie-break makes
/// `--jobs N` report the same counterexample as `--jobs 1`.
///
/// Random-walk search and stateful pruning depend on a global visit
/// order, so runSearch (core/Checker.h) runs them on the serial explorer
/// instead; this engine requires Opts.Jobs > 1.
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_CORE_PARALLELEXPLORER_H
#define FSMC_CORE_PARALLELEXPLORER_H

#include "core/Checker.h"

namespace fsmc {

/// Drives one parallel checker run with Opts.Jobs workers.
class ParallelExplorer {
public:
  ParallelExplorer(const TestProgram &Program, const CheckerOptions &Opts);

  /// Runs the sharded search to completion (exhaustion, first bug, or a
  /// shared budget) and returns the aggregated result. With \p From it
  /// continues that checkpoint instead of starting at the tree root: the
  /// frontier units seed the injector as they are, steal requests fan
  /// them out as they do the root, and the totals start from it. Honors
  /// CheckerOptions::CheckpointEvery / InterruptFlag at epoch granularity:
  /// workers wind down at the next execution boundary and stash what
  /// their explorers hand back (Explorer::handBack, the rule the fleet
  /// uses too) along with their unstarted units, and the driver either
  /// writes the stash as a checkpoint and requeues it or returns it in
  /// CheckResult::Resume.
  CheckResult run(const CheckpointState *From = nullptr);

private:
  struct Shared;

  const TestProgram &Program;
  CheckerOptions Opts;
};

} // namespace fsmc

#endif // FSMC_CORE_PARALLELEXPLORER_H
