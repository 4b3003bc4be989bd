//===- core/Checkpoint.h - Search checkpoint and resume --------*- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checkpointing for long unattended runs (the multi-week Dryad/APE runs
/// of the paper's Section 6 are the motivating scale): the complete
/// remaining search is a set of schedule prefixes -- the stateless
/// method's whole state between executions is the DFS choice stack -- so
/// a checkpoint is small, versioned text, and resuming from it visits
/// exactly the executions an uninterrupted run would have visited.
///
/// The frontier is a list of CheckpointUnits (core/Schedule.h), the one
/// unit of work every engine runs. A serial explorer checkpoints its raw
/// DFS stack (one unit, nothing frozen: the resumed explorer may advance
/// any record). The thread engine and the fleet checkpoint their queued
/// units plus what each stopped explorer hands back (Explorer::handBack):
/// one continuation, frozen through the shallowest record with untried
/// siblings, and those siblings. Any engine resumes any of these files
/// by running the units as they are. Format and invariants:
/// docs/ROBUSTNESS.md.
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_CORE_CHECKPOINT_H
#define FSMC_CORE_CHECKPOINT_H

#include "core/Checker.h"
#include "core/Schedule.h"

#include <string>
#include <vector>

namespace fsmc {

/// Everything needed to continue a search: written by
/// CheckerOptions::CheckpointSink / returned in CheckResult::Resume.
struct CheckpointState {
  /// Cumulative totals at save time; resume continues from these so
  /// budgets (MaxExecutions) and reports span the whole logical run.
  SearchStats Stats;
  /// Unexplored frontier. Empty means the search was already complete.
  std::vector<CheckpointUnit> Frontier;
  /// Serial explorer PRNG state (random tails / random walks); chained
  /// through on in-process serial resume only.
  uint64_t Rng = 0;
  /// Coverage signatures seen so far (sorted), so DistinctStates and the
  /// exported signature set match an uninterrupted run.
  std::vector<uint64_t> States;
  /// First (DFS-smallest so far) bug of a StopOnFirstBug=false run that
  /// checkpointed after finding it. TraceText is not persisted -- replay
  /// the schedule to regenerate it.
  std::optional<BugReport> Bug;
  /// Crash and hang incidents recorded so far, in order, so a resumed run
  /// reports every repro schedule the straight run would. TraceText is not
  /// persisted.
  std::vector<BugReport> Incidents;
};

/// Stable text encoding, version tag "fsmc-ckpt 4". Every nonzero stat
/// row that accumulates across run parts (FSMC_SEARCH_STATS rows not
/// merged as StatMerge::Run) is written; absent stat keys read as zero.
/// \p Program and \p Seed identify the run; resume refuses a mismatched
/// program name.
std::string encodeCheckpoint(const CheckpointState &CK,
                             const std::string &Program, uint64_t Seed);

/// Parses encodeCheckpoint output. \returns false on malformed or
/// wrong-version input with a diagnostic in \p Err.
bool decodeCheckpoint(const std::string &Text, CheckpointState &CK,
                      std::string &Program, uint64_t &Seed,
                      std::string &Err);

/// Atomically (write-temp-then-rename) writes the checkpoint file.
bool writeCheckpointFile(const std::string &Path, const CheckpointState &CK,
                         const std::string &Program, uint64_t Seed);

/// Reads a checkpoint file; false with \p Err set on any failure.
bool readCheckpointFile(const std::string &Path, CheckpointState &CK,
                        std::string &Program, uint64_t &Seed,
                        std::string &Err);

/// Continues a checkpointed search to completion (or the next budget /
/// interrupt). \p Opts must carry the same semantics-affecting knobs
/// (Fair, YieldK, Kind, bounds, Seed) as the original run; stats and
/// coverage are cumulative across the original and resumed parts.
CheckResult resumeCheck(const TestProgram &Program,
                        const CheckerOptions &Opts,
                        const CheckpointState &CK);

} // namespace fsmc

#endif // FSMC_CORE_CHECKPOINT_H
