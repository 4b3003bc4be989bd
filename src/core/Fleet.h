//===- core/Fleet.h - Supervised multi-process exploration -----*- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fleet mode (--fleet=N; docs/FLEET.md): a coordinator process forks N
/// long-lived worker processes and streams leased work units -- frozen
/// schedule prefixes with an execution budget -- over pipes, merging each
/// unit's stats, incidents and remainder prefixes back deterministically.
/// Unlike --jobs=N, a crashing workload costs one uncommitted attempt: a
/// dead or silent worker's unit is re-issued with backoff, quarantined as
/// a replayable Verdict::Crash after FleetQuarantine deaths, and dead
/// workers are replaced up to a respawn budget, after which the fleet
/// narrows and, with no worker left, finishes in-process. SIGINT drains
/// the leases into one resumable checkpoint. On exhaustive searches
/// verdicts, stats and incident sets equal --jobs=N, under
/// FSMC_FLEET_CHAOS fault injection too.
///
/// Under IsolationMode::Batch the fleet provides crash isolation: one
/// worker, units leased in DFS order (so executions run in the serial
/// order), and a worker death committed through its last finished
/// execution and recorded as a replayable Verdict::Crash / Verdict::Hang
/// incident; the search continues past it. Random walks run here too.
///
/// The policy is core/FleetCoordinator.h; this header's runFleet drives
/// it with processes.
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_CORE_FLEET_H
#define FSMC_CORE_FLEET_H

#include "core/Checker.h"

namespace fsmc {

struct CheckpointState;

/// Runs the supervised multi-process search with Opts.FleetWorkers
/// workers, or one under IsolationMode::Batch. StatefulPruning, and
/// RandomWalk without isolation, are the caller's to exclude (runSearch
/// routes them to the serial engine). With \p ResumeCK, seeds the lease
/// table from the checkpoint's frontier and continues cumulatively.
CheckResult runFleet(const TestProgram &Program, const CheckerOptions &Opts,
                     const CheckpointState *ResumeCK = nullptr);

} // namespace fsmc

#endif // FSMC_CORE_FLEET_H
