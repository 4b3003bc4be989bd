//===- core/Checker.cpp ---------------------------------------------------===//

#include "core/Checker.h"

#include "core/Checkpoint.h"
#include "core/Explorer.h"
#include "core/Fleet.h"
#include "core/ParallelExplorer.h"
#include "core/SearchTotals.h"

#include <algorithm>
#include <cassert>
#include <chrono>

using namespace fsmc;

const char *fsmc::verdictName(Verdict V) {
  switch (V) {
  case Verdict::Pass:
    return "pass";
  case Verdict::SafetyViolation:
    return "safety violation";
  case Verdict::Deadlock:
    return "deadlock";
  case Verdict::Livelock:
    return "livelock";
  case Verdict::GoodSamaritanViolation:
    return "good samaritan violation";
  case Verdict::Divergence:
    return "divergence";
  case Verdict::Crash:
    return "crash";
  case Verdict::Hang:
    return "hang";
  case Verdict::DataRace:
    return "data race";
  }
  return "?";
}

namespace {

template <StatMerge M, typename T> void mergeStat(T &Into, const T &From) {
  if constexpr (M == StatMerge::Sum)
    Into += From;
  else if constexpr (M == StatMerge::Max)
    Into = std::max(Into, From);
}

} // namespace

void fsmc::mergeSearchStats(SearchStats &Into, const SearchStats &From) {
#define FSMC_STAT_MERGE(Type, Member, Key, Merge, Json)                        \
  mergeStat<StatMerge::Merge>(Into.Member, From.Member);
  FSMC_SEARCH_STATS(FSMC_STAT_MERGE)
#undef FSMC_STAT_MERGE
}

void fsmc::finalizeRaces(CheckResult &R, const CheckerOptions &Opts) {
  if (Opts.Races == RaceCheckMode::Off)
    return;
  // The within-run dedup already happened in whichever engine collected
  // the incidents; the count only needs to be consistent with them.
  uint64_t RaceIncidents = 0;
  const BugReport *First = nullptr;
  for (const BugReport &I : R.Incidents)
    if (I.Kind == Verdict::DataRace) {
      ++RaceIncidents;
      if (!First)
        First = &I;
    }
  R.Stats.RacesFound = std::max(R.Stats.RacesFound, RaceIncidents);
  if (!First)
    return;
  // Promote here, at the top level only: the engines themselves must keep
  // racy executions indistinguishable from clean ones (same StopOnFirstBug
  // behaviour, same multiset) so --races=on explores exactly what
  // --races=off does. In Fatal mode the race already flowed through the
  // normal bug path and R.Bug is set.
  if (R.Kind == Verdict::Pass) {
    R.Kind = Verdict::DataRace;
    if (!R.Bug)
      R.Bug = *First;
  }
}

namespace {

/// The serial engine. Without a checkpoint, one explorer over the whole
/// tree; with one, a chain over its frontier units in order. Each unit's
/// explorer runs on top of the totals so far -- stats, coverage, the RNG
/// and the first-bug slot thread through -- so the aggregate equals one
/// uninterrupted run.
CheckResult runSerial(const TestProgram &Program, const CheckerOptions &Opts,
                      const CheckpointState *From) {
  if (!From) {
    Explorer E(Program, Opts);
    return E.run();
  }
  const CheckpointState &CK = *From;
  auto Start = std::chrono::steady_clock::now();
  // Each unit's explorer dedups races afresh; the totals dedup across
  // units (docs/RACES.md: races before the checkpoint may recount).
  SearchTotals Totals(Opts, From);
  uint64_t Rng = CK.Rng ? CK.Rng : Opts.Seed;
  CheckResult R; // The last unit's result.

  for (size_t U = 0; U < CK.Frontier.size(); ++U) {
    CheckerOptions SubOpts = Opts;
    if (Opts.TimeBudgetSeconds > 0) {
      double Remaining =
          Opts.TimeBudgetSeconds -
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        Start)
              .count();
      SubOpts.TimeBudgetSeconds = Remaining > 0.001 ? Remaining : 0.001;
    }
    if (Opts.CheckpointSink) {
      // A periodic checkpoint inside one unit must also carry the units
      // not yet started, or resuming from it would lose them, and the
      // crash incidents of the run parts before this one.
      SubOpts.CheckpointSink = [&Opts, &CK, U](const CheckpointState &S) {
        CheckpointState Full = S;
        for (size_t V = U + 1; V < CK.Frontier.size(); ++V)
          Full.Frontier.push_back(CK.Frontier[V]);
        Full.Incidents = CK.Incidents;
        Opts.CheckpointSink(Full);
      };
    }

    Explorer E(Program, SubOpts);
    E.preloadScheduleFrozenPrefix(CK.Frontier[U].Prefix,
                                  CK.Frontier[U].FrozenLen);
    E.preloadBaseStats(Totals.stats());
    E.setRngState(Rng);
    if (SubOpts.TrackCoverage)
      E.preloadSeenStates(Totals.states());
    if (Totals.bug())
      E.preloadBug(*Totals.bug());
    R = E.run();
    Rng = E.rngState();
    Totals.addOnTop(R, E.seenStates());
    if (R.Bug)
      Totals.offerBug(*R.Bug);

    if (R.Stats.Interrupted && R.Resume) {
      for (size_t V = U + 1; V < CK.Frontier.size(); ++V)
        R.Resume->Frontier.push_back(CK.Frontier[V]);
      R.Resume->Incidents = CK.Incidents;
      break;
    }
    if (R.Stats.TimedOut || R.Stats.ExecutionCapHit)
      break;
    if (R.foundBug() && Opts.StopOnFirstBug)
      break;
  }

  CheckResult Agg = Totals.finish(
      R.Stats.ExecutionCapHit, R.Stats.TimedOut, R.Stats.Interrupted,
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count());
  Agg.Resume = std::move(R.Resume);
  return Agg;
}

bool isProcessDeath(Verdict V) {
  return V == Verdict::Crash || V == Verdict::Hang;
}

} // namespace

CheckResult fsmc::runSearch(const TestProgram &Program,
                            const CheckerOptions &Opts,
                            const CheckpointState *From) {
  CheckerOptions Effective = Opts;
  // Random walks never exhaust; insist on some budget so the search ends.
  if (Effective.Kind == SearchKind::RandomWalk &&
      Effective.MaxExecutions == 0 && Effective.TimeBudgetSeconds <= 0)
    Effective.MaxExecutions = 10000;
  if (Effective.StatefulPruning || Effective.ExportStateSignatures)
    Effective.TrackCoverage = true;

  const bool Serial = Effective.StatefulPruning ||
                      Effective.Kind == SearchKind::RandomWalk ||
                      (Effective.FleetWorkers < 1 && Effective.Jobs <= 1);
  CheckResult R;
  if (From && From->Frontier.empty()) {
    // The checkpoint was taken exactly at exhaustion; nothing to run.
    R = SearchTotals(Effective, From).finish(false, false, false, 0);
  } else if (Effective.Isolate == IsolationMode::Batch &&
             !Effective.StatefulPruning) {
    // Isolation is the fleet's one-worker policy (core/Fleet.h). Prune
    // keys cannot cross the fork boundary, so stateful pruning stays
    // in-process.
    R = runFleet(Program, Effective, From);
  } else if (Serial) {
    R = runSerial(Program, Effective, From);
  } else if (Effective.FleetWorkers >= 1) {
    R = runFleet(Program, Effective, From);
  } else {
    R = ParallelExplorer(Program, Effective).run(From);
  }

  // No genuine workload bug: the first crash/hang incident stands in.
  // Data races never do -- escalating them is finalizeRaces' decision.
  if (!R.Bug || isProcessDeath(R.Bug->Kind))
    for (const BugReport &I : R.Incidents)
      if (isProcessDeath(I.Kind)) {
        R.Kind = I.Kind;
        R.Bug = I;
        break;
      }
  finalizeRaces(R, Effective);
  return R;
}

CheckResult fsmc::check(const TestProgram &Program,
                        const CheckerOptions &Opts) {
  assert(Program.Body && "test program has no body");
  return runSearch(Program, Opts);
}
