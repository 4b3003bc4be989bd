//===- core/Checker.cpp ---------------------------------------------------===//

#include "core/Checker.h"

#include "core/Checkpoint.h"
#include "core/Explorer.h"
#include "core/Fleet.h"
#include "core/ParallelExplorer.h"
#include "obs/SearchProfile.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <unordered_set>

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
/// tree; with one, a chain over its frontier units in order. Stats,
/// coverage, the RNG and the first-bug slot thread through from unit to
/// unit, so the aggregate equals one uninterrupted run.
CheckResult runSerial(const TestProgram &Program, const CheckerOptions &Opts,
                      const CheckpointState *From) {
  if (!From) {
    Explorer E(Program, Opts);
    return E.run();
  }
  const CheckpointState &CK = *From;
  auto Start = std::chrono::steady_clock::now();
  CheckResult Agg;
  Agg.Stats = CK.Stats;
  Agg.Stats.TimedOut = false;
  Agg.Stats.ExecutionCapHit = false;
  Agg.Stats.SearchExhausted = false;
  Agg.Stats.Interrupted = false;
  uint64_t Rng = CK.Rng ? CK.Rng : Opts.Seed;
  std::vector<uint64_t> States = CK.States;
  std::optional<BugReport> Bug = CK.Bug;
  // Each frontier unit runs its own explorer with a fresh race-dedup set,
  // so unit N+1 can re-report a race unit N already found; dedup across
  // units here and keep the cumulative count consistent. Races found
  // before the checkpoint are not keyed in the file, so a resumed run may
  // recount them (documented in docs/RACES.md).
  std::unordered_set<std::string> RaceKeys;
  const uint64_t RaceBase = CK.Stats.RacesFound;

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
      // not yet started, or resuming from it would lose them.
      SubOpts.CheckpointSink = [&Opts, &CK, U](const CheckpointState &S) {
        CheckpointState Full = S;
        for (size_t V = U + 1; V < CK.Frontier.size(); ++V)
          Full.Frontier.push_back(CK.Frontier[V]);
        Opts.CheckpointSink(Full);
      };
    }

    Explorer E(Program, SubOpts);
    E.preloadScheduleFrozenPrefix(CK.Frontier[U].Prefix,
                                  CK.Frontier[U].FrozenLen);
    E.preloadBaseStats(Agg.Stats);
    E.setRngState(Rng);
    if (SubOpts.TrackCoverage)
      E.preloadSeenStates(States);
    if (Bug)
      E.preloadBug(*Bug);
    CheckResult R = E.run();
    Rng = E.rngState();
    if (SubOpts.TrackCoverage)
      States.assign(E.seenStates().begin(), E.seenStates().end());

    Agg.Stats = R.Stats; // Cumulative: the explorer ran on top of Agg.
    if (R.Profile) {
      // Per-unit profiles accumulate (stats thread through preloadBaseStats
      // and need no merge; profiles are per-engine and do).
      if (!Agg.Profile)
        Agg.Profile = R.Profile;
      else
        Agg.Profile->merge(*R.Profile);
    }
    if (R.Bug)
      Bug = R.Bug;
    for (const BugReport &I : R.Incidents)
      if (I.Kind != Verdict::DataRace || RaceKeys.insert(I.Message).second)
        Agg.Incidents.push_back(I);
    if (Opts.Races != RaceCheckMode::Off)
      Agg.Stats.RacesFound = RaceBase + RaceKeys.size();

    if (R.Stats.Interrupted && R.Resume) {
      for (size_t V = U + 1; V < CK.Frontier.size(); ++V)
        R.Resume->Frontier.push_back(CK.Frontier[V]);
      Agg.Resume = R.Resume;
      break;
    }
    if (R.Stats.TimedOut || R.Stats.ExecutionCapHit)
      break;
    if (R.foundBug() && Opts.StopOnFirstBug)
      break;
  }

  if (Bug) {
    Agg.Bug = *Bug;
    Agg.Kind = Bug->Kind;
  } else if (Agg.Stats.Divergences > 0 && Agg.Stats.Executions == 0) {
    // Nothing ever replayed (typically a single --replay): a checker
    // limitation, not a workload bug -- as Explorer::run reports it.
    Agg.Kind = Verdict::Divergence;
  }
  Agg.Stats.DistinctStates = States.size();
  if (Opts.ExportStateSignatures) {
    std::sort(States.begin(), States.end());
    Agg.StateSignatures = std::move(States);
  }
  Agg.Stats.Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
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

  // Crash and hang incidents recorded before the checkpoint belong to the
  // whole logical run: the result and every later checkpoint carry them
  // ahead of this part's own.
  const std::vector<BugReport> *Carried =
      From && !From->Incidents.empty() ? &From->Incidents : nullptr;
  auto prependCarried = [&](std::vector<BugReport> &Into) {
    Into.insert(Into.begin(), Carried->begin(), Carried->end());
  };
  if (Carried && Opts.CheckpointSink)
    Effective.CheckpointSink = [&](const CheckpointState &CK) {
      CheckpointState Full = CK;
      prependCarried(Full.Incidents);
      Opts.CheckpointSink(Full);
    };

  const bool Serial = Effective.StatefulPruning ||
                      Effective.Kind == SearchKind::RandomWalk ||
                      (Effective.FleetWorkers < 1 && Effective.Jobs <= 1);
  CheckResult R;
  if (From && From->Frontier.empty()) {
    // The checkpoint was taken exactly at exhaustion; nothing to run.
    R.Stats = From->Stats;
    R.Stats.SearchExhausted = true;
    R.Stats.DistinctStates = From->States.size();
    if (From->Bug) {
      R.Bug = *From->Bug;
      R.Kind = From->Bug->Kind;
    }
    if (Effective.ExportStateSignatures)
      R.StateSignatures = From->States;
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
    ParallelExplorer PE(Program, Effective);
    if (From)
      PE.resumeFrom(*From);
    R = PE.run();
  }

  if (Carried) {
    prependCarried(R.Incidents);
    if (R.Resume)
      prependCarried(R.Resume->Incidents);
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
