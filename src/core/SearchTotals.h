//===- core/SearchTotals.h - The committed part of a search ----*- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What a search has committed, whichever engine runs it: the stats
/// total, the coverage signatures, the data races deduplicated across
/// parts, the crash and hang incidents, the merged search profile and the
/// best bug. The serial resume chain, the thread engine (a shared
/// instance plus one per worker) and the fleet coordinator all accumulate
/// here, so every engine reports serial DFS's bug and totals and builds
/// checkpoints and results by one rule.
///
/// The best bug is the DFS-smallest one offered (dfsBefore,
/// core/Schedule.h), whatever order parts land bugs in; a random walk has
/// no DFS order and keeps its first, as the serial explorer does. Not
/// thread-safe: the thread engine guards its shared instance.
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_CORE_SEARCHTOTALS_H
#define FSMC_CORE_SEARCHTOTALS_H

#include "core/Checker.h"
#include "support/U64Set.h"

#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

namespace fsmc {

struct CheckpointState;
struct CheckpointUnit;

class SearchTotals {
public:
  /// Starts empty or, with \p From, from a checkpoint's cumulative stats
  /// (run rows cleared), coverage, RacesFound base, bug and crash
  /// incidents: those belong to the whole logical run, so the result and
  /// every later checkpoint carry them ahead of this part's own.
  explicit SearchTotals(const CheckerOptions &Opts,
                        const CheckpointState *From = nullptr);

  /// Adds a part whose stats counted from zero (a work item, a fleet
  /// attempt): stats merge row by row, \p PartStates join the coverage
  /// set, the profile merges, and the part's incidents join with data
  /// races deduplicated by message across every part so far. The part's
  /// bug is not taken; offer it with offerBug. \returns how many of the
  /// part's races were new.
  template <typename StateSet>
  uint64_t add(const CheckResult &Part, const StateSet &PartStates) {
    mergeSearchStats(Stats, Part.Stats);
    return addRest(Part, PartStates);
  }

  /// add() for a serial explorer that ran on top of stats()
  /// (Explorer::preloadBaseStats): its cumulative stats become the total.
  template <typename StateSet>
  uint64_t addOnTop(const CheckResult &Part, const StateSet &PartStates) {
    Stats = Part.Stats;
    clearRunRows(Stats);
    return addRest(Part, PartStates);
  }

  /// Folds a worker's totals (from an instance built without a
  /// checkpoint) into this one.
  void merge(SearchTotals &&Worker);

  /// Keeps \p B if it is the new best bug. \returns true if it is.
  bool offerBug(const BugReport &B);

  /// The first-bug pruning test: under StopOnFirstBug, true once a bug is
  /// known and \p PathKey is DFS-at-or-after it, so nothing at or below
  /// that path can improve the report. A random walk stops at its first.
  bool afterBest(const std::vector<int> &PathKey) const;

  const std::optional<BugReport> &bug() const { return Best; }
  /// The best bug's DFS path key; call only while bug() is set.
  const std::vector<int> &bestKey() const;

  /// Records a crash or hang incident (in arrival order) at the current
  /// execution count and counts it in the Crashes or Hangs row.
  void addCrash(Verdict Kind, std::string Message, std::string Schedule);

  /// The stats total; engines count their own rows (checkpoints, fleet
  /// recovery) here directly.
  SearchStats &stats() { return Stats; }
  const SearchStats &stats() const { return Stats; }

  const U64Set &states() const { return States; }

  /// A checkpoint of the totals with the engine's unexplored \p Frontier
  /// and PRNG state \p Rng.
  std::shared_ptr<CheckpointState>
  checkpoint(std::vector<CheckpointUnit> Frontier, uint64_t Rng) const;

  /// The final result: crash and hang incidents in arrival order, then
  /// the other incidents sorted by message (arrival order is a schedule
  /// artifact; the messages are not), the exported signatures when
  /// asked, the best bug or, when nothing ever replayed, the Divergence
  /// verdict. The search counts as exhausted unless a budget, an
  /// interrupt or a first-bug stop cut it short. Call once, last.
  CheckResult finish(bool CapHit, bool TimedOut, bool Interrupted,
                     double Seconds);

private:
  /// Zeroes the StatMerge::Run rows: facts of one run, not of a total.
  static void clearRunRows(SearchStats &S);

  std::vector<uint64_t> sortedStates() const;

  template <typename StateSet>
  uint64_t addRest(const CheckResult &Part, const StateSet &PartStates) {
    for (uint64_t S : PartStates)
      States.insert(S);
    addProfile(Part.Profile);
    uint64_t New = 0;
    for (const BugReport &I : Part.Incidents)
      New += addIncident(I);
    syncRacesFound();
    return New;
  }

  void addProfile(const std::shared_ptr<obs::SearchProfile> &P);
  /// \returns true for a data race not seen before.
  bool addIncident(const BugReport &I);
  /// Per-part RacesFound overcounts races two parts share; the global key
  /// set is the true count, on top of the base a checkpoint carried
  /// (whose keys it did not keep).
  void syncRacesFound();

  bool RandomWalk;
  bool StopOnFirstBug;
  bool Races;
  bool ExportStates;

  SearchStats Stats;
  U64Set States;
  std::unordered_set<std::string> RaceKeys;
  uint64_t RaceBase = 0;
  std::vector<BugReport> Incidents; ///< Races and other explorer reports.
  std::vector<BugReport> Crashes;   ///< Crash and hang incidents.
  std::shared_ptr<obs::SearchProfile> Profile;
  std::optional<BugReport> Best;
  /// Decoded from Best's schedule on first use: a search that never
  /// compares bugs (one bug, a replay) never decodes it.
  mutable std::optional<std::vector<int>> BestKey;
};

} // namespace fsmc

#endif // FSMC_CORE_SEARCHTOTALS_H
