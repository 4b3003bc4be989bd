//===- core/SearchTotals.cpp ----------------------------------------------===//

#include "core/SearchTotals.h"

#include "core/Checkpoint.h"
#include "core/Schedule.h"
#include "obs/SearchProfile.h"

#include <algorithm>

using namespace fsmc;

SearchTotals::SearchTotals(const CheckerOptions &Opts,
                           const CheckpointState *From)
    : RandomWalk(Opts.Kind == SearchKind::RandomWalk),
      StopOnFirstBug(Opts.StopOnFirstBug),
      Races(Opts.Races != RaceCheckMode::Off),
      ExportStates(Opts.ExportStateSignatures) {
  if (!From)
    return;
  Stats = From->Stats;
  clearRunRows(Stats);
  RaceBase = From->Stats.RacesFound;
  for (uint64_t S : From->States)
    States.insert(S);
  if (From->Bug)
    offerBug(*From->Bug);
  Crashes = From->Incidents;
}

void SearchTotals::clearRunRows(SearchStats &S) {
#define FSMC_STAT_CLEAR_RUN(Type, Member, Key, Merge, Json)                    \
  if constexpr (StatMerge::Merge == StatMerge::Run)                            \
    S.Member = Type{};
  FSMC_SEARCH_STATS(FSMC_STAT_CLEAR_RUN)
#undef FSMC_STAT_CLEAR_RUN
}

void SearchTotals::merge(SearchTotals &&Worker) {
  mergeSearchStats(Stats, Worker.Stats);
  States.reserve(States.size() + Worker.States.size());
  for (uint64_t S : Worker.States)
    States.insert(S);
  addProfile(Worker.Profile);
  for (const BugReport &I : Worker.Incidents)
    addIncident(I);
  for (BugReport &I : Worker.Crashes)
    Crashes.push_back(std::move(I));
  if (Worker.Best)
    offerBug(*Worker.Best);
  syncRacesFound();
}

bool SearchTotals::offerBug(const BugReport &B) {
  if (Best &&
      (RandomWalk || !dfsBefore(pathKeyOfSchedule(B.Schedule), bestKey())))
    return false;
  Best = B;
  BestKey.reset();
  return true;
}

const std::vector<int> &SearchTotals::bestKey() const {
  if (!BestKey)
    BestKey = pathKeyOfSchedule(Best->Schedule);
  return *BestKey;
}

bool SearchTotals::afterBest(const std::vector<int> &PathKey) const {
  return StopOnFirstBug && Best &&
         (RandomWalk || !dfsBefore(PathKey, bestKey()));
}

void SearchTotals::addCrash(Verdict Kind, std::string Message,
                            std::string Schedule) {
  ++(Kind == Verdict::Hang ? Stats.Hangs : Stats.Crashes);
  BugReport I;
  I.Kind = Kind;
  I.Message = std::move(Message);
  I.Schedule = std::move(Schedule);
  I.AtExecution = Stats.Executions;
  Crashes.push_back(std::move(I));
}

std::vector<uint64_t> SearchTotals::sortedStates() const {
  std::vector<uint64_t> V(States.begin(), States.end());
  std::sort(V.begin(), V.end());
  return V;
}

std::shared_ptr<CheckpointState>
SearchTotals::checkpoint(std::vector<CheckpointUnit> Frontier,
                         uint64_t Rng) const {
  auto CK = std::make_shared<CheckpointState>();
  CK->Stats = Stats;
  CK->Stats.DistinctStates = States.size();
  CK->Frontier = std::move(Frontier);
  CK->Rng = Rng;
  CK->States = sortedStates();
  CK->Bug = Best;
  CK->Incidents = Crashes;
  return CK;
}

CheckResult SearchTotals::finish(bool CapHit, bool TimedOut, bool Interrupted,
                                 double Seconds) {
  CheckResult R;
  R.Stats = Stats;
  R.Stats.DistinctStates = States.size();
  R.Stats.ExecutionCapHit = CapHit;
  R.Stats.TimedOut = TimedOut;
  R.Stats.Interrupted = Interrupted;
  // A first-bug stop leaves the flag clear, as the serial early stop does,
  // and so does a quarantined unit: its subtree was never explored.
  R.Stats.SearchExhausted = !CapHit && !TimedOut && !Interrupted &&
                            !(Best && StopOnFirstBug) &&
                            Stats.FleetQuarantined == 0;
  R.Stats.Seconds = Seconds;
  R.Profile = Profile;
  std::stable_sort(Incidents.begin(), Incidents.end(),
                   [](const BugReport &A, const BugReport &B) {
                     return A.Message < B.Message;
                   });
  R.Incidents = std::move(Crashes);
  R.Incidents.insert(R.Incidents.end(),
                     std::make_move_iterator(Incidents.begin()),
                     std::make_move_iterator(Incidents.end()));
  if (ExportStates)
    R.StateSignatures = sortedStates();
  if (Best) {
    R.Kind = Best->Kind;
    R.Bug = std::move(Best);
  } else if (Stats.Divergences > 0 && Stats.Executions == 0) {
    // Nothing ever replayed (typically a single --replay): a checker
    // limitation, not a workload bug -- as Explorer::run reports it.
    R.Kind = Verdict::Divergence;
  }
  return R;
}

void SearchTotals::addProfile(const std::shared_ptr<obs::SearchProfile> &P) {
  if (!P)
    return;
  if (!Profile)
    Profile = P;
  else
    Profile->merge(*P);
}

bool SearchTotals::addIncident(const BugReport &I) {
  bool Race = I.Kind == Verdict::DataRace;
  if (Race && !RaceKeys.insert(I.Message).second)
    return false;
  Incidents.push_back(I);
  return Race;
}

void SearchTotals::syncRacesFound() {
  if (Races)
    Stats.RacesFound = RaceBase + RaceKeys.size();
}
