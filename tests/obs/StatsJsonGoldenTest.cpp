//===- tests/obs/StatsJsonGoldenTest.cpp ----------------------------------===//
//
// Golden stats-json reports: six in-process serial searches, rendered with
// an Observer attached (so the counters, gauges and ops sections appear)
// and the wall-clock "seconds" zeroed, must match the files under
// tests/obs/golden/ byte for byte. They pin the generated "stats" block
// and the counters section's omit-at-zero rule across the POR, weak-memory,
// race, estimator/coverage and bug-report shapes. Regenerate a file only
// for a deliberate report change (docs/OBSERVABILITY.md).
//
//===----------------------------------------------------------------------===//

#include "core/Checker.h"
#include "obs/Observer.h"
#include "obs/StatsJson.h"
#include "workloads/DiningPhilosophers.h"
#include "workloads/Peterson.h"
#include "workloads/WorkStealQueue.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace fsmc;

namespace {

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

CheckerOptions contextBounded(int Cb) {
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = Cb;
  return O;
}

TestProgram wsq(WsqBug Bug, bool RacySize = false) {
  WsqConfig W;
  W.Stealers = 1;
  W.Tasks = 2;
  W.Bug = Bug;
  W.RacySize = RacySize;
  return makeWsqProgram(W);
}

/// Runs \p P serially under \p O with counters attached and compares the
/// rendered report, seconds zeroed, with tests/obs/golden/\p File.
void expectGolden(const char *File, const char *Name, const TestProgram &P,
                  CheckerOptions O) {
  obs::Observer Obs;
  O.Obs = &Obs;
  CheckResult R = check(P, O);
  R.Stats.Seconds = 0;
  obs::StatsJsonInfo Info;
  Info.Program = Name;
  Info.Options = &O;
  Info.Obs = &Obs;
  std::string Path =
      std::string(FSMC_SOURCE_DIR) + "/tests/obs/golden/" + File;
  std::string Want = slurp(Path);
  ASSERT_FALSE(Want.empty()) << "missing golden file " << Path;
  EXPECT_EQ(obs::renderStatsJson(R, Info), Want) << File;
}

TEST(StatsJsonGolden, DefaultSearch) {
  expectGolden("stats_default.json", "peterson",
               makePetersonProgram(PetersonConfig()), contextBounded(2));
}

TEST(StatsJsonGolden, PorSearch) {
  CheckerOptions O = contextBounded(2);
  O.Por = true;
  expectGolden("stats_por.json", "peterson",
               makePetersonProgram(PetersonConfig()), O);
}

TEST(StatsJsonGolden, TsoBugSearch) {
  CheckerOptions O = contextBounded(2);
  O.Memory = MemoryModel::Tso;
  expectGolden("stats_tso.json", "wsq-bug1", wsq(WsqBug::PopReordered), O);
}

TEST(StatsJsonGolden, RaceSearch) {
  CheckerOptions O = contextBounded(2);
  O.Races = RaceCheckMode::On;
  expectGolden("stats_races.json", "wsq-racy",
               wsq(WsqBug::None, /*RacySize=*/true), O);
}

TEST(StatsJsonGolden, EstimateWithCoverage) {
  CheckerOptions O = contextBounded(1);
  O.Estimate = true;
  O.TrackCoverage = true;
  DiningConfig D;
  expectGolden("stats_estimate.json", "dining-philosophers",
               makeDiningProgram(D), O);
}

TEST(StatsJsonGolden, DeadlockReport) {
  DiningConfig D;
  D.Kind = DiningConfig::Variant::DeadlockProne;
  expectGolden("stats_deadlock.json", "dining-deadlock",
               makeDiningProgram(D), contextBounded(2));
}

} // namespace
