//===- tests/core/PorFuzzTest.cpp -----------------------------------------===//
//
// Differential fuzzing of the sleep-set reduction: ~200 small random
// pass-only programs (plain vars, atomics, mutexes, spawn/join, from a
// seeded xorshift generator), each explored exhaustively with --por off
// and on. Partial-order reduction may drop redundant interleavings but
// never a reachable outcome, so the SET of terminal-state digests must
// be identical in both modes (the multiset legitimately shrinks). On a
// mismatch the test dumps the seed and a replayable schedule artifact
// for every diverging digest, so the offending interleaving can be
// re-run directly with fsmc_run --replay.
//
// Runs under the `slow` label: this is minutes of small searches, not
// part of the tier-1 gate.
//
//===----------------------------------------------------------------------===//

#include "PorFuzzPrograms.h"

#include "core/Explorer.h"
#include "core/Schedule.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

using namespace fsmc;
using namespace fsmc::porfuzz;

namespace {

/// What one run observed: terminal-state digests, and for each digest a
/// replayable schedule that produced it (first occurrence wins).
struct FuzzOutcome {
  std::set<uint64_t> Digests;
  std::map<uint64_t, std::string> Schedules;
  SearchStats Stats;
  bool Exhausted = false;
};

/// Exhaustive fair DFS of \p Spec with POR on or off, harvesting the
/// terminal digest set. The execution hook snapshots the choice stack
/// after each completed execution, so every digest maps back to a
/// replayable schedule.
FuzzOutcome explore(const FuzzSpec &Spec, bool Por, uint64_t ExecCap) {
  auto LastDigest = std::make_shared<uint64_t>(0);
  auto DigestValid = std::make_shared<bool>(false);
  TestProgram P = makeFuzzProgram(Spec, LastDigest, DigestValid);
  CheckerOptions O;
  O.Por = Por;
  O.MaxExecutions = ExecCap;

  FuzzOutcome Out;
  Explorer E(P, O);
  E.setExecutionHook([&](Explorer &Ex) {
    if (*DigestValid) {
      *DigestValid = false;
      if (Out.Digests.insert(*LastDigest).second)
        Out.Schedules[*LastDigest] =
            encodeSchedule(Ex.currentStackSnapshot());
    }
    return true;
  });
  CheckResult R = E.run();
  EXPECT_EQ(R.Kind, Verdict::Pass)
      << "fuzz programs are pass-only; got " << verdictName(R.Kind);
  Out.Stats = R.Stats;
  Out.Exhausted = R.Stats.SearchExhausted;
  return Out;
}

/// Writes the replayable artifact for a diverging digest and returns its
/// path. The file holds exactly one fsmc1: schedule string, the format
/// fsmc_run --replay accepts.
std::string dumpArtifact(uint64_t Seed, uint64_t Digest, const char *Side,
                         const std::string &Schedule) {
  std::string Path = testing::TempDir() + "por_fuzz_seed" +
                     std::to_string(Seed) + "_" + Side + "_" +
                     std::to_string(Digest) + ".sched";
  std::ofstream F(Path);
  F << Schedule << "\n";
  return Path;
}

} // namespace

TEST(PorFuzz, TerminalStateSetsMatchAcrossTwoHundredSeeds) {
  const uint64_t Seeds = 200;
  const uint64_t ExecCap = 100000;
  uint64_t Compared = 0, TotalOff = 0, TotalOn = 0;

  for (uint64_t Seed = 1; Seed <= Seeds; ++Seed) {
    SCOPED_TRACE("seed=" + std::to_string(Seed));
    FuzzSpec Spec = makeSpec(Seed);
    FuzzOutcome Off = explore(Spec, /*Por=*/false, ExecCap);
    FuzzOutcome On = explore(Spec, /*Por=*/true, ExecCap);
    TotalOff += Off.Stats.Executions;
    TotalOn += On.Stats.Executions;

    if (!Off.Exhausted || !On.Exhausted)
      continue; // Capped: the sets are partial, not comparable.
    ++Compared;

    EXPECT_LE(On.Stats.Executions, Off.Stats.Executions);
    if (On.Digests == Off.Digests)
      continue;

    // Mismatch: dump every diverging outcome as a replayable artifact.
    for (uint64_t D : Off.Digests)
      if (!On.Digests.count(D))
        ADD_FAILURE() << "POR LOST terminal state " << D << " (seed "
                      << Seed << "); schedule: "
                      << dumpArtifact(Seed, D, "off", Off.Schedules[D]);
    for (uint64_t D : On.Digests)
      if (!Off.Digests.count(D))
        ADD_FAILURE() << "POR INVENTED terminal state " << D << " (seed "
                      << Seed << "); schedule: "
                      << dumpArtifact(Seed, D, "on", On.Schedules[D]);
  }

  // The cap is a safety net, not the norm: if most seeds failed to
  // exhaust, the generator grew too big to fuzz meaningfully.
  EXPECT_GE(Compared, Seeds * 9 / 10)
      << "too many seeds hit the execution cap";
  std::printf("[por-fuzz] %llu/%llu seeds compared, executions off=%llu "
              "on=%llu\n",
              (unsigned long long)Compared, (unsigned long long)Seeds,
              (unsigned long long)TotalOff, (unsigned long long)TotalOn);
}
