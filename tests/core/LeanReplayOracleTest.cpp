//===- tests/core/LeanReplayOracleTest.cpp --------------------------------===//
//
// Lean replay (Explorer::decideLean, docs/PERFORMANCE.md) against the full
// decide path. Each search runs twice: on a plain Explorer, which replays
// a step the previous execution took from that execution's trace, and on
// one with an ExplainLog attached, which decides every step in full. Both
// must report the same value in every stats row, the same DFS-smallest
// bug and the same bug trace text. The searches run with POR, fair and
// unfair, under sc, tso and pso, over PorFuzzTest's generated programs
// and the workload registry; the registry also runs without POR.
//
//===----------------------------------------------------------------------===//

#include "FullPathOracle.h"
#include "PorFuzzPrograms.h"

#include "workloads/WorkloadRegistry.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

using namespace fsmc;

namespace {

/// Totals over every search of a test, to show the POR paths ran.
struct PorTotals {
  uint64_t SleepHits = 0;
  uint64_t FairWakes = 0;
  uint64_t Pruned = 0;
};

/// Runs \p Make's program on both paths and compares the results.
void expectLeanMatchesFull(const std::function<TestProgram()> &Make,
                           const CheckerOptions &O, PorTotals &Totals) {
  CheckResult Lean = oracle::explore(Make(), O, /*FullPath=*/false);
  CheckResult Full = oracle::explore(Make(), O, /*FullPath=*/true);
  oracle::expectSameStats(Lean.Stats, Full.Stats);
  EXPECT_EQ(Lean.Kind, Full.Kind);
  ASSERT_EQ(Lean.Bug.has_value(), Full.Bug.has_value());
  if (Lean.Bug) {
    EXPECT_EQ(Lean.Bug->Schedule, Full.Bug->Schedule);
    EXPECT_EQ(Lean.Bug->TraceText, Full.Bug->TraceText);
    EXPECT_EQ(Lean.Bug->Message, Full.Bug->Message);
    EXPECT_EQ(Lean.Bug->AtExecution, Full.Bug->AtExecution);
    EXPECT_EQ(Lean.Bug->AtStep, Full.Bug->AtStep);
  }
  Totals.SleepHits += Full.Stats.PorSleepHits;
  Totals.FairWakes += Full.Stats.PorFairWakes;
  Totals.Pruned += Full.Stats.PorBranchesPruned;
}

const MemoryModel Models[] = {MemoryModel::Sc, MemoryModel::Tso,
                              MemoryModel::Pso};

std::string modelName(MemoryModel M) {
  return M == MemoryModel::Sc ? "sc" : M == MemoryModel::Tso ? "tso" : "pso";
}

} // namespace

TEST(LeanReplayOracle, PorFuzzProgramsMatchTheFullPath) {
  PorTotals Totals;
  for (uint64_t Seed = 1; Seed <= 100; ++Seed) {
    porfuzz::FuzzSpec Spec = porfuzz::makeSpec(Seed);
    auto Make = [&Spec] {
      return porfuzz::makeFuzzProgram(Spec, std::make_shared<uint64_t>(0),
                                      std::make_shared<bool>(false));
    };
    for (bool Fair : {true, false})
      for (MemoryModel M : Models) {
        SCOPED_TRACE("seed=" + std::to_string(Seed) +
                     (Fair ? " fair " : " unfair ") + modelName(M));
        CheckerOptions O;
        O.Por = true;
        O.Fair = Fair;
        O.Memory = M;
        O.MaxExecutions = 1000;
        expectLeanMatchesFull(Make, O, Totals);
      }
  }
  EXPECT_GT(Totals.SleepHits, 0u);
  EXPECT_GT(Totals.FairWakes, 0u);
  EXPECT_GT(Totals.Pruned, 0u);
}

TEST(LeanReplayOracle, RegistrySearchesMatchTheFullPath) {
  PorTotals Totals;
  for (const RegisteredWorkload &W : allWorkloads())
    for (bool Por : {true, false})
      for (bool Fair : {true, false})
        for (MemoryModel M : Models) {
          SCOPED_TRACE(W.Name + (Por ? " por" : "") +
                       (Fair ? " fair " : " unfair ") + modelName(M));
          CheckerOptions O;
          O.Por = Por;
          O.Fair = Fair;
          O.Memory = M;
          O.Races = RaceCheckMode::On;
          O.StopOnFirstBug = false;
          O.MaxExecutions = 300;
          if (Fair) {
            O.Kind = SearchKind::ContextBounded;
            O.ContextBound = 1;
          } else {
            // Without fairness a spinning thread never gives way: bound
            // the branching depth and the random tail behind it.
            O.DepthBound = 20;
            O.RandomTailCap = 300;
          }
          expectLeanMatchesFull(W.Make, O, Totals);
        }
  EXPECT_GT(Totals.SleepHits, 0u);
  EXPECT_GT(Totals.FairWakes, 0u);
  EXPECT_GT(Totals.Pruned, 0u);
}
