//===- tests/core/FullPathOracle.h - Lean against full replay ---*- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The full decide path as the oracle of lean replay (Explorer::decideLean):
/// an Explorer with an ExplainLog attached decides every step in full, so a
/// search run with and without one must report the same stats.
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_TESTS_CORE_FULLPATHORACLE_H
#define FSMC_TESTS_CORE_FULLPATHORACLE_H

#include "core/Explorer.h"
#include "obs/Explain.h"

#include <gtest/gtest.h>

#include <string>

namespace fsmc::oracle {

/// Runs one search of \p P. With \p FullPath an ExplainLog is attached,
/// which keeps every step on the full decide path; the hook empties it
/// after each execution, so the log holds one execution's steps.
inline CheckResult explore(const TestProgram &P, const CheckerOptions &O,
                           bool FullPath) {
  obs::ExplainLog Log;
  Explorer E(P, O);
  if (FullPath)
    E.setExplainLog(&Log);
  E.setExecutionHook([&Log](Explorer &) {
    Log = obs::ExplainLog();
    return true;
  });
  return E.run();
}

/// Expects every stats row but the wall time to match.
inline void expectSameStats(const SearchStats &Lean, const SearchStats &Full) {
#define FSMC_STAT_CHECK(Type, Member, Key, Merge, Json)                        \
  if (std::string(Key) != "seconds") {                                         \
    EXPECT_EQ(Lean.Member, Full.Member) << Key;                                \
  }
  FSMC_SEARCH_STATS(FSMC_STAT_CHECK)
#undef FSMC_STAT_CHECK
}

} // namespace fsmc::oracle

#endif // FSMC_TESTS_CORE_FULLPATHORACLE_H
