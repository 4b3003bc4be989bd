//===- tests/core/FairSchedulerDiffTest.cpp -------------------------------===//
//
// Differential test of core/FairScheduler against the literal transcription
// of Algorithm 1 in ReferenceFairScheduler.h. Both ingest the same seeded
// random legal transition streams -- 2 to 64 threads, YieldK 1 to 3, some
// streams whose ESBefore differs from the previous ESAfter -- and after
// every step they must agree on the schedulable set, every successor row
// of P, the S/E/D windows of every thread and both edge counters.
//
//===----------------------------------------------------------------------===//

#include "ReferenceFairScheduler.h"

#include "core/FairScheduler.h"
#include "support/Xorshift.h"

#include <gtest/gtest.h>

using namespace fsmc;

namespace {

/// Each of the first \p N threads independently, with probability
/// \p Num / 8.
ThreadSet randomSubset(Xorshift &R, int N, int Num) {
  ThreadSet S;
  for (Tid X = 0; X < N; ++X)
    if (int(R.nextBelow(8)) < Num)
      S.insert(X);
  return S;
}

/// Compares every observable of the two schedulers; \p Probe is an extra
/// enabled set to ask allowed() about.
void expectSame(const FairScheduler &Fast, const reference::FairScheduler &Ref,
                ThreadSet Probe, int Step) {
  SCOPED_TRACE("step " + std::to_string(Step));
  ASSERT_EQ(Fast.allowed(Probe), Ref.allowed(Probe)) << Probe.str();
  ASSERT_EQ(Fast.edgeAdditions(), Ref.edgeAdditions());
  ASSERT_EQ(Fast.edgeRemovals(), Ref.edgeRemovals());
  for (Tid U = 0; U < MaxThreads; ++U) {
    SCOPED_TRACE("thread " + std::to_string(U));
    ASSERT_EQ(Fast.priorities().successorsOf(U),
              Ref.priorities().successorsOf(U));
    ASSERT_EQ(Fast.scheduledSince(U), Ref.scheduledSince(U));
    ASSERT_EQ(Fast.continuouslyEnabledSince(U),
              Ref.continuouslyEnabledSince(U));
    ASSERT_EQ(Fast.disabledBySince(U), Ref.disabledBySince(U));
  }
}

/// One stream: \p Steps transitions at \p N threads. Each step schedules a
/// random thread the oracle allows, yields with probability YieldPct%,
/// and draws the next enabled set at a random density. With
/// \p RestartES, a quarter of the steps start from an ESBefore that is
/// not the previous ESAfter: onTransition takes both sets on every call
/// and must not assume they chain.
void runStream(uint64_t Seed, int N, int YieldK, int Steps, bool RestartES) {
  Xorshift R(Seed);
  FairScheduler Fast(YieldK);
  reference::FairScheduler Ref(YieldK);
  const int Density = 2 + int(R.nextBelow(6));
  const int YieldPct = 10 + int(R.nextBelow(60));
  ThreadSet ES = randomSubset(R, N, Density);
  expectSame(Fast, Ref, ES, 0);
  for (int Step = 1; Step <= Steps; ++Step) {
    if (RestartES && R.nextBelow(4) == 0)
      ES = randomSubset(R, N, Density);
    if (ES.empty())
      ES.insert(Tid(R.nextBelow(N)));
    ThreadSet Allowed = Ref.allowed(ES);
    ASSERT_FALSE(Allowed.empty()) << "Theorem 3 in the oracle";
    int Pick = int(R.nextBelow(Allowed.size()));
    Tid T = Allowed.first();
    for (Tid X : Allowed)
      if (Pick-- == 0) {
        T = X;
        break;
      }
    ThreadSet Next = randomSubset(R, N, Density);
    bool Yield = int(R.nextBelow(100)) < YieldPct;
    Fast.onTransition(T, ES, Next, Yield);
    Ref.onTransition(T, ES, Next, Yield);
    ES = Next;
    ThreadSet Probe = R.nextBelow(2) ? ES : randomSubset(R, N, Density);
    expectSame(Fast, Ref, Probe, Step);
    if (::testing::Test::HasFatalFailure())
      return;
  }
}

class FairSchedulerDiffTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FairSchedulerDiffTest, MatchesReferenceOnRandomLegalStreams) {
  Xorshift R(GetParam());
  for (int Stream = 0; Stream < 24; ++Stream) {
    int N = 2 + int(R.nextBelow(MaxThreads - 1));
    int YieldK = 1 + int(R.nextBelow(3));
    bool RestartES = Stream % 3 == 0;
    uint64_t Seed = R.next();
    SCOPED_TRACE("stream seed " + std::to_string(Seed) + ", " +
                 std::to_string(N) + " threads, YieldK " +
                 std::to_string(YieldK) +
                 (RestartES ? ", ESBefore redrawn" : ""));
    runStream(Seed, N, YieldK, 400, RestartES);
    if (HasFatalFailure())
      return;
  }
}

/// The extremes the random draw reaches rarely: 2 and 64 threads at every
/// YieldK, with and without ESBefore redraws.
TEST_P(FairSchedulerDiffTest, MatchesReferenceAtTwoAndSixtyFourThreads) {
  for (int N : {2, MaxThreads})
    for (int YieldK = 1; YieldK <= 3; ++YieldK)
      for (bool RestartES : {false, true}) {
        SCOPED_TRACE(std::to_string(N) + " threads, YieldK " +
                     std::to_string(YieldK));
        runStream(GetParam() * 131 + uint64_t(N * 7 + YieldK), N, YieldK,
                  300, RestartES);
        if (HasFatalFailure())
          return;
      }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FairSchedulerDiffTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

} // namespace
