//===- tests/core/PriorityGraphTest.cpp -----------------------------------===//

#include "core/PriorityGraph.h"

#include "support/Xorshift.h"

#include <gtest/gtest.h>

using namespace fsmc;

TEST(PriorityGraph, StartsEmptyAndAcyclic) {
  PriorityGraph P;
  EXPECT_TRUE(P.empty());
  EXPECT_EQ(P.edgeCount(), 0);
  EXPECT_TRUE(P.isAcyclic());
  EXPECT_TRUE(P.pre(ThreadSet::all()).empty());
}

TEST(PriorityGraph, AddAndQueryEdges) {
  PriorityGraph P;
  ThreadSet Sinks;
  Sinks.insert(2);
  Sinks.insert(5);
  P.addEdgesFrom(1, Sinks);
  EXPECT_TRUE(P.hasEdge(1, 2));
  EXPECT_TRUE(P.hasEdge(1, 5));
  EXPECT_FALSE(P.hasEdge(2, 1));
  EXPECT_EQ(P.edgeCount(), 2);
  EXPECT_EQ(P.successorsOf(1), Sinks);
}

TEST(PriorityGraph, PreComputesLosers) {
  // pre(P, X) = threads with an edge into X: they may not be scheduled
  // while a member of X is enabled.
  PriorityGraph P;
  P.addEdgesFrom(0, ThreadSet::singleton(3));
  P.addEdgesFrom(1, ThreadSet::singleton(4));
  ThreadSet X;
  X.insert(3);
  EXPECT_EQ(P.pre(X), ThreadSet::singleton(0));
  X.insert(4);
  ThreadSet Both = ThreadSet::singleton(0) | ThreadSet::singleton(1);
  EXPECT_EQ(P.pre(X), Both);
  EXPECT_TRUE(P.pre(ThreadSet::singleton(9)).empty());
}

TEST(PriorityGraph, RemoveEdgesIntoClearsAllSinks) {
  PriorityGraph P;
  P.addEdgesFrom(0, ThreadSet::singleton(7));
  P.addEdgesFrom(1, ThreadSet::singleton(7));
  P.addEdgesFrom(2, ThreadSet::singleton(8));
  P.removeEdgesInto(7);
  EXPECT_FALSE(P.hasEdge(0, 7));
  EXPECT_FALSE(P.hasEdge(1, 7));
  EXPECT_TRUE(P.hasEdge(2, 8));
  EXPECT_EQ(P.edgeCount(), 1);
}

TEST(PriorityGraph, DetectsCycles) {
  PriorityGraph P;
  P.addEdgesFrom(0, ThreadSet::singleton(1));
  EXPECT_TRUE(P.isAcyclic());
  P.addEdgesFrom(1, ThreadSet::singleton(2));
  EXPECT_TRUE(P.isAcyclic());
  P.addEdgesFrom(2, ThreadSet::singleton(0)); // 0 -> 1 -> 2 -> 0.
  EXPECT_FALSE(P.isAcyclic());
  P.removeEdgesInto(0);
  EXPECT_TRUE(P.isAcyclic());
}

TEST(PriorityGraph, TwoCycleDetected) {
  PriorityGraph P;
  P.addEdgesFrom(3, ThreadSet::singleton(4));
  P.addEdgesFrom(4, ThreadSet::singleton(3));
  EXPECT_FALSE(P.isAcyclic());
}

TEST(PriorityGraph, ClearResets) {
  PriorityGraph P;
  P.addEdgesFrom(0, ThreadSet::firstN(8) - ThreadSet::singleton(0));
  EXPECT_EQ(P.edgeCount(), 7);
  P.clear();
  EXPECT_TRUE(P.empty());
  EXPECT_TRUE(P.isAcyclic());
}

TEST(PriorityGraph, EqualityIsStructural) {
  PriorityGraph A, B;
  A.addEdgesFrom(1, ThreadSet::singleton(2));
  EXPECT_NE(A, B);
  B.addEdgesFrom(1, ThreadSet::singleton(2));
  EXPECT_EQ(A, B);
}

/// Property: the maximal-element argument of Theorem 3. For any acyclic P
/// and nonempty X, X \ pre(P, X) is nonempty.
class PriorityGraphPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(PriorityGraphPropertyTest, AcyclicImpliesMaximalElement) {
  Xorshift Rng(GetParam());
  for (int Round = 0; Round < 300; ++Round) {
    PriorityGraph P;
    // Random DAG: edges only from lower to higher id keep it acyclic.
    for (int E = 0; E < 12; ++E) {
      Tid From = Rng.nextBelow(15);
      Tid To = From + 1 + Rng.nextBelow(16 - From - 1 + 1);
      if (To >= 16 || To == From)
        continue;
      P.addEdgesFrom(From, ThreadSet::singleton(To));
    }
    ASSERT_TRUE(P.isAcyclic());
    ThreadSet X;
    for (int I = 0; I < 6; ++I)
      X.insert(Rng.nextBelow(16));
    if (X.empty())
      continue;
    ThreadSet T = X - P.pre(X);
    ASSERT_FALSE(T.empty())
        << "acyclic priority relation produced an empty schedulable set";
  }
}

/// Property: the transposed rows stay in step with the successor rows.
/// After random edge additions, line-13 removals and clears, pre(X) must
/// equal a brute-force scan of successorsOf, and the edge count must
/// match removeEdgesInto's return values.
TEST_P(PriorityGraphPropertyTest, PreMatchesSuccessorScan) {
  Xorshift Rng(GetParam());
  PriorityGraph P;
  int Edges = 0;
  for (int Op = 0; Op < 4000; ++Op) {
    int Kind = Rng.nextBelow(100);
    if (Kind < 55) {
      Tid From = Rng.nextBelow(MaxThreads);
      ThreadSet Sinks;
      for (int I = 0, N = Rng.nextBelow(6); I < N; ++I)
        Sinks.insert(Rng.nextBelow(MaxThreads));
      Sinks.erase(From);
      Edges += (Sinks - P.successorsOf(From)).size();
      P.addEdgesFrom(From, Sinks);
    } else if (Kind < 99) {
      Edges -= P.removeEdgesInto(Rng.nextBelow(MaxThreads));
    } else {
      P.clear();
      Edges = 0;
    }
    ASSERT_EQ(P.edgeCount(), Edges);
    ThreadSet X;
    for (int I = 0, N = Rng.nextBelow(12); I < N; ++I)
      X.insert(Rng.nextBelow(MaxThreads));
    ThreadSet Brute;
    for (Tid T = 0; T < MaxThreads; ++T)
      if (P.successorsOf(T).intersects(X))
        Brute.insert(T);
    ASSERT_EQ(P.pre(X), Brute) << "X = " << X.str();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PriorityGraphPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55));
