//===- tests/support/ThreadSetTest.cpp ------------------------------------===//

#include "support/ThreadSet.h"

#include "support/Xorshift.h"

#include <gtest/gtest.h>
#include <set>

using namespace fsmc;

TEST(ThreadSet, StartsEmpty) {
  ThreadSet S;
  EXPECT_TRUE(S.empty());
  EXPECT_EQ(S.size(), 0);
  for (Tid T = 0; T < MaxThreads; ++T)
    EXPECT_FALSE(S.contains(T));
}

TEST(ThreadSet, InsertEraseContains) {
  ThreadSet S;
  S.insert(3);
  S.insert(17);
  S.insert(63);
  EXPECT_EQ(S.size(), 3);
  EXPECT_TRUE(S.contains(3));
  EXPECT_TRUE(S.contains(17));
  EXPECT_TRUE(S.contains(63));
  EXPECT_FALSE(S.contains(4));
  S.erase(17);
  EXPECT_FALSE(S.contains(17));
  EXPECT_EQ(S.size(), 2);
  S.erase(17); // Idempotent.
  EXPECT_EQ(S.size(), 2);
}

TEST(ThreadSet, FirstN) {
  EXPECT_TRUE(ThreadSet::firstN(0).empty());
  ThreadSet S = ThreadSet::firstN(5);
  EXPECT_EQ(S.size(), 5);
  for (Tid T = 0; T < 5; ++T)
    EXPECT_TRUE(S.contains(T));
  EXPECT_FALSE(S.contains(5));
  EXPECT_EQ(ThreadSet::firstN(MaxThreads).size(), MaxThreads);
}

TEST(ThreadSet, AllAndSingleton) {
  EXPECT_EQ(ThreadSet::all().size(), MaxThreads);
  ThreadSet S = ThreadSet::singleton(42);
  EXPECT_EQ(S.size(), 1);
  EXPECT_TRUE(S.contains(42));
  EXPECT_EQ(S.first(), 42);
}

TEST(ThreadSet, SetAlgebra) {
  ThreadSet A = ThreadSet::firstN(4);       // {0,1,2,3}
  ThreadSet B = ThreadSet::singleton(2) |
                ThreadSet::singleton(5);    // {2,5}
  EXPECT_EQ((A | B).size(), 5);
  EXPECT_EQ((A & B), ThreadSet::singleton(2));
  ThreadSet Diff = A - B; // {0,1,3}
  EXPECT_EQ(Diff.size(), 3);
  EXPECT_FALSE(Diff.contains(2));
  EXPECT_TRUE(A.intersects(B));
  EXPECT_FALSE((A - B).intersects(B));
  EXPECT_TRUE(ThreadSet().isSubsetOf(A));
  EXPECT_TRUE((A & B).isSubsetOf(A));
  EXPECT_FALSE(A.isSubsetOf(B));
}

TEST(ThreadSet, IterationIsAscending) {
  ThreadSet S;
  S.insert(9);
  S.insert(1);
  S.insert(33);
  std::vector<Tid> Got;
  for (Tid T : S)
    Got.push_back(T);
  EXPECT_EQ(Got, (std::vector<Tid>{1, 9, 33}));
}

TEST(ThreadSet, FirstIsMinimum) {
  ThreadSet S;
  S.insert(40);
  S.insert(7);
  EXPECT_EQ(S.first(), 7);
}

TEST(ThreadSet, Str) {
  ThreadSet S;
  EXPECT_EQ(S.str(), "{}");
  S.insert(2);
  S.insert(5);
  EXPECT_EQ(S.str(), "{2, 5}");
}

/// Property test: ThreadSet agrees with std::set under random operations.
class ThreadSetPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ThreadSetPropertyTest, MatchesReferenceSet) {
  Xorshift Rng(GetParam());
  ThreadSet S;
  std::set<Tid> Ref;
  for (int Step = 0; Step < 2000; ++Step) {
    Tid T = Rng.nextBelow(MaxThreads);
    switch (Rng.nextBelow(3)) {
    case 0:
      S.insert(T);
      Ref.insert(T);
      break;
    case 1:
      S.erase(T);
      Ref.erase(T);
      break;
    default:
      ASSERT_EQ(S.contains(T), Ref.count(T) != 0);
    }
    ASSERT_EQ(S.size(), int(Ref.size()));
    ASSERT_EQ(S.empty(), Ref.empty());
  }
  std::vector<Tid> FromSet(Ref.begin(), Ref.end());
  std::vector<Tid> FromBits;
  for (Tid T : S)
    FromBits.push_back(T);
  EXPECT_EQ(FromBits, FromSet);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThreadSetPropertyTest,
                         ::testing::Values(1, 2, 3, 42, 1234, 99999));

/// Property: algebra laws hold for random pairs.
TEST_P(ThreadSetPropertyTest, AlgebraLaws) {
  Xorshift Rng(GetParam() * 7919);
  for (int Iter = 0; Iter < 200; ++Iter) {
    ThreadSet A, B;
    for (int I = 0; I < 10; ++I) {
      A.insert(Rng.nextBelow(MaxThreads));
      B.insert(Rng.nextBelow(MaxThreads));
    }
    EXPECT_EQ((A | B).size() + (A & B).size(), A.size() + B.size());
    EXPECT_EQ(((A - B) | (A & B)), A);
    EXPECT_TRUE((A - B).isSubsetOf(A));
    EXPECT_FALSE((A - B).intersects(B));
  }
}

/// Property: the inline SWAR size() agrees with a bit-by-bit count on
/// random masks of every density, and on the dense and sparse extremes.
TEST_P(ThreadSetPropertyTest, SizeMatchesBitLoop) {
  Xorshift Rng(GetParam() * 104729);
  auto Check = [](uint64_t Mask) {
    ThreadSet S;
    int Count = 0;
    for (Tid T = 0; T < MaxThreads; ++T)
      if ((Mask >> T) & 1) {
        S.insert(T);
        ++Count;
      }
    ASSERT_EQ(S.rawBits(), Mask);
    EXPECT_EQ(S.size(), Count) << "mask " << Mask;
  };
  for (int Iter = 0; Iter < 500; ++Iter) {
    uint64_t Mask = Rng.next();
    // Thin or thicken the word so every population from 0 to 64 occurs.
    switch (Iter % 4) {
    case 1:
      Mask &= Rng.next() & Rng.next();
      break;
    case 2:
      Mask |= Rng.next() | Rng.next();
      break;
    case 3:
      Mask &= ~uint64_t(0) >> Rng.nextBelow(MaxThreads);
      break;
    }
    Check(Mask);
  }
  Check(0);
  Check(~uint64_t(0));
  Check(0x5555555555555555ULL);
  Check(0xaaaaaaaaaaaaaaaaULL);
  Check(uint64_t(1) << 63);
}
