//===- tests/core/WorkStealDequeTest.cpp ----------------------------------===//
//
// Unit pins for the per-worker steal deque (core/WorkStealDeque.h): the
// owner's LIFO discipline, the steal-half split, the empty and one-item
// edges, and -- because the parallel engine's exactness contract rides
// on it -- a randomized multi-thread stress proving no item is ever lost
// or duplicated, whichever mix of owner pops and concurrent steals races
// over the deque.
//
//===----------------------------------------------------------------------===//

#include "core/WorkStealDeque.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <random>
#include <thread>
#include <vector>

using namespace fsmc;

namespace {

/// Wraps an integer id as a unit (the id rides in Prefix[0].Chosen).
CheckpointUnit item(int Id) {
  CheckpointUnit I;
  I.Prefix.push_back(ScheduleChoice{Id, Id + 1, true, 0, 0});
  return I;
}

int idOf(const CheckpointUnit &I) {
  return I.Prefix.empty() ? -1 : I.Prefix[0].Chosen;
}

} // namespace

TEST(WorkStealDeque, StartsEmpty) {
  WorkStealDeque D;
  EXPECT_TRUE(D.empty());
  EXPECT_EQ(D.size(), 0u);
  EXPECT_FALSE(D.popBottom().has_value());
  std::vector<CheckpointUnit> Out;
  EXPECT_EQ(D.stealTop(Out), 0u);
  EXPECT_TRUE(Out.empty());
}

TEST(WorkStealDeque, OwnerPopsLifo) {
  WorkStealDeque D;
  for (int I = 0; I < 5; ++I)
    D.pushBottom(item(I));
  EXPECT_EQ(D.size(), 5u);
  for (int I = 4; I >= 0; --I) {
    auto Got = D.popBottom();
    ASSERT_TRUE(Got.has_value());
    EXPECT_EQ(idOf(*Got), I);
  }
  EXPECT_TRUE(D.empty());
}

TEST(WorkStealDeque, PublishTopPreservesOrderAndPopsBottomFirst) {
  WorkStealDeque D;
  D.pushBottom(item(100));
  // Publish 10,11,12 on top, shallowest (10) topmost.
  std::vector<CheckpointUnit> Batch;
  for (int I = 10; I <= 12; ++I)
    Batch.push_back(item(I));
  D.publishTop(std::move(Batch));
  EXPECT_EQ(D.size(), 4u);
  // The owner still sees its own deepest item first...
  EXPECT_EQ(idOf(*D.popBottom()), 100);
  // ...and a thief takes from the top in published order.
  std::vector<CheckpointUnit> Out;
  EXPECT_EQ(D.stealTop(Out), 2u); // ceil(3/2)
  ASSERT_EQ(Out.size(), 2u);
  EXPECT_EQ(idOf(Out[0]), 10);
  EXPECT_EQ(idOf(Out[1]), 11);
  EXPECT_EQ(idOf(*D.popBottom()), 12);
}

TEST(WorkStealDeque, StealTakesHalfRoundedUpFromTop) {
  for (size_t N : {1u, 2u, 3u, 7u, 8u}) {
    WorkStealDeque D;
    for (size_t I = 0; I < N; ++I)
      D.pushBottom(item(int(I)));
    std::vector<CheckpointUnit> Out;
    EXPECT_EQ(D.stealTop(Out), (N + 1) / 2) << "N=" << N;
    ASSERT_EQ(Out.size(), (N + 1) / 2);
    // Top of the deque = oldest pushes = shallowest prefixes.
    for (size_t I = 0; I < Out.size(); ++I)
      EXPECT_EQ(idOf(Out[I]), int(I));
    EXPECT_EQ(D.size(), N - Out.size());
  }
}

TEST(WorkStealDeque, OneItemGoesToExactlyOneSide) {
  // Race the owner's pop against a thief's steal over a single item many
  // times: exactly one side must win each round, never both, never
  // neither.
  for (int Round = 0; Round < 200; ++Round) {
    WorkStealDeque D;
    D.pushBottom(item(Round));
    std::atomic<int> Got{0};
    std::thread Thief([&] {
      std::vector<CheckpointUnit> Out;
      if (D.stealTop(Out)) {
        EXPECT_EQ(Out.size(), 1u);
        EXPECT_EQ(idOf(Out[0]), Round);
        Got.fetch_add(1);
      }
    });
    if (auto I = D.popBottom()) {
      EXPECT_EQ(idOf(*I), Round);
      Got.fetch_add(1);
    }
    Thief.join();
    EXPECT_EQ(Got.load(), 1);
    EXPECT_TRUE(D.empty());
  }
}

TEST(WorkStealDeque, DrainAllEmptiesAndCounts) {
  WorkStealDeque D;
  for (int I = 0; I < 6; ++I)
    D.pushBottom(item(I));
  std::vector<CheckpointUnit> Out;
  EXPECT_EQ(D.drainAll(Out), 6u);
  EXPECT_EQ(Out.size(), 6u);
  EXPECT_TRUE(D.empty());
  EXPECT_EQ(D.drainAll(Out), 0u);
}

// The termination-count discipline the engine builds on the deque: every
// pushed item is popped or stolen exactly once, so an outstanding
// counter incremented per push and decremented per consumed item must
// come back to zero with every id seen exactly once.
TEST(WorkStealDeque, TerminationCountBalances) {
  WorkStealDeque D;
  std::atomic<uint64_t> Outstanding{0};
  const int N = 1000;
  for (int I = 0; I < N; ++I) {
    Outstanding.fetch_add(1);
    D.pushBottom(item(I));
  }
  std::vector<bool> Seen(N, false);
  std::vector<CheckpointUnit> Loot;
  while (true) {
    if (auto I = D.popBottom()) {
      ASSERT_FALSE(Seen[size_t(idOf(*I))]);
      Seen[size_t(idOf(*I))] = true;
      Outstanding.fetch_sub(1);
      continue;
    }
    Loot.clear();
    if (!D.stealTop(Loot))
      break;
    for (CheckpointUnit &I : Loot) {
      ASSERT_FALSE(Seen[size_t(idOf(I))]);
      Seen[size_t(idOf(I))] = true;
      Outstanding.fetch_sub(1);
    }
  }
  EXPECT_EQ(Outstanding.load(), 0u);
  EXPECT_TRUE(std::all_of(Seen.begin(), Seen.end(), [](bool B) { return B; }));
}

// Randomized multi-thread stress: one owner pushing, popping and
// publishing, several thieves stealing, with every consumed id recorded.
// The popped multiset must equal the pushed multiset exactly -- the
// no-lost-no-duplicated-item property behind the engine's "identical
// execution multisets" guarantee.
TEST(WorkStealDeque, RandomizedStealStressPreservesMultiset) {
  WorkStealDeque D;
  constexpr int NumIds = 20000;
  constexpr int NumThieves = 3;
  std::atomic<bool> OwnerDone{false};
  std::vector<std::vector<int>> ThiefGot(NumThieves);
  std::vector<int> OwnerGot;

  std::vector<std::thread> Thieves;
  for (int T = 0; T < NumThieves; ++T)
    Thieves.emplace_back([&, T] {
      std::vector<CheckpointUnit> Out;
      while (!OwnerDone.load(std::memory_order_acquire) || !D.empty()) {
        Out.clear();
        if (D.stealTop(Out))
          for (CheckpointUnit &I : Out)
            ThiefGot[size_t(T)].push_back(idOf(I));
        else
          std::this_thread::yield();
      }
    });

  std::mt19937 Rng(12345);
  int NextId = 0;
  while (NextId < NumIds || !D.empty()) {
    unsigned Op = Rng() % 8;
    if (Op < 4 && NextId < NumIds) {
      D.pushBottom(item(NextId++));
    } else if (Op < 6 && NextId < NumIds) {
      // Publish a small batch on top, like a splitWork response.
      std::vector<CheckpointUnit> Batch;
      size_t K = 1 + Rng() % 5;
      for (size_t I = 0; I < K && NextId < NumIds; ++I)
        Batch.push_back(item(NextId++));
      D.publishTop(std::move(Batch));
    } else {
      if (auto I = D.popBottom())
        OwnerGot.push_back(idOf(*I));
    }
  }
  OwnerDone.store(true, std::memory_order_release);
  for (std::thread &T : Thieves)
    T.join();
  // Late stragglers: anything still in the deque after the thieves left.
  while (auto I = D.popBottom())
    OwnerGot.push_back(idOf(*I));

  std::map<int, int> Counts;
  for (int Id : OwnerGot)
    ++Counts[Id];
  for (auto &TG : ThiefGot)
    for (int Id : TG)
      ++Counts[Id];
  ASSERT_EQ(Counts.size(), size_t(NumIds));
  for (auto &KV : Counts)
    EXPECT_EQ(KV.second, 1) << "id " << KV.first;
}
