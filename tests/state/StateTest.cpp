//===- tests/state/StateTest.cpp ------------------------------------------===//

#include "state/StateBuilder.h"

#include "state/CoverageTracker.h"
#include "state/HeapCanonicalizer.h"

#include <gtest/gtest.h>

using namespace fsmc;

TEST(HeapCanonicalizer, NullIsZero) {
  HeapCanonicalizer C;
  EXPECT_EQ(C.idOf(nullptr), 0u);
  EXPECT_EQ(C.distinctPointers(), 0u);
}

TEST(HeapCanonicalizer, FirstVisitOrderNames) {
  HeapCanonicalizer C;
  int A = 0, B = 0;
  EXPECT_EQ(C.idOf(&A), 1u);
  EXPECT_EQ(C.idOf(&B), 2u);
  EXPECT_EQ(C.idOf(&A), 1u) << "revisits keep their name";
  EXPECT_TRUE(C.seen(&A));
  EXPECT_FALSE(C.seen(&C));
  EXPECT_EQ(C.distinctPointers(), 2u);
}

TEST(HeapCanonicalizer, EquivalentHeapsHashEqual) {
  // The Section 4.2.1 requirement: two heaps with the same shape but
  // different addresses (different executions of the allocator) must get
  // the same signature.
  auto signatureOf = [](const std::vector<int *> &Objects) {
    StateBuilder B;
    for (int *P : Objects) {
      B.addPointer(P);
      if (P)
        B.addU64(uint64_t(*P));
    }
    return B.digest();
  };
  int X1 = 7, Y1 = 9;
  int X2 = 7, Y2 = 9;
  // Same traversal order, same contents, different addresses.
  EXPECT_EQ(signatureOf({&X1, &Y1, &X1}), signatureOf({&X2, &Y2, &X2}));
  // Different aliasing structure must differ.
  EXPECT_NE(signatureOf({&X1, &Y1, &X1}), signatureOf({&X1, &Y1, &Y1}));
}

TEST(StateBuilder, SeparatorsPreventFieldAliasing) {
  StateBuilder A;
  A.addU64(1);
  A.addSeparator();
  A.addU64(2);
  StateBuilder B;
  B.addU64(1);
  B.addU64(2);
  EXPECT_NE(A.digest(), B.digest());
}

TEST(StateBuilder, StringsAreLengthPrefixed) {
  StateBuilder A, B;
  A.addString("ab");
  A.addString("c");
  B.addString("a");
  B.addString("bc");
  EXPECT_NE(A.digest(), B.digest());
}

TEST(StateBuilder, BoolsAndIntsContribute) {
  StateBuilder A, B;
  A.addBool(true);
  B.addBool(false);
  EXPECT_NE(A.digest(), B.digest());
  StateBuilder C, D;
  C.addI64(-1);
  D.addI64(1);
  EXPECT_NE(C.digest(), D.digest());
}

TEST(CoverageTracker, RecordsDistinctAndHits) {
  CoverageTracker T;
  EXPECT_TRUE(T.record(10));
  EXPECT_TRUE(T.record(20));
  EXPECT_FALSE(T.record(10));
  EXPECT_EQ(T.distinct(), 2u);
  EXPECT_EQ(T.hits(), 1u);
  EXPECT_EQ(T.records(), 3u);
  EXPECT_TRUE(T.contains(20));
  EXPECT_FALSE(T.contains(30));
}

TEST(CoverageTracker, CoverageOfReference) {
  CoverageTracker Ref;
  Ref.record(1);
  Ref.record(2);
  Ref.record(3);
  Ref.record(4);
  CoverageTracker Run;
  Run.record(1);
  Run.record(3);
  Run.record(99); // Extra states do not hurt coverage.
  EXPECT_DOUBLE_EQ(Run.coverageOf(Ref), 0.5);
  EXPECT_DOUBLE_EQ(Ref.coverageOf(Ref), 1.0);
  CoverageTracker Empty;
  EXPECT_DOUBLE_EQ(Run.coverageOf(Empty), 1.0);
}

TEST(CoverageTracker, ClearResets) {
  CoverageTracker T;
  T.record(5);
  T.record(5);
  T.clear();
  EXPECT_EQ(T.distinct(), 0u);
  EXPECT_EQ(T.hits(), 0u);
}
