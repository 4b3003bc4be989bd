//===- tests/support/HashingTest.cpp --------------------------------------===//

#include "support/Hashing.h"

#include "support/Xorshift.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>
#include <unordered_set>
#include <vector>

using namespace fsmc;

// The Fnv1a suite name predates WordHasher; it is kept so these test ids
// stay stable.

TEST(Fnv1a, Deterministic) {
  WordHasher A, B;
  A.addU64(12345);
  A.addString("hello");
  B.addU64(12345);
  B.addString("hello");
  EXPECT_EQ(A.digest(), B.digest());
}

TEST(Fnv1a, OrderSensitive) {
  // Every order of the same five words gets its own digest.
  std::vector<uint64_t> Words{1, 2, 3, 4, 5};
  std::unordered_set<uint64_t> Seen;
  do {
    WordHasher H;
    for (uint64_t W : Words)
      H.addU64(W);
    Seen.insert(H.digest());
  } while (std::next_permutation(Words.begin(), Words.end()));
  EXPECT_EQ(Seen.size(), 120u);
}

TEST(Fnv1a, BytesMatchString) {
  WordHasher A, B;
  A.addString("abc");
  B.addBytes("abc", 3);
  EXPECT_EQ(A.digest(), B.digest());
}

TEST(Fnv1a, SingleBitSensitivity) {
  // Flipping one input bit must change the digest (for these inputs).
  WordHasher A, B;
  A.addU64(0x10);
  B.addU64(0x11);
  EXPECT_NE(A.digest(), B.digest());
}

TEST(Fnv1a, FewCollisionsOnSequentialInputs) {
  std::unordered_set<uint64_t> Seen;
  for (uint64_t I = 0; I < 100000; ++I)
    Seen.insert(hashU64(I));
  EXPECT_EQ(Seen.size(), 100000u);
}

namespace {

/// True if \p Digests holds no value twice.
bool allDistinct(std::vector<uint64_t> Digests) {
  std::sort(Digests.begin(), Digests.end());
  return std::adjacent_find(Digests.begin(), Digests.end()) ==
         Digests.end();
}

} // namespace

TEST(WordHasher, RecordsTwoBitFlipsApartNeverCollide) {
  // A record of six words shaped like a thread's signature words. Any two
  // records at Hamming distance one or two from each other within its
  // neighbourhood must get distinct digests: the record and its 384
  // one-bit flips are pairwise distinct, and no two-bit flip hashes like
  // the record. A bare (H ^ V) * K step fails this: flipping bit 63 of two
  // adjacent words cancels, since multiplying by an odd K keeps the
  // top-bit difference. (Three-bit differences can cancel here: the
  // xorshift turns a top-bit difference into two bits.)
  const uint64_t Record[6] = {uint64_t(3) << 32 | 7, 1, 42, 0, 5, 2};
  auto digestOf = [&](int BitA, int BitB) {
    WordHasher H;
    for (int W = 0; W < 6; ++W) {
      uint64_t V = Record[W];
      for (int Bit : {BitA, BitB})
        if (Bit >= 0 && Bit / 64 == W)
          V ^= uint64_t(1) << (Bit % 64);
      H.addU64(V);
    }
    return H.digest();
  };
  const uint64_t Base = digestOf(-1, -1);
  std::vector<uint64_t> Digests{Base};
  for (int A = 0; A < 6 * 64; ++A) {
    Digests.push_back(digestOf(A, -1));
    for (int B = A + 1; B < 6 * 64; ++B)
      EXPECT_NE(digestOf(A, B), Base) << "bits " << A << " and " << B;
  }
  EXPECT_TRUE(allDistinct(std::move(Digests)));
}

TEST(WordHasher, SmallIntegerRecordsNeverCollide) {
  // 32^4 = 1,048,576 four-word records of small integers, the values a
  // per-thread pending op, payload and program counter take.
  std::vector<uint64_t> Digests;
  Digests.reserve(size_t(1) << 20);
  for (uint64_t A = 0; A < 32; ++A)
    for (uint64_t B = 0; B < 32; ++B)
      for (uint64_t C = 0; C < 32; ++C)
        for (uint64_t D = 0; D < 32; ++D) {
          WordHasher H;
          H.addU64(A);
          H.addU64(B);
          H.addU64(C);
          H.addU64(D);
          Digests.push_back(H.digest());
        }
  EXPECT_TRUE(allDistinct(std::move(Digests)));
}

TEST(WordHasher, BytesAreLengthPrefixedAndPadded) {
  // The length prefix keeps zero padding and chunk boundaries from
  // aliasing: "a" and "a\0" fill the same padded word.
  auto digestOf = [](std::initializer_list<std::string_view> Parts) {
    WordHasher H;
    for (std::string_view P : Parts)
      H.addString(P);
    return H.digest();
  };
  using namespace std::string_view_literals;
  EXPECT_NE(digestOf({"a"}), digestOf({"a\0"sv}));
  EXPECT_NE(digestOf({"ab", "c"}), digestOf({"a", "bc"}));
  EXPECT_NE(digestOf({""}), digestOf({}));
  EXPECT_NE(digestOf({"12345678"}), digestOf({"123456789"}));
  EXPECT_EQ(digestOf({"123456789abcdefgh"}),
            digestOf({"123456789abcdefgh"}));
}

TEST(WordHasher, BoolIsOneWord) {
  WordHasher A, B;
  A.addBool(true);
  B.addU64(1);
  EXPECT_EQ(A.digest(), B.digest());
}

TEST(Xorshift, DeterministicForSeed) {
  Xorshift A(99), B(99);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Xorshift, ZeroSeedIsValid) {
  Xorshift A(0);
  EXPECT_NE(A.next(), 0u);
}

TEST(Xorshift, NextBelowInRange) {
  Xorshift A(7);
  for (int I = 0; I < 1000; ++I) {
    int V = A.nextBelow(17);
    EXPECT_GE(V, 0);
    EXPECT_LT(V, 17);
  }
}

TEST(Xorshift, NextBelowCoversAllResidues) {
  Xorshift A(5);
  std::unordered_set<int> Seen;
  for (int I = 0; I < 500; ++I)
    Seen.insert(A.nextBelow(7));
  EXPECT_EQ(Seen.size(), 7u);
}

TEST(Xorshift, ReseedRestartsSequence) {
  Xorshift A(31337);
  uint64_t First = A.next();
  A.next();
  A.reseed(31337);
  EXPECT_EQ(A.next(), First);
}
