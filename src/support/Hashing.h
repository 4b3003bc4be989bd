//===- support/Hashing.h - Word-at-a-time state hashing --------*- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// 64-bit hashing used to build the state signatures of Section 4.2.1 of
/// the paper ("we performed a stateful search of the state space and
/// stored the state signatures in a hash table"). A coverage or stateful
/// search hashes a signature after every transition, so the hasher
/// consumes a whole 64-bit word per step: one multiply and one xorshift.
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_SUPPORT_HASHING_H
#define FSMC_SUPPORT_HASHING_H

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace fsmc {

/// Incremental 64-bit hasher over a sequence of words.
///
/// Each step is `H = (H ^ V) * K; H ^= H >> 32`. For a fixed state the
/// step is a bijection of the word, and for a fixed word a bijection of
/// the state, so two sequences of equal length that differ in exactly one
/// word never collide. The xorshift keeps a difference in the top bit of
/// one word from cancelling against the same flip in the next word, which
/// a bare multiply would allow. digest() finishes with the fmix64
/// avalanche, itself a bijection.
class WordHasher {
public:
  void addU64(uint64_t V) {
    H = (H ^ V) * Mul;
    H ^= H >> 32;
  }

  void addBool(bool B) { addU64(B ? 1 : 0); }

  /// Hashes the length, then the bytes in little-endian 8-byte words; the
  /// last word is zero-padded.
  void addBytes(const void *Data, size_t Len) {
    const auto *P = static_cast<const uint8_t *>(Data);
    addU64(Len);
    for (; Len >= 8; P += 8, Len -= 8)
      addU64(loadWord(P, 8));
    if (Len)
      addU64(loadWord(P, Len));
  }

  void addString(std::string_view S) { addBytes(S.data(), S.size()); }

  uint64_t digest() const {
    uint64_t X = H;
    X ^= X >> 33;
    X *= 0xff51afd7ed558ccdULL;
    X ^= X >> 33;
    X *= 0xc4ceb9fe1a85ec53ULL;
    X ^= X >> 33;
    return X;
  }

private:
  static constexpr uint64_t Seed = 0x243f6a8885a308d3ULL;
  static constexpr uint64_t Mul = 0x9e3779b97f4a7c15ULL;

  static uint64_t loadWord(const uint8_t *P, size_t N) {
    uint64_t W = 0;
    for (size_t I = 0; I < N; ++I)
      W |= uint64_t(P[I]) << (8 * I);
    return W;
  }

  uint64_t H = Seed;
};

/// Convenience one-shot hash of a 64-bit value.
inline uint64_t hashU64(uint64_t V) {
  WordHasher H;
  H.addU64(V);
  return H.digest();
}

} // namespace fsmc

#endif // FSMC_SUPPORT_HASHING_H
