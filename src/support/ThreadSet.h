//===- support/ThreadSet.h - Small bitset over thread ids ------*- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A value-type set of thread identifiers backed by a single 64-bit word.
///
/// The fair scheduler (Algorithm 1 of the paper) manipulates sets of threads
/// on every transition: the enabled set ES, the per-thread windows E(u),
/// D(u), S(u), and the image pre(P, ES) of the priority relation. All of
/// these are hot, so the representation is a fixed bitset over at most
/// `MaxThreads` thread ids rather than a dynamic container.
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_SUPPORT_THREADSET_H
#define FSMC_SUPPORT_THREADSET_H

#include <bit>
#include <cassert>
#include <cstdint>
#include <string>

namespace fsmc {

/// Identifier of a test thread within one execution. Ids are dense and
/// allocated in spawn order starting from 0, so they are stable across the
/// deterministic replays performed by the stateless explorer.
using Tid = int;

/// Maximum number of threads per execution. The largest program in the
/// paper's evaluation (Dryad Fifo) uses 25 threads; 64 keeps `ThreadSet`
/// a single machine word.
inline constexpr int MaxThreads = 64;

/// A set of thread ids, represented as a 64-bit mask.
class ThreadSet {
public:
  constexpr ThreadSet() = default;

  /// Builds the set {0, 1, ..., n-1}.
  static constexpr ThreadSet firstN(int N) {
    assert(N >= 0 && N <= MaxThreads && "thread count out of range");
    return ThreadSet(N == MaxThreads ? ~uint64_t(0)
                                     : ((uint64_t(1) << N) - 1));
  }

  /// Builds the full set of all representable thread ids. Used for the
  /// initial D(u) and S(u) of Algorithm 1, which start as `Tid` (the set of
  /// all threads) so that the first window of a thread begins only after
  /// its first yield.
  static constexpr ThreadSet all() { return ThreadSet(~uint64_t(0)); }

  /// Builds a singleton set.
  static constexpr ThreadSet singleton(Tid T) {
    assert(T >= 0 && T < MaxThreads && "tid out of range");
    return ThreadSet(uint64_t(1) << T);
  }

  constexpr bool empty() const { return Bits == 0; }
  /// Member count. An inline SWAR count rather than std::popcount, which
  /// on the baseline x86-64 target (no -mpopcnt) is an out-of-line
  /// libgcc call, and size() sits on the per-transition path.
  constexpr int size() const {
    uint64_t X = Bits - ((Bits >> 1) & 0x5555555555555555ULL);
    X = (X & 0x3333333333333333ULL) + ((X >> 2) & 0x3333333333333333ULL);
    X = (X + (X >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return int((X * 0x0101010101010101ULL) >> 56);
  }
  constexpr bool contains(Tid T) const {
    assert(T >= 0 && T < MaxThreads && "tid out of range");
    return (Bits >> T) & 1;
  }

  void insert(Tid T) {
    assert(T >= 0 && T < MaxThreads && "tid out of range");
    Bits |= uint64_t(1) << T;
  }
  void erase(Tid T) {
    assert(T >= 0 && T < MaxThreads && "tid out of range");
    Bits &= ~(uint64_t(1) << T);
  }
  void clear() { Bits = 0; }

  /// Smallest id in the set; the set must be nonempty.
  Tid first() const {
    assert(!empty() && "first() on empty ThreadSet");
    return std::countr_zero(Bits);
  }

  /// Set algebra. These mirror the operations of Algorithm 1 directly:
  /// union (line 17, 21, 25), intersection (line 15), difference (line 7).
  constexpr ThreadSet operator|(ThreadSet O) const {
    return ThreadSet(Bits | O.Bits);
  }
  constexpr ThreadSet operator&(ThreadSet O) const {
    return ThreadSet(Bits & O.Bits);
  }
  /// Set difference `*this \ O`.
  constexpr ThreadSet operator-(ThreadSet O) const {
    return ThreadSet(Bits & ~O.Bits);
  }
  ThreadSet &operator|=(ThreadSet O) {
    Bits |= O.Bits;
    return *this;
  }
  ThreadSet &operator&=(ThreadSet O) {
    Bits &= O.Bits;
    return *this;
  }
  ThreadSet &operator-=(ThreadSet O) {
    Bits &= ~O.Bits;
    return *this;
  }
  constexpr bool operator==(const ThreadSet &O) const = default;

  constexpr bool intersects(ThreadSet O) const { return (Bits & O.Bits) != 0; }
  constexpr bool isSubsetOf(ThreadSet O) const {
    return (Bits & ~O.Bits) == 0;
  }

  /// Iteration over members in increasing id order. The order matters: the
  /// explorer enumerates scheduling choices in this order, which makes
  /// depth-first search deterministic and replayable.
  class iterator {
  public:
    explicit iterator(uint64_t Bits) : Rest(Bits) {}
    Tid operator*() const { return std::countr_zero(Rest); }
    iterator &operator++() {
      Rest &= Rest - 1;
      return *this;
    }
    bool operator!=(const iterator &O) const { return Rest != O.Rest; }

  private:
    uint64_t Rest;
  };
  iterator begin() const { return iterator(Bits); }
  iterator end() const { return iterator(0); }

  constexpr uint64_t rawBits() const { return Bits; }

  /// Renders the set as "{0, 2, 5}" for diagnostics and traces.
  std::string str() const;

private:
  explicit constexpr ThreadSet(uint64_t Bits) : Bits(Bits) {}

  uint64_t Bits = 0;
};

} // namespace fsmc

#endif // FSMC_SUPPORT_THREADSET_H
