//===- tests/core/ReferenceFairScheduler.h - Literal Algorithm 1 -*- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The test oracle for core/FairScheduler and core/PriorityGraph: Algorithm 1
/// transcribed line for line, with the S(u), E(u) and D(u) windows stored as
/// literal arrays and P stored as successor rows only. Every operation walks
/// all MaxThreads slots, which is what makes it easy to check against the
/// paper and too slow for the search. FairSchedulerDiffTest drives both
/// implementations over the same streams and compares them after every step.
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_TESTS_CORE_REFERENCEFAIRSCHEDULER_H
#define FSMC_TESTS_CORE_REFERENCEFAIRSCHEDULER_H

#include "support/ThreadSet.h"

#include <array>
#include <cstdint>

namespace fsmc::reference {

/// P as one successor bitset per source thread.
class PriorityGraph {
public:
  bool hasEdge(Tid From, Tid To) const { return Succ[From].contains(To); }

  /// pre(P, X) = { t | ∃u ∈ X : (t, u) ∈ P }.
  ThreadSet pre(ThreadSet X) const {
    ThreadSet Result;
    for (Tid T = 0; T < MaxThreads; ++T)
      if (Succ[T].intersects(X))
        Result.insert(T);
    return Result;
  }

  /// Line 13: P := P \ (Tid × {t}).
  int removeEdgesInto(Tid T) {
    int Removed = 0;
    for (auto &S : Succ) {
      Removed += S.contains(T);
      S.erase(T);
    }
    return Removed;
  }

  /// Line 25: P := P ∪ {t} × H.
  void addEdgesFrom(Tid From, ThreadSet Sinks) {
    assert(!Sinks.contains(From) && "self-edge would create a cycle");
    Succ[From] |= Sinks;
  }

  void clear() {
    for (auto &S : Succ)
      S.clear();
  }

  ThreadSet successorsOf(Tid From) const { return Succ[From]; }

private:
  std::array<ThreadSet, MaxThreads> Succ = {};
};

/// Algorithm 1 with the per-thread windows stored as sets.
class FairScheduler {
public:
  explicit FairScheduler(int YieldK = 1) : YieldK(YieldK) {
    assert(YieldK > 0 && "YieldK must be positive");
    reset();
  }

  void reset() {
    P.clear();
    for (Tid U = 0; U < MaxThreads; ++U) {
      // Lines 1-4 of Algorithm 1.
      S[U] = ThreadSet::all();
      E[U] = ThreadSet();
      D[U] = ThreadSet::all();
      YieldSeen[U] = 0;
    }
    EdgeAdds = 0;
    EdgeRemovals = 0;
  }

  /// Line 7: T = ES \ pre(P, ES).
  ThreadSet allowed(ThreadSet ES) const { return ES - P.pre(ES); }

  /// Lines 12-29.
  void onTransition(Tid T, ThreadSet ESBefore, ThreadSet ESAfter,
                    bool WasYield) {
    // Line 13.
    EdgeRemovals += uint64_t(P.removeEdgesInto(T));

    // Lines 14-22.
    for (Tid U = 0; U < MaxThreads; ++U) {
      E[U] &= ESAfter; // line 15
      S[U].insert(T);  // line 21
    }
    D[T] |= (ESBefore - ESAfter); // line 17

    if (!WasYield)
      return;
    if (++YieldSeen[T] % uint32_t(YieldK) != 0)
      return;

    // Lines 24-25.
    ThreadSet H = (E[T] | D[T]) - S[T];
    P.addEdgesFrom(T, H);
    EdgeAdds += uint64_t(H.size());

    // Lines 26-28.
    E[T] = ESAfter;
    D[T] = ThreadSet();
    S[T] = ThreadSet();
  }

  const PriorityGraph &priorities() const { return P; }
  ThreadSet scheduledSince(Tid U) const { return S[U]; }
  ThreadSet continuouslyEnabledSince(Tid U) const { return E[U]; }
  ThreadSet disabledBySince(Tid U) const { return D[U]; }
  uint64_t edgeAdditions() const { return EdgeAdds; }
  uint64_t edgeRemovals() const { return EdgeRemovals; }

private:
  PriorityGraph P;
  std::array<ThreadSet, MaxThreads> S;
  std::array<ThreadSet, MaxThreads> E;
  std::array<ThreadSet, MaxThreads> D;
  std::array<uint32_t, MaxThreads> YieldSeen;
  int YieldK;
  uint64_t EdgeAdds = 0;
  uint64_t EdgeRemovals = 0;
};

} // namespace fsmc::reference

#endif // FSMC_TESTS_CORE_REFERENCEFAIRSCHEDULER_H
