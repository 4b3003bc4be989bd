//===- core/FairScheduler.cpp ---------------------------------------------===//

#include "core/FairScheduler.h"

using namespace fsmc;

FairScheduler::FairScheduler(int YieldK) : YieldK(YieldK) {
  assert(YieldK > 0 && "YieldK must be positive");
  reset();
}

void FairScheduler::reset() {
  P.clear();
  // Lines 1-4 of Algorithm 1. An unopened window stands for
  // D(u) = S(u) = Tid, which keeps the first processed yield of any thread
  // from adding edges: H = (E ∪ D) \ S = ∅ when S is full.
  Now = 0;
  LastES = ThreadSet();
  LastRun.fill(0);
  EnabledSince.fill(0);
  WindowOpen.fill(0);
  D.fill(ThreadSet::all());
  YieldSeen.fill(0);
  EdgeAdds = 0;
  EdgeRemovals = 0;
}

ThreadSet FairScheduler::scheduledSince(Tid U) const {
  if (WindowOpen[U] == 0)
    return ThreadSet::all();
  ThreadSet S;
  for (Tid X = 0; X < MaxThreads; ++X)
    if (LastRun[X] > WindowOpen[U])
      S.insert(X);
  return S;
}

ThreadSet FairScheduler::continuouslyEnabledSince(Tid U) const {
  if (WindowOpen[U] == 0)
    return ThreadSet();
  ThreadSet E;
  for (Tid X : LastES)
    if (EnabledSince[X] <= WindowOpen[U])
      E.insert(X);
  return E;
}

void FairScheduler::onTransition(Tid T, ThreadSet ESBefore, ThreadSet ESAfter,
                                 bool WasYield) {
  assert(T >= 0 && T < MaxThreads && "tid out of range");

  // Line 13: next.P := curr.P \ (Tid × {t}). Scheduling t satisfies any
  // obligation other threads had towards it.
  EdgeRemovals += uint64_t(P.removeEdgesInto(T));

  // Lines 14-22, as stamps. Line 21 (t ∈ S(u) for every u) is t's run
  // stamp; line 15 (E(u) &= ESAfter for every u) is a new enabled run for
  // each thread that just entered ESAfter -- a thread that left it drops
  // out of every E(u) because E(u) ⊆ LastES.
  ++Now;
  LastRun[T] = Now;
  for (Tid X : ESAfter - LastES)
    EnabledSince[X] = Now;
  LastES = ESAfter;
  D[T] |= (ESBefore - ESAfter); // line 17: t disabled these threads

  if (!WasYield)
    return;

  // Section 3's k-parameterization: only every k-th yield of t closes its
  // window. With k = 1 this is exactly lines 23-29 of Algorithm 1.
  if (++YieldSeen[T] % uint32_t(YieldK) != 0)
    return;

  // Line 24: H contains the threads never scheduled in t's closing window
  // that were continuously enabled, or disabled by t, during it. An
  // unopened window has S(t) = Tid, so H = ∅.
  if (WindowOpen[T] != 0) {
    ThreadSet H;
    for (Tid X : continuouslyEnabledSince(T) | D[T])
      if (LastRun[X] <= WindowOpen[T])
        H.insert(X);
    assert(!H.contains(T) && "line 21 guarantees t ∈ S(t), so t ∉ H");

    // Line 25: demote t below every starved thread in H.
    P.addEdgesFrom(T, H);
    EdgeAdds += uint64_t(H.size());
    assert(P.isAcyclic() && "Theorem 3 loop invariant violated");
  }

  // Lines 26-28: open a new window for t.
  WindowOpen[T] = Now;
  D[T] = ThreadSet();
}
