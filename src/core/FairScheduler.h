//===- core/FairScheduler.h - Algorithm 1 of the paper ---------*- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fair, demonic scheduler -- Algorithm 1 of the paper, the central
/// contribution of this reproduction.
///
/// The scheduler maintains, per execution, Algorithm 1's
///   - P:    an acyclic priority relation over threads;
///   - S(u): threads scheduled since u's last (processed) yield;
///   - E(u): threads continuously enabled since u's last yield;
///   - D(u): threads disabled by some transition of u since u's last yield.
///
/// At each state it restricts the demonic choice to
///     T = ES \ pre(P, ES)
/// and after executing thread t it applies lines 13-29: removes edges into
/// t, updates E/D/S for every thread, and -- if t's transition was a yield
/// -- closes t's window by adding edges from t to
///     H = (E(t) ∪ D(t)) \ S(t)
/// (the threads t starved in the window) and resetting E/D/S.
///
/// Lines 15 and 21 update S(u) and E(u) for *every* u on every step, so
/// those two windows are not stored. Each thread instead carries three
/// step stamps -- when it last ran, when its current unbroken run in the
/// enabled set began, and when its own window opened -- and a window is
/// materialized only when a processed yield closes it:
///     S(t) = { x | LastRun[x] > WindowOpen[t] }
///     E(t) = { x ∈ ES | EnabledSince[x] ≤ WindowOpen[t] }
/// D(t) is written only at t's own transitions and stays a stored set.
/// Every per-step operation therefore costs time proportional to the
/// threads it is about (ES for line 7, the edges into t, the threads that
/// just became enabled, and E(t) ∪ D(t) at a closing yield), never to
/// `MaxThreads`. tests/core/ReferenceFairScheduler.h keeps the literal
/// stored-window transcription as the differential oracle.
///
/// Guarantees reproduced from the paper and checked by the test suite:
///   Thm 1: every infinite execution satisfies GS ⇒ SF (strong fairness);
///   Thm 3: T = ∅ iff ES = ∅ (never a false deadlock), since P is acyclic;
///   Thm 4: an unfair cycle is unrolled at most twice;
///   Thm 5: every reachable state of yield count zero is visited;
///   Thm 6: a reachable fair cycle of yield count ≤ 1 yields divergence.
///
/// The constructor's \p YieldK implements the parameterization at the end
/// of Section 3: only every k-th yield of a thread closes its window,
/// extending the safety-soundness guarantee to states whose yield count is
/// below k.
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_CORE_FAIRSCHEDULER_H
#define FSMC_CORE_FAIRSCHEDULER_H

#include "core/PriorityGraph.h"
#include "support/ThreadSet.h"

#include <array>
#include <cstdint>

namespace fsmc {

/// Incremental implementation of Algorithm 1's auxiliary state.
///
/// The explorer owns the search; this class only answers "which threads may
/// be scheduled here" and ingests "thread t just executed". It is cheap to
/// copy-construct a fresh instance per execution.
class FairScheduler {
public:
  /// \p YieldK > 0: process every k-th yield of each thread (Section 3's
  /// parameterized algorithm; k = 1 is the paper's Algorithm 1).
  explicit FairScheduler(int YieldK = 1);

  /// Line 7: the schedulable set T = ES \ pre(P, ES) for enabled set \p ES.
  /// By Theorem 3 the result is empty iff \p ES is empty.
  ThreadSet allowed(ThreadSet ES) const {
    ThreadSet T = ES - P.pre(ES);
    assert((T.empty() == ES.empty()) &&
           "Theorem 3 violated: schedulable set empty on nonempty ES");
    return T;
  }

  /// Lines 12-29: ingest the transition in which thread \p T executed.
  /// \p ESBefore is the enabled set of the pre-state (curr.ES), \p ESAfter
  /// of the post-state (next.ES), and \p WasYield is curr.yield(t) -- i.e.
  /// whether the executed visible operation was a yielding one.
  void onTransition(Tid T, ThreadSet ESBefore, ThreadSet ESAfter,
                    bool WasYield);

  /// The current priority relation (for tests, traces and diagnostics).
  const PriorityGraph &priorities() const { return P; }

  /// S(u), E(u) and D(u) of Algorithm 1. The first two are computed from
  /// the step stamps on each call, so they cost O(MaxThreads) and O(|ES|);
  /// only tests and diagnostics read them.
  ThreadSet scheduledSince(Tid U) const;
  ThreadSet continuouslyEnabledSince(Tid U) const;
  ThreadSet disabledBySince(Tid U) const { return D[U]; }

  /// Total number of priority edges ever added (diagnostics/ablation).
  uint64_t edgeAdditions() const { return EdgeAdds; }

  /// Total edges removed by line 13 (scheduling a thread discharges the
  /// obligations towards it). Together with edgeAdditions this gives the
  /// priority-graph churn rate, a live measure of how hard the fair
  /// scheduler is working.
  uint64_t edgeRemovals() const { return EdgeRemovals; }

  /// Resets to the initial state of Algorithm 1 (lines 1-4):
  /// P = ∅, E(u) = ∅, D(u) = Tid, S(u) = Tid for all u. The full initial
  /// D/S guarantee that a thread's first window only begins after its
  /// first yield; here that is every window starting unopened.
  void reset();

private:
  PriorityGraph P;
  /// Transitions ingested so far; the step stamps below count from 1, so
  /// a stamp of 0 means "never".
  uint64_t Now = 0;
  /// ESAfter of the latest transition: the ES that E(u) is a subset of.
  ThreadSet LastES;
  /// The step at which each thread last ran (line 21).
  std::array<uint64_t, MaxThreads> LastRun;
  /// For x ∈ LastES, the first step of x's current unbroken run in ESAfter
  /// (line 15).
  std::array<uint64_t, MaxThreads> EnabledSince;
  /// The step at which each thread's window opened (lines 26-28); 0 until
  /// its first processed yield, which stands for lines 1-4's S = D = Tid.
  std::array<uint64_t, MaxThreads> WindowOpen;
  std::array<ThreadSet, MaxThreads> D;
  std::array<uint32_t, MaxThreads> YieldSeen;
  int YieldK;
  uint64_t EdgeAdds = 0;
  uint64_t EdgeRemovals = 0;
};

} // namespace fsmc

#endif // FSMC_CORE_FAIRSCHEDULER_H
