//===- core/PriorityGraph.h - The priority relation P ----------*- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The priority relation P of Algorithm 1.
///
/// P ⊆ Tid × Tid is a partial priority order over threads: if (t, u) ∈ P
/// then t may be scheduled in a state s only when u is disabled in s. The
/// algorithm maintains P acyclic (Theorem 3's loop invariant), which
/// guarantees the scheduler never reports a false deadlock: the set of
/// schedulable threads T = ES \ pre(P, ES) is empty iff ES is empty.
///
/// Representation: one successor bitset per source thread (`Succ`) and its
/// transpose, one predecessor bitset per sink (`Pred`). Every per-step
/// query then touches only the threads it is about: `pre(X)` is the union
/// of `Pred[u]` over u ∈ X, line 13 visits only `Pred[t]`, and line 25
/// visits only the new sinks -- never all `MaxThreads` rows.
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_CORE_PRIORITYGRAPH_H
#define FSMC_CORE_PRIORITYGRAPH_H

#include "support/ThreadSet.h"

#include <array>

namespace fsmc {

/// The priority relation P of Algorithm 1, with the queries the fair
/// scheduler needs on every transition.
class PriorityGraph {
public:
  PriorityGraph() = default;

  /// \returns true if (From, To) ∈ P, i.e. From is deprioritized below To.
  bool hasEdge(Tid From, Tid To) const {
    assert(validTid(From) && validTid(To) && "tid out of range");
    return Succ[From].contains(To);
  }

  /// pre(P, X) = { t | ∃u ∈ X : (t, u) ∈ P } — the threads that lose to
  /// some member of \p X. Used on line 7: T = ES \ pre(P, ES).
  ThreadSet pre(ThreadSet X) const {
    ThreadSet Result;
    for (Tid U : X)
      Result |= Pred[U];
    return Result;
  }

  /// Removes all edges with sink \p T (line 13: P := P \ (Tid × {t})),
  /// raising T's relative priority after it is scheduled.
  /// \returns the number of edges removed.
  int removeEdgesInto(Tid T) {
    assert(validTid(T) && "tid out of range");
    int Removed = Pred[T].size();
    for (Tid U : Pred[T])
      Succ[U].erase(T);
    Pred[T].clear();
    return Removed;
  }

  /// Adds the edges {From} × \p Sinks (line 25), lowering From's priority
  /// below every thread it starved during the window just closed.
  void addEdgesFrom(Tid From, ThreadSet Sinks) {
    assert(validTid(From) && "tid out of range");
    assert(!Sinks.contains(From) && "self-edge would create a cycle");
    for (Tid H : Sinks)
      Pred[H].insert(From);
    Succ[From] |= Sinks;
  }

  /// \returns true iff the relation, viewed as a digraph, is acyclic.
  /// Theorem 3 proves Algorithm 1 preserves this; exposed for tests and
  /// debug assertions.
  bool isAcyclic() const;

  bool empty() const;
  /// Number of edges in the relation.
  int edgeCount() const;
  void clear();

  /// Successors (sinks) of \p From.
  ThreadSet successorsOf(Tid From) const {
    assert(validTid(From) && "tid out of range");
    return Succ[From];
  }

  bool operator==(const PriorityGraph &O) const = default;

private:
  static bool validTid(Tid T) { return T >= 0 && T < MaxThreads; }

  std::array<ThreadSet, MaxThreads> Succ = {};
  /// The transpose: Pred[u] = { t | (t, u) ∈ P }.
  std::array<ThreadSet, MaxThreads> Pred = {};
};

} // namespace fsmc

#endif // FSMC_CORE_PRIORITYGRAPH_H
