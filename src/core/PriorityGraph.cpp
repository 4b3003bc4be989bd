//===- core/PriorityGraph.cpp ---------------------------------------------===//

#include "core/PriorityGraph.h"

using namespace fsmc;

bool PriorityGraph::isAcyclic() const {
  // Kahn's algorithm over the ≤64-node graph: repeatedly remove nodes with
  // no incoming edge from the remaining subgraph.
  ThreadSet Remaining;
  for (Tid T = 0; T < MaxThreads; ++T)
    if (!Succ[T].empty())
      Remaining.insert(T);
  for (Tid T = 0; T < MaxThreads; ++T)
    for (Tid U : Succ[T])
      Remaining.insert(U);

  bool Progress = true;
  while (!Remaining.empty() && Progress) {
    Progress = false;
    for (Tid T : Remaining) {
      // T is removable if no remaining node has an edge into it.
      bool HasIncoming = false;
      for (Tid S : Remaining)
        if (S != T && Succ[S].contains(T)) {
          HasIncoming = true;
          break;
        }
      if (!HasIncoming) {
        Remaining.erase(T);
        Progress = true;
      }
    }
  }
  return Remaining.empty();
}

bool PriorityGraph::empty() const {
  for (const auto &S : Succ)
    if (!S.empty())
      return false;
  return true;
}

int PriorityGraph::edgeCount() const {
  int N = 0;
  for (const auto &S : Succ)
    N += S.size();
  return N;
}

void PriorityGraph::clear() {
  Succ = {};
  Pred = {};
}
