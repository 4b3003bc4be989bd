//===- core/Trace.h - Execution traces and bug reports ---------*- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A recorded execution: the sequence of transitions the scheduler chose.
/// Traces back every counterexample the checker reports -- the "finite
/// execution of Q violating ϕ" and the bounded prefix of a "fair
/// nonterminating execution" from the problem statement in Section 2.
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_CORE_TRACE_H
#define FSMC_CORE_TRACE_H

#include "runtime/PendingOp.h"
#include "support/ThreadSet.h"

#include <cstdint>
#include <string>
#include <vector>

namespace fsmc {

class OutStream;
class Runtime;

/// One transition of an execution: thread \p Thread performed the visible
/// operation described by Kind/ObjectId/Aux.
struct TraceEvent {
  Tid Thread;
  OpKind Kind;
  int ObjectId;
  int64_t Aux;
  uint64_t Annotation; ///< The thread's abstract pc before the transition.
  bool WasYield;       ///< curr.yield(t) at the moment of scheduling.
  // Explorer bookkeeping for replaying this step in the next execution,
  // kept in the tail padding so an event stays 40 bytes:
  /// The step had one candidate, so it consumed no choice record.
  bool Forced = false;
  /// A 32-bit hash of ES at a forced step (zero at a choice point, whose
  /// record holds ES whole).
  uint32_t EnabledDigest = 0;
};
static_assert(sizeof(TraceEvent) == 40,
              "replay bookkeeping must fit TraceEvent's tail padding");

/// The transition sequence of one execution.
class Trace {
public:
  void record(const TraceEvent &E) { Events.push_back(E); }
  /// Makes room for \p N events without recording any.
  void reserve(size_t N) { Events.reserve(N); }
  /// Drops every event from index \p N on.
  void truncate(size_t N) {
    if (N < Events.size())
      Events.resize(N);
  }

  size_t size() const { return Events.size(); }
  bool empty() const { return Events.empty(); }
  const TraceEvent &operator[](size_t I) const { return Events[I]; }
  TraceEvent &operator[](size_t I) { return Events[I]; }
  const std::vector<TraceEvent> &events() const { return Events; }

  /// Threads scheduled in the last \p Window events.
  ThreadSet scheduledInSuffix(size_t Window) const;
  /// Threads with at least one yielding transition in the last \p Window
  /// events.
  ThreadSet yieldedInSuffix(size_t Window) const;

  /// Renders the last \p MaxEvents transitions with names resolved via
  /// \p RT, one per line, for inclusion in a bug report. Must be called
  /// while the execution's Runtime is still alive.
  std::string render(const Runtime &RT, size_t MaxEvents = 100) const;

  /// Renders and emits the trace through \p OS as one atomic write, so a
  /// concurrent progress line (see obs/ProgressReporter) cannot shear it.
  void print(OutStream &OS, const Runtime &RT, size_t MaxEvents = 100) const;

  /// Order-sensitive hash of the whole transition sequence; used by tests
  /// to check that the explorer enumerates *distinct* executions.
  uint64_t digest() const;

private:
  std::vector<TraceEvent> Events;
};

} // namespace fsmc

#endif // FSMC_CORE_TRACE_H
