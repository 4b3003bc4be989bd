//===- sync/TestThread.h - Thread spawn/join and yields --------*- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Thread handles for test programs, plus the yield operations the good
/// samaritan property is defined over: `yieldNow()` (an explicit processor
/// yield) and `sleepFor()` (a finite-timeout sleep). Both are *yielding*
/// visible operations; placing one on the back edge of every spin loop is
/// what makes a program good-samaritan-conforming (Section 2).
///
/// When the checker cuts an execution, it unwinds each unfinished thread
/// by an exception thrown from the operation the thread is parked at, so
/// the objects on its stack are destroyed. A thread parked inside a
/// `noexcept` body or destructor, or inside a `try` block, is left as it
/// is instead; README.md ("How an execution works") has the details.
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_SYNC_TESTTHREAD_H
#define FSMC_SYNC_TESTTHREAD_H

#include "runtime/Runtime.h"

#include <functional>
#include <string>

namespace fsmc {

/// A joinable handle to a spawned test thread.
class TestThread {
public:
  TestThread() = default;

  /// Spawns a thread running \p Body. The child does not run until the
  /// scheduler first picks it.
  explicit TestThread(std::function<void()> Body, std::string Name = "");

  TestThread(TestThread &&O) noexcept;
  TestThread &operator=(TestThread &&O) noexcept;
  TestThread(const TestThread &) = delete;
  TestThread &operator=(const TestThread &) = delete;

  /// Waits (disabled) until the thread finishes. Each handle may be
  /// joined once.
  void join();

  bool joinable() const { return Id >= 0 && !Joined; }
  Tid tid() const { return Id; }

private:
  static bool targetFinished(const void *Ctx);

  Runtime *RT = nullptr;
  Tid Id = -1;
  bool Joined = false;
};

/// Explicit processor yield: a yielding, always-enabled transition.
void yieldNow();

/// Sleep with a finite timeout; like yieldNow for scheduling purposes.
/// \p Ticks is recorded in the trace but has no semantic effect (the
/// demonic scheduler may "expire" any finite timeout immediately).
void sleepFor(int Ticks = 1);

} // namespace fsmc

#endif // FSMC_SYNC_TESTTHREAD_H
