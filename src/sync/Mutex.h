//===- sync/Mutex.h - Modeled mutual-exclusion lock ------------*- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A mutex whose operations are visible transitions of the checker.
///
/// `lock` is a blocking acquire: the thread is *disabled* while another
/// thread holds the mutex (this is how transitions of one thread disable
/// others, feeding the D(u) sets of Algorithm 1). `tryLock` is the
/// non-blocking TryAcquire of Figure 1: always enabled, may fail.
///
/// `std::lock_guard<Mutex>` and `std::unique_lock<Mutex>` work, also on
/// executions the checker cuts: an `unlock` run by the unwinding of a
/// cut thread does nothing, and a thread cut while parked at the
/// `unlock` inside a guard's noexcept destructor is left as it is (see
/// "How an execution works" in README.md).
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_SYNC_MUTEX_H
#define FSMC_SYNC_MUTEX_H

#include "runtime/Runtime.h"

#include <string>

namespace fsmc {

/// A non-recursive mutex. Construct inside a test execution only.
class Mutex {
public:
  explicit Mutex(std::string Name = "mutex");

  /// Blocking acquire. The calling thread is disabled until the mutex is
  /// free; acquisition is one visible transition.
  void lock();

  /// Non-blocking acquire; one always-enabled visible transition.
  /// \returns true if the mutex was acquired.
  bool tryLock();

  /// Release. Reports a safety violation if the caller is not the holder.
  void unlock();

  /// \returns the holding thread, or -1. Safe to call from state
  /// extractors (reads only).
  Tid holder() const { return Holder; }
  bool isHeld() const { return Holder >= 0; }

  int objectId() const { return Id; }

private:
  friend class CondVar;
  static bool isFree(const void *Ctx) {
    return static_cast<const Mutex *>(Ctx)->Holder < 0;
  }

  int Id;
  Tid Holder = -1;
};

} // namespace fsmc

#endif // FSMC_SYNC_MUTEX_H
