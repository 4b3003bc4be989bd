//===- core/WorkQueue.h - Cold-path injector of work units -----*- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cold-path *injector* queue of the parallel search. Steady-state
/// work flows through per-worker WorkStealDeques (WorkStealDeque.h) and
/// never touches this queue; the injector carries only the cold paths:
///
///   - seeding (the root item, or a resumed checkpoint frontier),
///   - epoch restarts (requeueing the stash after a periodic checkpoint),
///   - the idle workers' park bench: a worker that finds every deque and
///     the injector empty parks on the injector's condvar with a timeout,
///     and notifyAll() is the global wake signal (work published, search
///     over, epoch stop).
///
/// Each item is a CheckpointUnit (core/Schedule.h): a choice prefix and
/// the length of its frozen head, which the worker preloads with
/// Explorer::preloadScheduleFrozenPrefix. The root item is the empty
/// prefix, a steal response's items are fully frozen sibling subtrees,
/// and a resumed frontier or an epoch's hand-back may also hold
/// continuations frozen only part of the way.
///
/// Termination is *not* this queue's job anymore: the engine counts
/// outstanding items in a shared atomic (see ParallelExplorer.cpp) and
/// uses notifyAll() to broadcast the count reaching zero. That is what
/// lets the hot loop run without ever acquiring this lock.
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_CORE_WORKQUEUE_H
#define FSMC_CORE_WORKQUEUE_H

#include "core/Schedule.h"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

namespace fsmc {

namespace obs {
struct WorkerCounters;
} // namespace obs

class WorkQueue {
public:
  /// Enqueues \p Items and wakes every parked worker. Pushes never block
  /// or drop: a resumed frontier of any width seeds completely.
  void pushAll(std::vector<CheckpointUnit> Items);

  /// Non-blocking pop; nullopt when empty or stopped.
  std::optional<CheckpointUnit> tryPop();

  /// Park for up to \p Timeout or until notifyAll()/pushAll() wakes the
  /// caller, then pop if anything arrived. A nullopt return says only
  /// "nothing here now" -- callers rescan deques and the termination
  /// count, then park again. Deliberately not a predicate loop: any wake
  /// reason (new work, search over, epoch stop) must return control to
  /// the caller's scan loop.
  std::optional<CheckpointUnit> popWait(std::chrono::microseconds Timeout);

  /// Wakes every parked worker without touching the queue.
  void notifyAll();

  /// Aborts the search: drops queued items and wakes every waiter.
  void stop();

  /// Lock-free depth probe for starving workers' rescan loops; may be
  /// stale by the time the caller acts.
  size_t approxSize() const { return Depth.load(std::memory_order_relaxed); }

  /// Publishes the queue depth to \p Ctr's WorkQueueDepth gauge after
  /// every mutation (the driver's shard; all writes happen under the
  /// queue lock, so the single-writer protocol holds).
  void setObserver(obs::WorkerCounters *Ctr);

private:
  /// Call with M held after Q changed.
  void publishDepth();

  obs::WorkerCounters *Ctr = nullptr;
  std::mutex M;
  std::condition_variable CV;
  std::deque<CheckpointUnit> Q;
  /// Mirrors Q.size(); written under M, read without it.
  std::atomic<size_t> Depth{0};
  bool Stopped = false;
};

} // namespace fsmc

#endif // FSMC_CORE_WORKQUEUE_H
