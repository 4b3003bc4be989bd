//===- core/WorkStealDeque.h - Per-worker deque of prefix shards -*- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-worker double-ended queue that carries schedule-prefix work
/// items in the parallel search (docs/PERFORMANCE.md). Each worker owns
/// exactly one deque:
///
///   - The *owner* pushes and pops at the bottom (LIFO), which preserves
///     depth-first order within a worker: the item popped next is the
///     deepest, most recently split subtree, exactly what serial DFS
///     would explore next.
///   - *Thieves* steal from the top, taking half the items per grab
///     (steal-half). Because owners publish splitWork output
///     shallowest-first, the top of the deque holds the shallowest
///     prefixes -- the largest unexplored subtrees -- so one steal
///     amortizes many executions.
///
/// The deque is bottom-locked: every operation takes the deque's own
/// mutex. That mutex is *private* -- only its owner and an occasional
/// thief touch it -- so in steady state it is uncontended and the
/// uncontended fast path is a single atomic CAS in pthread_mutex_lock.
/// This is deliberately not a Chase-Lev array: a CheckpointUnit holds a
/// vector, steals are rare once the search warms up (thief-driven,
/// not donor-polled), and the exactness contract makes a lost or
/// duplicated item catastrophic. What matters for scaling is that no
/// *shared* lock is in the hot loop; a per-worker lock nobody else
/// contends costs nanoseconds.
///
/// size() is a relaxed atomic read so thieves can scan victims without
/// touching any lock at all; they lock only a victim that looks
/// non-empty.
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_CORE_WORKSTEALDEQUE_H
#define FSMC_CORE_WORKSTEALDEQUE_H

#include "core/Schedule.h"

#include <atomic>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

namespace fsmc {

/// The older name of CheckpointUnit, kept for the ledger's deque rows.
using WorkItem = CheckpointUnit;

class WorkStealDeque {
public:
  /// Owner: push one item at the bottom (explored next, LIFO).
  void pushBottom(CheckpointUnit &&Item);

  /// Owner: pop the bottom item. Returns nullopt when empty.
  std::optional<CheckpointUnit> popBottom();

  /// Owner: splice a batch of freshly split prefixes onto the *top*,
  /// preserving \p Items order (front of Items ends up topmost). Callers
  /// pass splitWork output shallowest-first so thieves always grab the
  /// largest subtrees.
  void publishTop(std::vector<CheckpointUnit> &&Items);

  /// Thief: steal ceil(size/2) items from the top into \p Out (appended
  /// in top-to-bottom order, so Out.front() is the shallowest). Returns
  /// the number stolen, 0 if the deque was empty. Only the victim's lock
  /// is held; the thief deposits into its own deque afterwards, so no
  /// two deque locks are ever nested.
  size_t stealTop(std::vector<CheckpointUnit> &Out);

  /// Owner (epoch wind-down): move every item into \p Out, bottom and
  /// top alike. Order is top-to-bottom.
  size_t drainAll(std::vector<CheckpointUnit> &Out);

  /// Lock-free size probe; may be stale by the time the caller acts.
  size_t size() const { return Sz.load(std::memory_order_relaxed); }
  bool empty() const { return size() == 0; }

private:
  mutable std::mutex M;
  std::deque<CheckpointUnit> Q;
  /// Mirrors Q.size(); written under M, read without it.
  std::atomic<size_t> Sz{0};
};

} // namespace fsmc

#endif // FSMC_CORE_WORKSTEALDEQUE_H
