//===- obs/Counters.h - Per-worker-sharded search metrics ------*- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Live counters for the search. The paper's whole evaluation is told
/// through search telemetry (executions, transitions, priority edges,
/// divergence classes); SearchStats reports those post hoc, while this
/// registry makes them observable *while the search runs* -- the substrate
/// for the progress reporter, the stats exporter, and any future perf work.
///
/// Layout: one cache-line-padded shard per OS worker (shard 0 is the
/// serial explorer / the parallel driver). Each shard has exactly one
/// writer -- the worker that owns it -- so increments are plain
/// load/add/store on relaxed atomics (no RMW, no contention); readers
/// (progress reporter, exporters) sum shards at their own pace and may
/// observe slightly stale values, which is fine for telemetry.
///
/// The disabled path costs nothing: code holds a WorkerCounters pointer
/// that is null when no Observer is attached, and every instrumentation
/// site is a single pointer test.
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_OBS_COUNTERS_H
#define FSMC_OBS_COUNTERS_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace fsmc {
namespace obs {

/// Whether --stats-json shows a counter whose value is zero.
enum class CounterShow {
  Always,     ///< Every report with counters.
  OmitAtZero, ///< Only when nonzero, so reports of runs that never touch
              ///< the counter's layer keep their legacy bytes.
};

/// Which processes may bump a counter.
enum class CounterOwner {
  Search, ///< Any explorer, fleet and isolated workers included: their
          ///< deltas are added to the coordinator's shard 0.
  Coordinator, ///< Only the process that runs the search loop (the
               ///< serial explorer, the parallel or fleet coordinator). A
               ///< fleet coordinator counts these itself (it alone dedups
               ///< races across workers and sees deaths, recoveries and
               ///< checkpoints), so it drops them from worker deltas.
};

/// The counter catalogue, one row per monotonic total:
///
///   X(enumerator, wire name, CounterShow rule, CounterOwner)
///
/// The wire name is stable: --stats-json "counters" and the progress line
/// use it. The enum, counterName and the omit and owner rules are
/// generated from this table, so adding a counter is one row (plus its
/// increment site).
#define FSMC_COUNTERS(X)                                                     \
  X(Executions, "executions", Always, Search) /* Finished, any end kind. */  \
  X(Transitions, "transitions", Always, Search)                              \
  X(Preemptions, "preemptions", Always, Search) /* Section 4. */             \
  /* Transitions spent re-running recorded prefixes -- the stateless      */ \
  /* method's tax.                                                        */ \
  X(ReplaySteps, "replay_steps", Always, Search)                             \
  /* Visible operations published by test code.                           */ \
  X(SchedulePoints, "schedule_points", Always, Search)                       \
  /* Blocking ops that parked on a busy object.                           */ \
  X(SyncContention, "sync_contention", Always, Search)                       \
  /* Priority edges added (Algorithm 1 line 25) and removed (line 13).    */ \
  X(FairEdgeAdds, "fair_edge_adds", Always, Search)                          \
  X(FairEdgeRemovals, "fair_edge_removals", Always, Search)                  \
  /* Executions cut by the stateful reference search.                     */ \
  X(StatefulPrunes, "stateful_prunes", Always, Search)                       \
  /* Executions abandoned at a bound.                                     */ \
  X(NonterminatingExecutions, "nonterminating_executions", Always, Search)   \
  /* Buggy executions (all verdict classes), and three of the classes.    */ \
  X(BugsFound, "bugs_found", Always, Search)                                 \
  X(Deadlocks, "deadlocks", Always, Search)                                  \
  X(Livelocks, "livelocks", Always, Search)                                  \
  X(GoodSamaritanViolations, "good_samaritan_violations", Always, Search)    \
  /* Parallel: prefixes popped and explored, prefixes split off.          */ \
  X(WorkItemsRun, "work_items_run", Always, Search)                          \
  X(PrefixesDonated, "prefixes_donated", Always, Search)                     \
  /* Sleep-set POR (docs/POR.md): sleeping threads filtered from          */ \
  /* candidates, executions cut, sleepers woken as the only fair choices. */ \
  X(PorSleepHits, "por_sleep_hits", OmitAtZero, Search)                      \
  X(PorBranchesPruned, "por_branches_pruned", OmitAtZero, Search)            \
  X(PorFairWakes, "por_fair_wakes", OmitAtZero, Search)                      \
  /* Robustness layer (docs/ROBUSTNESS.md): prefixes discarded after      */ \
  /* failed replays, and re-executions of mismatching prefixes.           */ \
  X(Divergences, "divergences", OmitAtZero, Search)                          \
  X(DivergenceRetries, "divergence_retries", OmitAtZero, Search)             \
  /* Isolated executions that died on a signal, or were killed by the     */ \
  /* watchdog; checkpoints written.                                       */ \
  X(Crashes, "crashes", OmitAtZero, Coordinator)                             \
  X(Hangs, "hangs", OmitAtZero, Coordinator)                                 \
  X(Checkpoints, "checkpoints", OmitAtZero, Coordinator)                     \
  /* Plain accesses race-checked (--races=on); distinct races found.      */ \
  X(RacesChecked, "races_checked", OmitAtZero, Search)                       \
  X(RacesFound, "races_found", OmitAtZero, Coordinator)                      \
  /* Fleet mode (docs/FLEET.md): units whose attempt was committed,       */ \
  /* worker processes that died, units leased again after a death,        */ \
  /* replacement workers forked, units quarantined.                       */ \
  X(FleetUnits, "fleet_units", OmitAtZero, Coordinator)                      \
  X(FleetWorkerCrashes, "fleet_worker_crashes", OmitAtZero, Coordinator)     \
  X(FleetReissues, "fleet_reissues", OmitAtZero, Coordinator)                \
  X(FleetRespawns, "fleet_respawns", OmitAtZero, Coordinator)                \
  X(FleetQuarantined, "fleet_quarantined", OmitAtZero, Coordinator)          \
  /* Weak memory (docs/MEMORY.md): stores enqueued into a thread store    */ \
  /* buffer, and buffered stores committed to memory.                     */ \
  X(BufferedStores, "buffered_stores", OmitAtZero, Search)                   \
  X(StoreFlushes, "store_flushes", OmitAtZero, Search)                       \
  /* Work-stealing parallel engine (docs/PERFORMANCE.md): successful      */ \
  /* steal-half grabs, steal attempts that found the victim empty, and    */ \
  /* shared-lock acquisitions (injector, bug, merge, stash) -- the        */ \
  /* contention budget.                                                   */ \
  X(Steals, "steals", OmitAtZero, Search)                                    \
  X(StealFails, "steal_fails", OmitAtZero, Search)                           \
  X(QueueLockAcquires, "queue_lock_acquires", OmitAtZero, Search)            \
  /* Nanoseconds in deferred cross-worker merges (stats/states/races/     */ \
  /* profile), and prefix bytes materialized by splitWork.                */ \
  X(MergeNs, "merge_ns", OmitAtZero, Search)                                 \
  X(DonationBytes, "donation_bytes", OmitAtZero, Search)

/// The counter catalogue (rows: FSMC_COUNTERS).
enum class Counter : unsigned {
#define FSMC_COUNTER_ENUM(Id, Name, Show, Owner) Id,
  FSMC_COUNTERS(FSMC_COUNTER_ENUM)
#undef FSMC_COUNTER_ENUM
  NumCounters
};

/// Point-in-time values; unlike counters they can go down. Gauges have
/// multiple writers (any worker may update), so they use plain relaxed
/// stores of the new absolute value.
enum class Gauge : unsigned {
  WorkQueueDepth, ///< Items currently queued (parallel search).
  MaxDepth,       ///< Deepest execution seen so far (monotonic max).
  ActiveWorkers,  ///< Workers currently inside an execution.
  NumGauges
};

/// Wall-time phase buckets (Observer::Config::PhaseTiming): where an
/// execution's time actually goes. Replay is the stateless method's tax;
/// snapshot is the coverage-signature cost; race-check is the detector
/// harvest at execution end; execute is everything else inside the run
/// loop.
enum class Phase : unsigned {
  Replay,    ///< Re-running the recorded prefix.
  Execute,   ///< Fresh transitions past the prefix.
  RaceCheck, ///< Race-detector harvest at execution end.
  Snapshot,  ///< State-signature hashing and lookup.
  NumPhases
};

/// The stable wire name of \p C.
const char *counterName(Counter C);
/// True if --stats-json omits \p C at zero (CounterShow::OmitAtZero).
bool counterOmittedAtZero(Counter C);
/// True if only the coordinating process bumps \p C
/// (CounterOwner::Coordinator).
bool counterCoordinatorOnly(Counter C);
const char *gaugeName(Gauge G);
const char *phaseName(Phase P);

/// Number of power-of-two buckets in the scheduling-point latency
/// histogram: bucket i counts steps whose latency was in [2^i, 2^(i+1))
/// nanoseconds.
constexpr size_t LatencyBuckets = 32;

/// Number of distinct PendingOp kinds tracked per shard (must cover
/// OpKind; checked by a static_assert in Counters.cpp).
constexpr size_t OpKindSlots = 32;

struct CounterSnapshot;

/// One worker's shard. Padded to its own cache lines so workers never
/// false-share.
struct alignas(64) WorkerCounters {
  std::atomic<uint64_t> C[size_t(Counter::NumCounters)] = {};
  std::atomic<uint64_t> G[size_t(Gauge::NumGauges)] = {};
  /// Scheduling points by visible-operation kind (indexed by OpKind).
  std::atomic<uint64_t> Ops[OpKindSlots] = {};
  /// Contended blocking operations by kind.
  std::atomic<uint64_t> Contended[OpKindSlots] = {};
  /// log2-bucketed per-transition latency (only filled when step timing
  /// is enabled; clock reads are not free).
  std::atomic<uint64_t> Latency[LatencyBuckets] = {};
  /// Nanoseconds per phase (only filled when phase timing is enabled).
  std::atomic<uint64_t> PhaseNs[size_t(Phase::NumPhases)] = {};
  /// Knuth weighted-backtrack mass accumulated on this shard, stored as
  /// the bit pattern of a double (atomic<double> is not lock-free
  /// everywhere). Single writer, so load-bitcast-add-store never loses
  /// mass; readers sum shards for the live tree-size estimate.
  std::atomic<uint64_t> EstMassBits{0};

  /// Single-writer increment: load+store, no RMW. The owning worker is
  /// the only writer, so this never loses updates.
  void add(Counter Id, uint64_t N = 1) {
    auto &A = C[size_t(Id)];
    A.store(A.load(std::memory_order_relaxed) + N, std::memory_order_relaxed);
  }
  void addOp(unsigned Kind, uint64_t N = 1) {
    auto &A = Ops[Kind < OpKindSlots ? Kind : OpKindSlots - 1];
    A.store(A.load(std::memory_order_relaxed) + N, std::memory_order_relaxed);
  }
  void addContended(unsigned Kind) {
    auto &A = Contended[Kind < OpKindSlots ? Kind : OpKindSlots - 1];
    A.store(A.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
  void addLatencyNs(uint64_t Ns);
  void addPhaseNs(Phase P, uint64_t Ns) {
    auto &A = PhaseNs[size_t(P)];
    A.store(A.load(std::memory_order_relaxed) + Ns,
            std::memory_order_relaxed);
  }
  /// Single-writer add of estimator mass (see EstMassBits).
  void addEstimateMass(double M);
  void setGauge(Gauge Id, uint64_t V) {
    G[size_t(Id)].store(V, std::memory_order_relaxed);
  }
  /// Raises a monotonic-max gauge (e.g. MaxDepth); single writer per shard
  /// so load+store suffices.
  void maxGauge(Gauge Id, uint64_t V) {
    auto &A = G[size_t(Id)];
    if (V > A.load(std::memory_order_relaxed))
      A.store(V, std::memory_order_relaxed);
  }
  /// Adds what another process counted (a fleet worker's drained
  /// registry): every Search-owned counter, op, latency bucket, phase and
  /// the estimator mass, and the MaxDepth gauge as a maximum.
  /// Coordinator-only counters are dropped; the coordinator bumps those
  /// itself.
  void addDelta(const CounterSnapshot &D);
};

/// An aggregated, coherent-enough copy of every shard, taken by readers.
struct CounterSnapshot {
  uint64_t C[size_t(Counter::NumCounters)] = {};
  uint64_t G[size_t(Gauge::NumGauges)] = {};
  uint64_t Ops[OpKindSlots] = {};
  uint64_t Contended[OpKindSlots] = {};
  uint64_t Latency[LatencyBuckets] = {};
  uint64_t PhaseNs[size_t(Phase::NumPhases)] = {};
  /// Summed estimator mass across shards (0 when --estimate is off).
  double EstimateMass = 0;

  uint64_t counter(Counter Id) const { return C[size_t(Id)]; }
  uint64_t gauge(Gauge Id) const { return G[size_t(Id)]; }
  uint64_t phaseNs(Phase P) const { return PhaseNs[size_t(P)]; }
};

/// The sharded registry. Sized at construction for the maximum worker
/// count; shard(i) hands worker i its private shard.
class CounterRegistry {
public:
  explicit CounterRegistry(size_t MaxWorkers);

  WorkerCounters &shard(unsigned Worker);
  size_t shardCount() const { return NumShards; }

  /// Sums every shard. Gauges: WorkQueueDepth and ActiveWorkers sum
  /// (each worker contributes its own view), MaxDepth takes the max.
  CounterSnapshot snapshot() const;
  /// Takes a snapshot and zeroes every shard. Only for a registry whose
  /// sole writer is the calling thread (a fleet worker's private one), so
  /// nothing counted in between is lost.
  CounterSnapshot drain();

private:
  std::unique_ptr<WorkerCounters[]> Shards;
  size_t NumShards;
};

} // namespace obs
} // namespace fsmc

#endif // FSMC_OBS_COUNTERS_H
