//===- core/Checker.h - Public model-checking entry point ------*- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public API of the checker: describe a test program, configure the
/// search, run it, get a verdict.
///
/// Three engines run a search, picked in one place (runSearch): the serial
/// Explorer, the work-stealing thread engine (ParallelExplorer, --jobs=N)
/// and the supervised process fleet (runFleet, --fleet=N), which at width 1
/// also provides crash isolation (--isolate=batch).
///
/// The semi-algorithm of Section 2 has four outcomes, mapped here as:
///   1. terminates with a safety violation      -> SafetyViolation/Deadlock
///   2. diverges violating the good samaritan   -> GoodSamaritanViolation
///   3. diverges with an infinite fair execution-> Livelock
///   4. terminates without errors               -> Pass
/// Outcomes 2 and 3 are detected, as the paper prescribes, by a large
/// execution bound "orders of magnitude greater than the maximum number of
/// steps the user expects" plus classification of the diverging suffix.
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_CORE_CHECKER_H
#define FSMC_CORE_CHECKER_H

#include "runtime/PendingOp.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

namespace fsmc {

namespace obs {
class Observer;
struct SearchProfile;
} // namespace obs

struct CheckpointState;

/// Final classification of a checker run.
enum class Verdict {
  Pass,                   ///< Search finished (or budget ran out) bug-free.
  SafetyViolation,        ///< A checkThat/fail assertion fired.
  Deadlock,               ///< A state with live but no enabled threads.
                          ///< Never false under fairness (Theorem 3).
  Livelock,               ///< Divergence on a fair execution (outcome 3).
  GoodSamaritanViolation, ///< A thread scheduled forever without yielding
                          ///< (outcome 2; Section 4.3.1's bug class).
  Divergence,             ///< The test program is nondeterministic beyond
                          ///< scheduling/chooseInt: a recorded schedule did
                          ///< not replay even after the configured retries.
                          ///< A checker limitation, never a workload bug.
  Crash,                  ///< An isolated execution (or a quarantined fleet
                          ///< unit) died on a signal or unexpected exit.
  Hang,                   ///< An isolated execution made no progress for
                          ///< the watchdog timeout and was killed.
  DataRace,               ///< Concurrent conflicting accesses to a plain
                          ///< shared variable with no happens-before edge
                          ///< (src/race/RaceDetector.h; --races=on|fatal).
};

const char *verdictName(Verdict V);

/// How the search enumerates scheduling choices. A depth bound (the
/// "without fairness" baseline of Section 4.2.1) is orthogonal and
/// composes with any kind via CheckerOptions::DepthBound, exactly as the
/// paper combines db=20..60 with cb=1..3 and dfs in Table 2.
enum class SearchKind {
  Dfs,            ///< Exhaustive depth-first search of all choices.
  ContextBounded, ///< DFS over executions with at most `ContextBound`
                  ///< preemptions (Musuvathi-Qadeer PLDI'07), combined with
                  ///< fairness per Section 4: fairness-induced switches are
                  ///< not counted.
  RandomWalk,     ///< Repeated uniformly random executions; no backtrack.
};

/// Detailed counterexample for a non-Pass verdict.
struct BugReport {
  Verdict Kind = Verdict::Pass;
  std::string Message;     ///< One-line description.
  std::string TraceText;   ///< Rendered suffix of the buggy execution.
  /// The buggy execution's serialized choice sequence; feed it to
  /// replaySchedule (core/Schedule.h) to re-run the exact schedule.
  std::string Schedule;
  uint64_t AtExecution = 0;///< 0-based index of the buggy execution.
  uint64_t AtStep = 0;     ///< Transition count when detected.
};

/// How mergeSearchStats combines a SearchStats row of two search parts.
enum class StatMerge {
  Sum, ///< Counts add.
  Max, ///< Maxima take the larger.
  Run, ///< A fact of one run that the aggregating engine sets (budget
       ///< flags, wall time, the distinct-state count): never merged and
       ///< never written to a checkpoint.
};

/// Where a SearchStats row appears in the --stats-json "stats" block.
enum class StatJson {
  Always,     ///< Every report.
  OmitAtZero, ///< Only when nonzero, so reports of runs that never touch
              ///< the row's layer keep their legacy bytes.
  Hidden,     ///< Never (reported in another section, or not at all).
};

/// The SearchStats catalogue, one row per statistic:
///
///   X(type, member, key, StatMerge rule, StatJson rule)
///
/// The key names the row in --stats-json and in checkpoint files. The
/// struct, mergeSearchStats, the checkpoint writer and reader
/// (core/Checkpoint.cpp) and the "stats" block of --stats-json
/// (obs/StatsJson.cpp) are all generated from this table, and the
/// "stats" block lists its rows in table order. Adding a statistic is
/// one row plus its increment site.
#define FSMC_SEARCH_STATS(X)                                                 \
  X(uint64_t, Executions, "executions", Sum, Always)                         \
  X(uint64_t, Transitions, "transitions", Sum, Always)                       \
  X(uint64_t, Preemptions, "preemptions", Sum, Always)                       \
  /* Executions abandoned at the depth bound / hard cap without           */ \
  /* terminating -- the wasted work metric of Figure 2.                   */ \
  X(uint64_t, NonterminatingExecutions, "nonterminating_executions", Sum,    \
    Always)                                                                  \
  /* Executions pruned by the stateful reference search.                  */ \
  X(uint64_t, PrunedExecutions, "pruned_executions", Sum, Always)            \
  /* Sleep-set partial-order reduction (docs/POR.md). Sleeping threads    */ \
  /* removed from candidate sets at scheduling points -- the per-branch   */ \
  /* work POR saved.                                                      */ \
  X(uint64_t, PorSleepHits, "por_sleep_hits", Sum, OmitAtZero)               \
  /* Executions cut because every schedulable move slept: the subtree is  */ \
  /* covered by an equivalent interleaving explored elsewhere.            */ \
  X(uint64_t, PorBranchesPruned, "por_branches_pruned", Sum, OmitAtZero)     \
  /* Sleeping threads woken because they were the only fairness-allowed   */ \
  /* choices left: a sleeping transition is woken, never dropped.         */ \
  X(uint64_t, PorFairWakes, "por_fair_wakes", Sum, OmitAtZero)               \
  X(uint64_t, MaxDepth, "max_depth", Max, Always)                            \
  /* Distinct state signatures seen (when coverage tracking is on).       */ \
  X(uint64_t, DistinctStates, "distinct_states", Run, Always)                \
  /* Revisits of already-seen signatures (when coverage tracking is on):  */ \
  /* every lookup is either a new DistinctStates entry or a StateHits     */ \
  /* increment. Reported in the "coverage" section.                       */ \
  X(uint64_t, StateHits, "state_hits", Sum, Hidden)                          \
  /* Priority edges the fair scheduler added across the whole search.     */ \
  X(uint64_t, FairEdgeAdditions, "fair_edge_additions", Sum, Always)         \
  /* Total buggy executions seen (> 1 only with StopOnFirstBug = false).  */ \
  X(uint64_t, BugsFound, "bugs_found", Sum, Always)                          \
  X(int, MaxThreads, "max_threads", Max, Always)      /* Table 1 Threads */  \
  X(uint64_t, MaxSyncOps, "max_sync_ops", Max, Always) /* Table 1 Synch */   \
  /* Robustness layer (docs/ROBUSTNESS.md). Schedule prefixes discarded   */ \
  /* because they would not replay even after the configured retries.     */ \
  X(uint64_t, Divergences, "divergences", Sum, OmitAtZero)                   \
  /* Re-executions spent trying to get a mismatching prefix to replay.    */ \
  X(uint64_t, DivergenceRetries, "divergence_retries", Sum, OmitAtZero)      \
  /* Isolated executions (or quarantined fleet units) that died on a      */ \
  /* signal or unexpected exit.                                           */ \
  X(uint64_t, Crashes, "crashes", Sum, OmitAtZero)                           \
  /* Isolated executions killed by the hang watchdog.                     */ \
  X(uint64_t, Hangs, "hangs", Sum, OmitAtZero)                               \
  /* Checkpoints written (periodic + on interrupt).                       */ \
  X(uint64_t, Checkpoints, "checkpoints", Sum, OmitAtZero)                   \
  /* Plain-variable accesses race-checked (RaceCheckMode on/fatal).       */ \
  X(uint64_t, RacesChecked, "races_checked", Sum, OmitAtZero)                \
  /* Distinct data races found (deduplicated by race description).        */ \
  X(uint64_t, RacesFound, "races_found", Sum, OmitAtZero)                    \
  /* Fleet recovery (--fleet=N; docs/FLEET.md), zero on healthy runs.     */ \
  /* Worker processes that died (signal or unexpected exit) mid-search.   */ \
  X(uint64_t, FleetWorkerCrashes, "fleet_worker_crashes", Sum, OmitAtZero)   \
  /* Work units leased again to a surviving worker after their holder     */ \
  /* died or missed its heartbeat deadline.                               */ \
  X(uint64_t, FleetReissues, "fleet_reissues", Sum, OmitAtZero)              \
  /* Replacement workers forked after a death, within the restart budget. */ \
  X(uint64_t, FleetRespawns, "fleet_respawns", Sum, OmitAtZero)              \
  /* Work units quarantined after killing K consecutive workers; each     */ \
  /* becomes a replayable Verdict::Crash incident.                        */ \
  X(uint64_t, FleetQuarantined, "fleet_quarantined", Sum, OmitAtZero)        \
  /* Weak-memory exploration (--memory=tso|pso; docs/MEMORY.md), zero     */ \
  /* under sc. Stores enqueued into per-thread store buffers.             */ \
  X(uint64_t, BufferedStores, "buffered_stores", Sum, OmitAtZero)            \
  /* Buffered stores committed to memory (by flush agents, fences, or     */ \
  /* implicit drains at sync operations).                                 */ \
  X(uint64_t, StoreFlushes, "store_flushes", Sum, OmitAtZero)                \
  /* Knuth weighted-backtrack estimator mass (CheckerOptions::Estimate):  */ \
  /* each counted execution contributes the product of 1/branch-factor    */ \
  /* over the backtrackable records on its path, so the masses partition  */ \
  /* the choice tree and sum to exactly 1.0 at exhaustion. The tree-size  */ \
  /* estimate is Executions / EstimateMass (the "estimate" section;       */ \
  /* docs/OBSERVABILITY.md covers the early-run bias caveat).             */ \
  X(double, EstimateMass, "estimate_mass", Sum, Hidden)                      \
  /* Stopped by CheckerOptions::InterruptFlag.                            */ \
  X(bool, Interrupted, "interrupted", Run, OmitAtZero)                       \
  X(double, Seconds, "seconds", Run, Always)                                 \
  X(bool, TimedOut, "timed_out", Run, Always) /* Time budget exhausted. */   \
  X(bool, ExecutionCapHit, "execution_cap_hit", Run, Always)                 \
  /* DFS enumerated every execution.                                      */ \
  X(bool, SearchExhausted, "search_exhausted", Run, Always)

/// Aggregate statistics of a search (rows: FSMC_SEARCH_STATS); the
/// benches derive every table and figure from these.
struct SearchStats {
#define FSMC_STAT_FIELD(Type, Member, Key, Merge, Json) Type Member{};
  FSMC_SEARCH_STATS(FSMC_STAT_FIELD)
#undef FSMC_STAT_FIELD
};

// The fleet's wire protocol (core/Wire.h) sends SearchStats as raw bytes.
static_assert(std::is_trivially_copyable_v<SearchStats>,
              "SearchStats must stay trivially copyable");

/// Accumulates \p From into \p Into by each row's StatMerge rule. Run rows
/// (budget flags, seconds, the distinct-state count) stay owned by the
/// aggregating engine. Shared by the parallel engine, the fleet
/// coordinator, and checkpoint resume.
void mergeSearchStats(SearchStats &Into, const SearchStats &From);

/// Happens-before data race detection over plain shared variables
/// (--races=). Detection is purely observational: On and Fatal explore
/// the same execution multiset as Off; only the reporting differs.
enum class RaceCheckMode {
  Off,   ///< No detection; zero overhead (the default).
  On,    ///< Detect and report races (Verdict::DataRace + Incidents) but
         ///< keep searching the full configured budget.
  Fatal, ///< A detected race ends the execution like a safety violation
         ///< and, with StopOnFirstBug, the search.
};

/// Where test-program code runs relative to the checker (--isolate=).
enum class IsolationMode {
  Off,   ///< In-process; a workload crash kills the checker (fast path).
  Batch, ///< Run executions in a one-worker process fleet; crashes and
         ///< hangs are harvested as Verdict::Crash / Verdict::Hang with a
         ///< repro schedule, and the search continues (core/Fleet.h).
};

/// Knobs for one checker run. Defaults give the paper's configuration:
/// fair DFS with k = 1 and divergence detection.
struct CheckerOptions {
  /// Use the fair scheduler (Algorithm 1). When false the demonic
  /// scheduler is unconstrained -- the pre-CHESS-fairness baseline.
  bool Fair = true;
  /// Process every k-th yield (Section 3's parameterized algorithm);
  /// must be ≥ 1.
  int YieldK = 1;

  SearchKind Kind = SearchKind::Dfs;
  /// Preemption bound for SearchKind::ContextBounded.
  int ContextBound = 2;
  /// 0 = no depth bound. Otherwise the search branches only on the first
  /// DepthBound transitions of each execution -- the termination crutch
  /// stateless checkers needed before fairness (Section 4.2.1).
  uint64_t DepthBound = 0;
  /// If false, executions are cut at DepthBound with no random tail
  /// (the Figure 2 configuration); if true, a random walk finishes the
  /// execution and its states still count toward coverage (Section 4.2.1).
  bool RandomTail = true;
  /// Hard cap on random-tail length; executions still alive count as
  /// nonterminating and are abandoned.
  uint64_t RandomTailCap = 20000;

  /// The "large bound on the execution depth" of Section 2. An execution
  /// exceeding it is classified as a liveness violation when
  /// DetectDivergence is set, else abandoned and counted.
  uint64_t ExecutionBound = 20000;
  /// Report divergence as Livelock / GoodSamaritanViolation. Defaults on;
  /// baseline (unfair) reproductions turn it off since their depth cut is
  /// expected.
  bool DetectDivergence = true;
  /// Eager good-samaritan detector: a thread scheduled this many times
  /// since its last yield, while some other thread was enabled, is
  /// reported without waiting for ExecutionBound. 0 disables.
  uint64_t GoodSamaritanBound = 4000;

  /// Stop at the first bug (Table 3 measures executions to first bug).
  bool StopOnFirstBug = true;

  uint64_t MaxExecutions = 0; ///< 0 = unlimited.
  double TimeBudgetSeconds = 0; ///< 0 = unlimited.
  uint64_t Seed = 12345;

  /// OS worker threads for the search. 1 = the serial explorer; > 1
  /// shards the DFS by schedule prefix across workers (see
  /// core/ParallelExplorer.h). Exhaustive searches visit the same
  /// executions and states as the serial run, and StopOnFirstBug reports
  /// the same (DFS-smallest) counterexample; random-walk search and
  /// StatefulPruning ignore this and run serially.
  int Jobs = 1;

  /// Recycle per-execution runtime state (thread records, pooled fiber
  /// stacks, object-name storage) across the executions of a search
  /// instead of destroying and re-creating it -- the hot-path fast path
  /// (docs/PERFORMANCE.md). Observationally invisible: traces, stats and
  /// the explored execution multiset are byte-identical either way; off
  /// exists for A/B measurement and as an escape hatch.
  bool ReuseExecutionState = true;

  /// Memory model to explore under (--memory=sc|tso|pso; docs/MEMORY.md).
  /// Sc is the historical sequentially-consistent search, byte-identical
  /// to builds without the feature. Tso gives every thread a FIFO store
  /// buffer: stores enqueue, loads forward from the own buffer, and a
  /// pseudo-thread-visible "flush oldest entry" action joins the enabled
  /// set, so the fair scheduler and DFS backtracking explore delayed
  /// propagation. Pso additionally relaxes inter-variable flush order.
  /// Caps the workload at 32 threads (tids 32..63 name flush agents).
  MemoryModel Memory = MemoryModel::Sc;

  /// Sleep-set partial-order reduction (--por=on; docs/POR.md). Prunes
  /// interleavings that only permute independent operations, as judged by
  /// the dependence oracle in core/Dependence.h. Sound for programs whose
  /// shared state lives entirely in modeled objects. Composed with the
  /// fair scheduler via wake rules -- a sleeping transition that is the
  /// only fairness-allowed choice is woken, never dropped -- but POR over
  /// fair schedules remains the paper's stated future work (Section 5),
  /// so the combination is pinned empirically by the differential parity
  /// suite (tests/core/PorParityTest.cpp) rather than by proof.
  bool Por = false;

  /// Record distinct state signatures (requires the test program to call
  /// Runtime::setStateExtractor, or relies on the built-in thread
  /// signature otherwise).
  bool TrackCoverage = false;
  /// Also return the signatures themselves, sorted, in
  /// CheckResult::StateSignatures (implies TrackCoverage). The
  /// serial-equivalence tests use this to assert a parallel run visits
  /// the same state *set* as the serial run, not merely as many states.
  bool ExportStateSignatures = false;
  /// Stateful reference search: prune an execution once it reaches an
  /// already-visited state. Used only to compute the "Total States" ground
  /// truth of Table 2; implies TrackCoverage.
  bool StatefulPruning = false;

  /// Online tree-size estimation (--estimate): accumulate the Knuth
  /// weighted-backtrack mass in SearchStats::EstimateMass so progress %
  /// and estimated_total_executions can be reported mid-run. One
  /// multiply-add per completed execution; off by default to keep default
  /// reports byte-identical.
  bool Estimate = false;
  /// Schedule-point hotspot profiling (--profile-search): record per-op-
  /// class / per-object branching histograms, depth and branch-factor
  /// distributions, and POR-pruning attribution into
  /// CheckResult::Profile (src/obs/SearchProfile.h).
  bool ProfileSearch = false;

  /// Observability hub (src/obs/): live sharded counters and, if its sink
  /// is set, a structured event trace. Not owned, may outlive the run.
  /// Null keeps every instrumentation hook down to one pointer test.
  obs::Observer *Obs = nullptr;

  /// Happens-before race detection over PlainVar accesses (src/race/).
  RaceCheckMode Races = RaceCheckMode::Off;

  //===--- Robustness layer (docs/ROBUSTNESS.md) -------------------------===//

  /// Run test-program code in forked worker processes so workload crashes
  /// and hangs cannot kill the search. Forces serial exploration order
  /// (Jobs and FleetWorkers are ignored); StatefulPruning falls back to
  /// the in-process path because prune keys cannot cross process
  /// boundaries.
  IsolationMode Isolate = IsolationMode::Off;
  /// Executions per leased work unit, under isolation and in fleet mode.
  /// Small units mean fine-grained recovery, large ones less protocol
  /// overhead.
  int BatchSize = 64;
  /// Worker watchdog and heartbeat deadline: a fleet or isolated worker
  /// that finishes no execution for this long is SIGKILLed; under
  /// isolation the execution is recorded as Verdict::Hang, in a fleet its
  /// unit is re-issued. Must exceed the wall time of the slowest single
  /// execution; <= 0 means 10 s.
  double HangTimeoutSeconds = 10.0;
  /// A recorded prefix that fails to replay (the workload is
  /// nondeterministic beyond scheduling/chooseInt) is re-executed this
  /// many times before being discarded under Verdict::Divergence.
  int DivergenceRetries = 3;
  /// Invoke CheckpointSink every this many executions (0 = never). The
  /// checkpoint captures the DFS frontier so the search can be resumed
  /// with resumeCheck (core/Checkpoint.h).
  uint64_t CheckpointEvery = 0;
  std::function<void(const CheckpointState &)> CheckpointSink;
  /// Cooperative interrupt: when non-null and set (e.g. from a SIGINT
  /// handler), the search stops at the next execution boundary, marks
  /// Stats.Interrupted, and returns a resume checkpoint in
  /// CheckResult::Resume.
  std::atomic<bool> *InterruptFlag = nullptr;

  //===--- Fleet mode (docs/FLEET.md) ------------------------------------===//

  /// > 1: supervised multi-process search (--fleet=N): a coordinator forks
  /// N long-lived workers and streams leased work units over pipes, with
  /// crash recovery, re-issue and graceful degradation (core/Fleet.h).
  /// Verdicts and incident sets match --jobs=N on exhaustive searches.
  /// RandomWalk and StatefulPruning fall back to the serial engine, as
  /// they do for Jobs; IsolationMode::Batch overrides the width to 1.
  /// Units are BatchSize executions long.
  int FleetWorkers = 0;
  /// A unit whose attempt dies this many consecutive times is quarantined
  /// as a replayable Verdict::Crash incident instead of being re-issued.
  int FleetQuarantine = 3;
  /// Replacement workers the coordinator may fork after deaths before
  /// degrading to reduced width. Negative = 2*FleetWorkers+2.
  int FleetRespawnBudget = -1;
};

/// A test program: a closure run as thread 0 of every execution. It may
/// spawn further threads, use the sync primitives, and must be
/// deterministic apart from scheduling and Runtime::chooseInt.
struct TestProgram {
  std::string Name;
  std::function<void()> Body;
};

/// Everything a checker run produced.
struct CheckResult {
  Verdict Kind = Verdict::Pass;
  std::optional<BugReport> Bug;
  SearchStats Stats;
  /// Sorted distinct state signatures; filled only when
  /// CheckerOptions::ExportStateSignatures is set.
  std::vector<uint64_t> StateSignatures;
  /// Every crash/hang the process engine harvested and every distinct
  /// data race the detector found (Bug holds the first workload bug, or
  /// the first crash/hang incident when no real bug was found).
  std::vector<BugReport> Incidents;
  /// Set when the run stopped on InterruptFlag: everything needed to
  /// continue the search via resumeCheck (core/Checkpoint.h).
  std::shared_ptr<CheckpointState> Resume;
  /// Schedule-point hotspot profile; filled only when
  /// CheckerOptions::ProfileSearch is set (src/obs/SearchProfile.h).
  std::shared_ptr<obs::SearchProfile> Profile;

  /// True for workload bugs. Divergence is a checker limitation and Crash
  /// and Hang count: a workload that dies under isolation is buggy.
  bool foundBug() const {
    return Kind != Verdict::Pass && Kind != Verdict::Divergence;
  }
};

/// Runs the fair stateless model checker on \p Program under \p Opts.
/// This is the library's main entry point.
CheckResult check(const TestProgram &Program, const CheckerOptions &Opts);

/// The one engine choice behind check(), resumeCheck() and
/// replaySchedule(): runs the search over the whole choice tree, or, with
/// \p From, continues from that checkpoint's stats, coverage, first bug,
/// incidents and frontier. Isolation selects a one-worker fleet, then
/// FleetWorkers the fleet, then Jobs the thread engine; random walks and
/// stateful pruning run serially unless isolated (pruning never is).
/// Finishes with finalizeRaces.
CheckResult runSearch(const TestProgram &Program, const CheckerOptions &Opts,
                      const CheckpointState *From = nullptr);

/// Top-level race promotion, done once by runSearch(): when
/// race detection is on and \p R carries DataRace incidents, reconciles
/// Stats.RacesFound with them and -- if no workload bug outranks the
/// races -- promotes the verdict to Verdict::DataRace with the first race
/// as the bug report. Deliberately *not* done inside the engines, so a
/// racy execution never changes StopOnFirstBug behaviour mid-search
/// (RaceCheckMode::On must explore the same multiset as Off).
void finalizeRaces(CheckResult &R, const CheckerOptions &Opts);

} // namespace fsmc

#endif // FSMC_CORE_CHECKER_H
