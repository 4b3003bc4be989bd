//===- core/Explorer.h - Stateless state-space exploration -----*- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stateless explorer: runs the test program over and over, each time
/// following a recorded choice sequence (replay) up to the deepest branch
/// with untried alternatives, then taking a fresh alternative -- the
/// standard Verisoft-style depth-first search, augmented with:
///
///   - the fair scheduler of Algorithm 1 restricting the choice set;
///   - preemption accounting for context-bounded search, with
///     fairness-induced preemptions uncounted (Section 4);
///   - depth bounding with a random tail (the no-fairness baseline);
///   - divergence detection: executions exceeding the execution bound are
///     classified as livelocks or good-samaritan violations;
///   - optional state-signature coverage, and a stateful pruning mode
///     that reproduces the paper's "Total States" ground truth.
///
/// The explorer captures no program state between executions (beyond the
/// optional signature hash table): it is a *stateless* model checker.
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_CORE_EXPLORER_H
#define FSMC_CORE_EXPLORER_H

#include "core/Checker.h"
#include "core/SearchStrategy.h"
#include "core/Trace.h"
#include "runtime/Runtime.h"
#include "support/U64Set.h"
#include "support/Xorshift.h"

#include <chrono>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

namespace fsmc {

namespace obs {
struct ObsEvent;
struct WorkerCounters;
struct SearchProfile;
struct ExplainLog;
} // namespace obs

struct CheckpointState;
struct CheckpointUnit;
class StackPool;

/// Drives the whole search for one checker run. Also serves as the
/// ChoiceSource that resolves Runtime::chooseInt data choices, so both
/// scheduling and data nondeterminism share one replayable choice stack.
/// Its runtimes call its onParked at every schedule point, so a thread the
/// scheduler picks again runs on without a fiber switch.
class Explorer final : public ChoiceSource {
public:
  Explorer(const TestProgram &Program, const CheckerOptions &Opts);
  ~Explorer() override;

  /// Runs executions until the search is exhausted, a bug stops it, or a
  /// budget (time / execution count) runs out.
  CheckResult run();

  /// Seeds the first execution's choice stack with a recorded schedule
  /// (see core/Schedule.h). Must be called before run().
  ///
  /// With \p Frozen set, the preloaded records form an immutable prefix:
  /// the DFS never advances or pops them, so the search is confined to
  /// the subtree below the prefix.
  void preloadSchedule(const std::vector<struct ScheduleChoice> &Choices,
                       bool Frozen = false);

  /// preloadSchedule freezing only the first \p FrozenLen records: the
  /// rest of the preloaded stack stays advanceable. This is how every
  /// engine runs a CheckpointUnit, so a resumed search or a handed-back
  /// continuation re-enters the middle of a subtree.
  void preloadScheduleFrozenPrefix(
      const std::vector<struct ScheduleChoice> &Choices, size_t FrozenLen);

  /// Starts this run's statistics from \p Base instead of zero, so a
  /// resumed search reports cumulative totals and budget checks
  /// (MaxExecutions) span the original and resumed parts. Budget flags
  /// (TimedOut &c.) are cleared. Must precede run().
  void preloadBaseStats(const SearchStats &Base);

  /// Seeds the coverage table with signatures from an earlier run part,
  /// so DistinctStates and exported signatures stay cumulative.
  void preloadSeenStates(const U64Set &States);

  /// Seeds the first-counterexample slot from an earlier run part
  /// (StopOnFirstBug=false resume), so a later bug cannot displace it.
  void preloadBug(const BugReport &B);

  /// Also record newly inserted state signatures in insertion order
  /// (stateLog); an isolated fleet worker streams coverage deltas from it.
  void enableStateLog() { LogStates = true; }
  const std::vector<uint64_t> &stateLog() const { return StateLog; }

  /// PRNG state accessors for checkpoint/resume and unit chaining.
  uint64_t rngState() const { return Rng.state(); }
  void setRngState(uint64_t S) { Rng.setState(S); }

  /// Live statistics; valid from the execution hook.
  const SearchStats &currentStats() const { return Result.Stats; }

  /// The DFS stack as schedule choices. The snapshot drops each record's
  /// Donated flag, so it cannot tell which alternatives splitWork already
  /// handed away; handBack reads the live stack instead. Valid from the
  /// execution hook or after run().
  std::vector<struct ScheduleChoice> currentStackSnapshot() const;

  /// The first counterexample found so far (or preloaded); valid from the
  /// execution hook or after run().
  const std::optional<BugReport> &bug() const { return Result.Bug; }

  /// Streams every non-forced choice as it resolves (replayed or fresh):
  /// the fleet's crash probe uses this to recover the exact stack of a
  /// crashing execution from outside the process. \p SleepMask is the POR sleep
  /// set at the choice point (0 when CheckerOptions::Por is off) and
  /// \p FlushMask the flush-agent bits of the candidate set (0 under
  /// --memory=sc), so recovered crash schedules replay mask-exactly
  /// under POR and weak memory too.
  void setChoiceStream(std::function<void(int Chosen, int Num, bool Backtrack,
                                          uint64_t SleepMask,
                                          uint64_t FlushMask)>
                           CB);

  /// Invoked after every execution (before the DFS stack advances).
  /// Returning false stops the search without marking it exhausted --
  /// the parallel driver's handle for global budgets, first-bug pruning
  /// and work donation.
  void setExecutionHook(std::function<bool(Explorer &)> Hook);

  /// Carves unexplored sibling alternatives off the DFS stack as fully
  /// frozen units for other workers, shallowest (largest subtree) first,
  /// and marks the donated records so this explorer skips them. Only
  /// valid from within the execution hook. \returns the number of units
  /// appended to \p Out (at most \p MaxItems, unless one record's
  /// siblings overshoot it).
  size_t splitWork(std::vector<CheckpointUnit> &Out, size_t MaxItems);

  /// Hands back everything this explorer has left to explore, for an
  /// explorer that stops here: the untried siblings of the shallowest
  /// record that has any and is not yet donated (splitWork(Out, 1)), and
  /// before them one continuation -- the stack advanceStack would run
  /// next, frozen through that record -- holding everything deeper. The
  /// continuation sorts before the siblings in DFS order, so one worker
  /// running the units smallest-first still walks the serial order. With
  /// no such record there is no continuation either: every deeper
  /// alternative is donated or exhausted, and Out gains nothing. A random
  /// walk hands back its frozen prefix. Only valid from within the
  /// execution hook; both parallel engines stop a unit through it.
  void handBack(std::vector<CheckpointUnit> &Out);

  /// The Chosen values consumed by the execution that just finished --
  /// the path's position in DFS order. Two paths compare by the first
  /// differing choice index; this total order is what makes the parallel
  /// first-bug report deterministic.
  std::vector<int> consumedPathKey() const;

  /// State signatures this explorer inserted (TrackCoverage); the
  /// parallel driver unions the per-worker shards.
  const U64Set &seenStates() const { return SeenStates; }

  /// Binds this explorer to observability shard \p Worker of Opts.Obs
  /// (serial search and the replay path use shard 0; parallel workers get
  /// 1..Jobs). \p StartClock seeds the logical trace clock so a worker
  /// running many short-lived explorers keeps one monotonic time axis.
  /// No-op when no observer is attached.
  void setObsWorker(unsigned Worker, uint64_t StartClock = 0);

  /// Logical transitions this explorer has run; see setObsWorker.
  uint64_t obsClock() const { return ObsClock; }

  /// Uses \p P for fiber stacks instead of a private pool, letting a
  /// parallel worker share one pool across the many short-lived explorers
  /// it runs (one per work item). \p P must outlive the explorer; only
  /// meaningful with CheckerOptions::ReuseExecutionState. Call before
  /// run().
  void setStackPool(StackPool *P) { ExternalPool = P; }

  /// Incidents collected so far (data races under RaceCheckMode::On); an
  /// isolated fleet worker streams deltas of this list to its coordinator.
  /// Valid from the execution hook or after run().
  const std::vector<BugReport> &incidents() const { return Result.Incidents; }

  /// Records every executed transition (thread, op, object, enabled set,
  /// sleep mask, branch factor) plus the end classification into \p L --
  /// the incident explainer's data source (src/obs/Explain.h). \p L must
  /// outlive the explorer. Intended for single-execution replay runs; a
  /// full search would append every execution's steps.
  void setExplainLog(obs::ExplainLog *L) { Explain = L; }

  // ChoiceSource: data nondeterminism raised from inside a transition.
  int chooseInt(int N) override;

private:
  /// How one execution ended.
  enum class ExecEnd {
    Terminated,  ///< All threads finished.
    Bug,         ///< A violation was reported.
    Abandoned,   ///< Cut at a bound (counted as nonterminating) or timeout.
    Pruned,      ///< Stateful reference search reached a visited state.
    Diverged,    ///< Replay mismatch: the attempt does not count as an
                 ///< execution; the stack is untouched and retriable.
    Interrupted, ///< InterruptFlag observed mid-execution; not counted.
  };

  /// One entry of the DFS choice stack.
  struct ChoiceRec {
    int Chosen;
    int Num;
    bool Backtrack;
    /// Untried alternatives were handed to another worker via splitWork;
    /// advanceStack treats the record as exhausted. Kept separate from
    /// Backtrack so bug schedules serialize identically to a serial run.
    bool Donated = false;
    /// POR sleep set at this choice point (ScheduleChoice::SleepMask).
    uint64_t SleepMask = 0;
    /// Flush-agent candidate bits (ScheduleChoice::FlushMask); nonzero
    /// only under --memory=tso|pso.
    uint64_t FlushMask = 0;
    // Stamped by the execution that consumed the record, so the next one
    // can replay the step from its trace (decideLean). A data choice
    // (chooseInt) stamps only Step.
    /// curr.yield(Prev) at the choice point.
    bool PrevAtYield = false;
    /// The execution's preemption count after the step.
    int Preemptions = 0;
    /// ES at the choice point.
    uint64_t Enabled = 0;
    /// The step (trace index) that consumed the record.
    uint64_t Step = 0;

    struct ScheduleChoice choice() const;
  };

  enum class EndCause;
  struct ExecState;

  ExecEnd runOneExecution();
  /// Picks the next transition of execution \p X into X.T, with its
  /// bookkeeping (choice stack, trace, preemptions, sleep set). \returns
  /// false, with X.End set, when the execution ends instead.
  bool decide(ExecState &X);
  /// decide() for a step the previous execution took identically: reads
  /// the thread from its trace instead of deciding again. \returns false,
  /// changing nothing, when the guard finds the step differs.
  bool decideLean(ExecState &X);
  /// decideLean's part under POR: adds the sleep hits and fair wakes
  /// this step's PorStep recorded.
  void replayPorCounts();
  /// Accounts for the transition X.T that just ran and ended in \p St:
  /// counters, the fair scheduler, POR wakes, liveness, coverage and the
  /// bounds. \returns false, with X.End set, when the execution ends.
  bool afterTransition(ExecState &X, StepStatus St);
  /// afterTransition's POR bookkeeping: the sleep set after the step's
  /// transition, from its wakes or, for a lean step, its PorStep.
  void wakeSleepers(ExecState &X);
  /// ChoiceSource: afterTransition and decide on the parked thread's
  /// stack.
  Tid onParked() override;
  /// Runs the epilogue of X.End on the controller's stack: stats, events,
  /// the bug report or the divergence classification.
  ExecEnd finishExecution(ExecState &X);
  /// The per-execution totals every end folds into the run; \p EndDetail
  /// is the stable wire name of the end class for the ExecutionEnd event.
  void finishStats(ExecState &X, const char *EndDetail,
                   bool HarvestRaces = true);
  /// Transitions after which an execution counts as divergent (0: none).
  uint64_t executionCap() const;
  /// Folds one finished execution's detector results into the run:
  /// RacesChecked, and one deduplicated DataRace incident per novel race
  /// (keyed by the interleaving-independent report message).
  void harvestRaces(const RaceDetector &D, const Runtime &RT);
  /// Snapshot of the whole search state for CheckpointSink /
  /// CheckResult::Resume: stats, the current stack as one non-frozen
  /// frontier unit, RNG state, and sorted coverage signatures.
  std::shared_ptr<CheckpointState> makeCheckpointState() const;
  /// Sends \p E to the observer's sink with this worker's identity filled
  /// in. Call only when Obs && Obs->sink().
  void emitEvent(obs::ObsEvent E);
  /// Advances the deepest backtrackable choice; false when exhausted.
  bool advanceStack();
  /// Resolves one choice among \p N options through the stack. Under POR
  /// \p SleepMask (the sleep set at the choice point) is recorded on
  /// fresh pushes and validated against the stack during replay;
  /// \p FlushMask (flush-agent candidate bits, --memory=tso|pso) is
  /// validated unconditionally -- it is always zero when weak memory is
  /// off, so sc replays of sc schedules are unaffected while a schedule
  /// replayed under the wrong memory model diverges deterministically.
  int pickIndex(int N, bool Backtrack, bool PickRandom,
                uint64_t SleepMask = 0, uint64_t FlushMask = 0);
  void reportBug(Verdict V, std::string Msg, const Runtime &RT,
                 uint64_t Step);
  /// The encoded choices the current execution has consumed so far.
  std::string consumedSchedule();
  /// The Knuth leaf mass of the current path: the product of
  /// 1/branch-factor over its consumed backtrackable records.
  double pathMass() const;
  /// Credits the just-completed path's Knuth leaf mass (the product of
  /// 1/branch-factor over its consumed backtrackable records) into the
  /// weighted-backtrack estimator. No-op unless CheckerOptions::Estimate.
  /// Pruned executions (POR and stateful) call this *at the prune site*,
  /// where the cursor still frames the pruned node, so the pruned
  /// subtree's mass is credited by construction and the estimator sums
  /// to 1.0 at exhaustion regardless of which exits prune; every other
  /// end credits from run().
  void creditEstimateMass();
  bool timeExceeded() const;
  static Tid nthMember(ThreadSet S, int Idx);

  const TestProgram &Program;
  CheckerOptions Opts;
  std::unique_ptr<SearchStrategy> Strategy;
  Xorshift Rng;

  std::vector<ChoiceRec> Stack;
  size_t Cursor = 0;
  size_t ReplayLen = 0; ///< Stack records present when the execution began.
  size_t FrozenLen = 0; ///< Leading records the DFS never advances past.
  /// Leading steps of the next execution that repeat the previous one's,
  /// so decideLean may replay them from CurTrace: the steps before the
  /// one that consumed the advanced record. 0 after anything but a
  /// counted execution and a DFS advance.
  uint64_t LeanSteps = 0;
  bool ReplayMismatch = false;
  size_t MismatchIdx = 0; ///< Stack index where replay diverged.
  std::function<bool(Explorer &)> Hook;
  std::function<void(int, int, bool, uint64_t, uint64_t)> StreamCb;
  bool LogStates = false;
  std::vector<uint64_t> StateLog;
  obs::ExplainLog *Explain = nullptr;

  /// Knuth weighted-backtrack estimator (CheckerOptions::Estimate):
  /// Neumaier-compensated running sum of per-execution leaf masses;
  /// Result.Stats.EstimateMass always holds Sum + Comp so hooks and
  /// checkpoints see the compensated total.
  double EstMassSum = 0;
  double EstMassComp = 0;
  /// Borrowed view of Result.Profile (CheckerOptions::ProfileSearch);
  /// null when profiling is off, so hot-path hooks are one pointer test.
  obs::SearchProfile *Prof = nullptr;

  /// Observability (all null/zero when CheckerOptions::Obs is unset; every
  /// hot-path hook then reduces to one pointer test on Ctr).
  obs::Observer *Obs = nullptr;
  obs::WorkerCounters *Ctr = nullptr;
  unsigned ObsWorker = 0;
  /// Logical clock: transitions run by this explorer. Trace timestamps use
  /// it instead of wall time so serial traces are byte-reproducible.
  uint64_t ObsClock = 0;

  /// Execution-state recycling (CheckerOptions::ReuseExecutionState):
  /// one Runtime rewound via reset() per execution instead of a fresh
  /// object, with fiber stacks drawn from a pool. Declared before
  /// PersistentRT so the pool outlives the fibers that release into it.
  std::unique_ptr<StackPool> OwnPool;
  StackPool *ExternalPool = nullptr;
  std::unique_ptr<Runtime> PersistentRT;

  CheckResult Result;
  /// The current execution's steps. Holds the previous execution's while
  /// decideLean replays them.
  Trace CurTrace;
  /// Most trace events reserved up front (40 MiB of address space).
  static constexpr uint64_t MaxReservedSteps = uint64_t(1) << 20;
  /// Scratch for serializing Stack into ScheduleChoices (bug reports,
  /// race incidents); a member so repeated serialization reuses capacity.
  std::vector<struct ScheduleChoice> SchedScratch;
  /// Cross-execution race dedup: messages of every race already turned
  /// into an incident (the same race recurs in many interleavings).
  std::unordered_set<std::string> RaceKeys;
  /// Open-addressing flat tables (support/U64Set.h): one probe per
  /// signature on the hot path, pre-sized on resume by
  /// preloadSeenStates so long runs never rehash mid-search.
  U64Set SeenStates;
  U64Set PruneKeys;
  uint64_t CurExecution = 0;
  uint64_t CurSteps = 0;
  /// The execution in progress, for onParked.
  ExecState *Cur = nullptr;
  std::chrono::steady_clock::time_point StartTime;
  /// What one step of a POR search did to the sleep set, kept so the
  /// next execution can replay the step lean: the set after the
  /// transition's wakes, and the sleep hits and fair wakes its decision
  /// counted.
  struct PorStep {
    ThreadSet Sleep;
    uint32_t SleepHits;
    uint32_t FairWakes;
  };
  /// One PorStep per completed step of CurTrace under POR; empty
  /// otherwise. keepSteps truncates it with CurTrace.
  std::vector<PorStep> PorSteps;
  /// Keeps the first \p N steps of CurTrace and PorSteps.
  void keepSteps(uint64_t N);
};

} // namespace fsmc

#endif // FSMC_CORE_EXPLORER_H
