//===- runtime/Runtime.h - Per-execution test-thread world -----*- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Runtime owns one execution of a test program: its fibers, their
/// pending visible operations, and the bookkeeping the explorer needs to
/// drive Algorithm 1 (enabled set, yield predicate, per-thread annotations).
///
/// The runtime makes no scheduling decision of its own: it exposes
/// `enabledSet()` and `step(t)` and leaves fairness, search strategy and
/// choice enumeration to the core library. This mirrors the paper's split
/// between the program model (Section 3, `NextState`) and the scheduler.
/// Where the decision is made is the ChoiceSource's business, though:
/// `schedulePoint` asks `ChoiceSource::onParked` on the parked thread's own
/// stack, and the thread keeps running -- no fiber switch -- whenever the
/// scheduler picks it again. Only a different thread, or the end of the
/// execution, costs a trip to the controller.
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_RUNTIME_RUNTIME_H
#define FSMC_RUNTIME_RUNTIME_H

#include "runtime/Fiber.h"
#include "runtime/PendingOp.h"
#include "support/ThreadSet.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace fsmc {

namespace obs {
struct WorkerCounters;
} // namespace obs

class RaceDetector;
class StackPool;

/// Resolves nondeterministic choices that arise *inside* a transition, and
/// optionally the scheduling decision at a schedule point.
///
/// Thread scheduling is the primary nondeterminism, handled by the explorer
/// between transitions. Data nondeterminism (`Runtime::chooseInt`) is the
/// "nondeterministic but finitely-branching thread transition relation"
/// generalization mentioned in Section 3; it funnels through this interface
/// so the explorer can enumerate it with the same choice stack.
class ChoiceSource {
public:
  virtual ~ChoiceSource();
  /// \returns a value in [0, N) for a data choice among \p N alternatives.
  virtual int chooseInt(int N) = 0;
  /// The scheduler, run at a schedule point on the parked thread's stack,
  /// after its pending op is published, and again after each flush-agent
  /// transition run in place. An override accounts for the transition that
  /// just ended and decides the next one. \returns the thread to run next:
  /// the parked thread itself (it continues with no fiber switch), a flush
  /// agent (its store commits in place, then this is asked again), any
  /// other thread -- the controller steps it next -- or -1 when the
  /// execution is over. Either of the last two switches to the controller,
  /// which must take the decision from here, not from step()'s status.
  /// The default, -1, defers every decision to the controller: each
  /// transition is then one controller round trip.
  virtual Tid onParked() { return -1; }
};

/// Result of running one transition via Runtime::step.
enum class StepStatus {
  Parked,   ///< The thread reached its next scheduling point.
  Finished, ///< The thread's body returned; it is no longer live.
  Failed,   ///< The thread reported a safety violation; stop the execution.
};

/// One execution's world: test threads, their fibers and pending ops.
///
/// Lifecycle: construct, `start()` with the main thread's body, then the
/// explorer repeatedly calls `enabledSet()` / `step(t)` until no live
/// threads remain (or a bug/bound stops the execution). Every execution
/// gets a logically fresh Runtime -- either a new object, or the previous
/// one rewound via `reset()`, which recycles thread records and fiber
/// stacks without changing observable behaviour; the stateless explorer
/// replays by re-running the test with the same choice sequence.
class Runtime {
public:
  struct Options {
    size_t StackBytes = Fiber::DefaultStackBytes;
    /// Count schedule points in syncOpCount(), which numbers the steps
    /// of race reports and buffered stores.
    bool CountOps = true;
    /// Observability shard of the worker driving this execution, or null.
    /// When set, schedulePoint and the sync primitives' contention
    /// notifications feed live counters (see src/obs/Counters.h).
    obs::WorkerCounters *Ctr = nullptr;
    /// Happens-before race detector observing this execution, or null.
    /// When set, spawn/join and the sync primitives' race* notifications
    /// feed vector-clock edges, and PlainVar accesses are race-checked
    /// (see src/race/RaceDetector.h). Purely observational: never
    /// influences scheduling.
    RaceDetector *Race = nullptr;
    /// Stack pool fiber stacks are acquired from and released to; null
    /// maps/unmaps stacks directly. Must outlive the Runtime (and any
    /// Runtime later reset() to a different pool, since recycled fibers
    /// return their stack to the pool that issued it).
    StackPool *Pool = nullptr;
    /// Memory model executions run under (docs/MEMORY.md). Away from Sc,
    /// every thread gets a FIFO store buffer, integral Atomic/PlainVar
    /// stores enqueue instead of writing memory, and per-thread flush
    /// agents (tids FlushBase + t) join the enabled set while the buffer
    /// is non-empty. Sc is byte-identical to the pre-feature runtime.
    MemoryModel Memory = MemoryModel::Sc;
  };

  /// First pseudo-tid of the store-buffer flush agents: agent
  /// FlushBase + t commits the oldest buffered store of thread t. Real
  /// threads are capped at FlushBase under --memory=tso|pso so both
  /// populations fit one ThreadSet (MaxThreads = 64).
  static constexpr Tid FlushBase = MaxThreads / 2;

  /// \returns true iff \p T names a flush agent, not a real thread.
  static constexpr bool isFlushAgent(Tid T) { return T >= FlushBase; }

  explicit Runtime(ChoiceSource &Choices);
  Runtime(ChoiceSource &Choices, Options Opts);
  ~Runtime();

  Runtime(const Runtime &) = delete;
  Runtime &operator=(const Runtime &) = delete;

  //===--------------------------------------------------------------------
  // Thread-side API: called from within test-thread fibers.
  //===--------------------------------------------------------------------

  /// \returns the runtime of the execution the calling fiber belongs to.
  /// Only valid while an execution is in progress.
  static Runtime &current();

  /// Spawns a new test thread. The child starts with a ThreadStart pending
  /// op and runs only when the scheduler first picks it.
  Tid spawn(std::function<void()> Body, std::string Name = "");

  /// Parks the calling thread at a scheduling point described by \p Op.
  /// Returns when the scheduler picks this thread; at that moment \p Op's
  /// enabled predicate is guaranteed to hold, and the caller performs the
  /// operation's effect atomically (no other thread runs until the next
  /// scheduling point).
  void schedulePoint(const PendingOp &Op);

  /// Resolves a data-nondeterministic choice among \p N alternatives.
  int chooseInt(int N);

  /// Records an abstract per-thread program counter, used by workloads
  /// that support state capture (Section 4.2.1's manual state extraction).
  void annotate(uint64_t Value);

  /// \returns the calling thread's id.
  Tid self() const;

  /// Reports a safety violation and abandons the execution. Never returns
  /// to the caller; control transfers to the explorer.
  [[noreturn]] void fail(std::string Message);

  /// Registers a named object (mutex, variable, ...) for traces.
  int newObjectId(std::string Name);

  /// Telemetry from a sync primitive: the calling thread is about to park
  /// on a busy object (lock held, queue full, ...). One counter increment
  /// when observability is attached; otherwise free.
  void noteContended(OpKind Kind);

  /// Happens-before edges from sync primitives to the attached race
  /// detector (no-ops when detection is off). raceAcquire: the caller
  /// observes everything released through object \p Obj. raceRelease: the
  /// caller publishes its history into \p Obj. raceJoin: the caller
  /// inherits joined thread \p Target's final clock. raceLoad/raceStore:
  /// race-checked plain accesses to variable \p Var.
  void raceAcquire(int Obj);
  void raceRelease(int Obj);
  void raceJoin(Tid Target);
  void raceLoad(int Var);
  void raceStore(int Var);

  /// The memory model of this execution; workloads and sync primitives
  /// branch on it to pick the buffered or direct store path.
  MemoryModel memory() const { return Opts.Memory; }

  /// Enqueues a store of \p Value to variable \p Var into the calling
  /// thread's store buffer (--memory=tso|pso). \p Commit is invoked with
  /// (\p Obj, \p Value) when the entry is flushed -- by the flush agent, a
  /// fence, or an implicit drain at a fencing sync operation. \p Plain
  /// marks race-checked PlainVar stores: their race-detector write access
  /// is registered at commit time, when the store becomes visible.
  void bufferStore(int Var, int64_t Value, void (*Commit)(void *, int64_t),
                   void *Obj, bool Plain);

  /// Store-to-load forwarding: if the calling thread's buffer holds an
  /// entry for \p Var, writes the *newest* such value to \p Out and
  /// returns true; the load must then not read memory.
  bool forwardedLoad(int Var, int64_t &Out) const;

  /// Registers the workload's manual state-extraction function (Section
  /// 4.2.1: "we manually added facilities to extract states"). The
  /// callback is invoked after every transition while the execution is
  /// alive, through stateSignature: on the controller's stack, or on the
  /// stack of the thread that just parked when the scheduler's decision
  /// runs there (ChoiceSource::onParked). It must only read workload
  /// state. Because extractors typically read locals of the registering
  /// thread, the runtime automatically drops the extractor when that
  /// thread finishes.
  void setStateExtractor(std::function<uint64_t()> Fn);

  //===--------------------------------------------------------------------
  // Controller-side API: called by the explorer between transitions.
  //===--------------------------------------------------------------------

  /// Creates thread 0 with \p MainBody. Must be called exactly once.
  void start(std::function<void()> MainBody, std::string Name = "main");

  /// Rewinds this Runtime to its just-constructed state under \p NewOpts,
  /// recycling what the next execution will rebuild anyway: thread
  /// records, their fiber stack mappings, and name storage survive, so a
  /// reset + start() costs no allocations or mmaps in the steady state.
  /// The stateless search (Algorithm 1) re-executes the program per
  /// schedule; this is its per-execution fast path.
  void reset(const Options &NewOpts);

  /// Threads that have been spawned and have not finished.
  ThreadSet liveSet() const { return Live; }

  /// The enabled set ES of the current state: live threads whose pending
  /// operation can execute now.
  ThreadSet enabledSet() const;

  /// The pending visible operation of live thread \p T.
  const PendingOp &pendingOf(Tid T) const;

  /// The `yield(t)` predicate of Section 3: true iff \p T is live and its
  /// pending operation is a yielding one.
  bool yieldPending(Tid T) const;

  /// Runs one transition of \p T: resumes its fiber until the next
  /// scheduling point, thread exit, or failure. \p T must be enabled.
  StepStatus step(Tid T);

  bool hasFailure() const { return Failed; }
  const std::string &failureMessage() const { return FailureMsg; }
  /// Thread that called fail(), or -1.
  Tid failureTid() const { return FailureBy; }

  /// Total threads ever spawned in this execution (Table 1 "Threads").
  int threadCount() const { return int(NumThreads); }
  /// Scheduling points executed so far (Table 1 "Synch Ops").
  uint64_t syncOpCount() const { return SyncOps; }

  /// Stores enqueued into / committed from store buffers this execution.
  /// Both are zero under --memory=sc.
  uint64_t bufferedStoreCount() const { return BufferedStores; }
  uint64_t storeFlushCount() const { return StoreFlushes; }

  /// Switches from a test thread back to the controller this execution:
  /// one per step() when ChoiceSource::onParked defers to the controller;
  /// else only at thread changes, thread exits, failures and the end of
  /// the execution.
  uint64_t controllerEntries() const { return ControllerEntries; }

  /// Signature of the current program state: the workload extractor's
  /// digest (if registered) combined with each thread's liveness, pending
  /// operation and annotation. Used for coverage counting and for the
  /// stateful reference search of Table 2.
  uint64_t stateSignature() const;

  bool isFinished(Tid T) const;
  const std::string &threadName(Tid T) const;
  uint64_t annotationOf(Tid T) const;
  const std::string &objectName(int Id) const;

private:
  struct ThreadState;

  /// Readies slot \p Id (recycled or freshly allocated) for a new thread.
  ThreadState &claimThreadSlot(Tid Id);

  static void threadEntry(void *Arg);
  [[noreturn]] void exitThread(ThreadState &TS);
  void switchToController(ThreadState &TS);
  /// Resumes every started, unfinished thread so that its stack unwinds
  /// (ThreadCancel, thrown on its switch-back path) and the objects on it
  /// are destroyed. A cut execution (depth bound, bug, divergence) leaves
  /// such threads; one that ran to its end has none, and pays nothing.
  void unwindUnfinished();
  /// Called on the switch-back path of \p TS while unwindUnfinished()
  /// resumes it: throws ThreadCancel, or abandons a thread whose stack
  /// has nothing to destroy or a frame the exception may not pass.
  [[noreturn]] void cancelParked(ThreadState &TS);
  /// Hands control back to unwindUnfinished() for good: \p TS's stack is
  /// left as it is.
  [[noreturn]] void abandonThread(ThreadState &TS);
  /// Asks ChoiceSource::onParked what runs after \p TS parks, stepping the flush
  /// agents it picks in place. \returns true when it picks \p TS itself.
  bool continueInPlace(ThreadState &TS);

  /// Commits every buffered store of thread \p T, oldest first. Called at
  /// fences, at fencing sync operations (drain-at-resume), at spawn (the
  /// parent's writes happen-before the child), and at thread exit.
  void drainBuffer(Tid T);
  /// One transition of flush agent FlushBase + \p Owner: commits one
  /// buffered store of thread \p Owner (the oldest under TSO; under PSO a
  /// data choice picks among the buffered variables first-come-first-
  /// served per variable).
  void flushStep(Tid Owner);
  /// Recomputes thread \p T's flush-agent pending op after any buffer
  /// mutation, so pendingOf(FlushBase + T) stays a stable reference.
  void refreshFlushPending(Tid T);
  /// Commits (and erases) entry \p Index of thread \p Owner's buffer:
  /// runs the deferred store, feeds the race detector, bumps counters.
  void commitEntryAt(Tid Owner, size_t Index);

  ChoiceSource &Choices;
  Options Opts;
  Fiber Controller;
  /// Thread records of this execution in slots [0, NumThreads); slots
  /// beyond that are recycled records from an earlier execution of this
  /// (reset) Runtime, kept so their storage and stacks can be reused.
  std::vector<std::unique_ptr<ThreadState>> Threads;
  size_t NumThreads = 0;
  std::vector<std::string> ObjectNames;
  ThreadSet Live;
  Tid CurTid = -1;       ///< Thread currently executing a transition.
  bool Failed = false;
  Tid FailureBy = -1;
  std::string FailureMsg;
  uint64_t SyncOps = 0;
  uint64_t BufferedStores = 0;
  uint64_t StoreFlushes = 0;
  uint64_t ControllerEntries = 0;
  /// Lazily built display names of flush agents ("sb(main)", ...),
  /// indexed by owner tid; cleared on reset with the rest of the naming
  /// state. Mutable because threadName() is const.
  mutable std::vector<std::string> FlushNames;
  bool InController = true;
  /// Set while unwindUnfinished() resumes threads to unwind them.
  bool Cancelling = false;
  std::function<uint64_t()> StateExtractor;
  Tid ExtractorOwner = -1;
#ifndef NDEBUG
  /// The single OS thread allowed to drive this Runtime's fibers; set on
  /// the first step(). See the assertion in step().
  std::thread::id OwnerThread;
#endif
};

/// Checks a safety property from inside a test thread; on failure reports
/// a safety violation (with \p Msg) and abandons the execution.
void checkThat(bool Cond, const char *Msg);

/// Full memory barrier: drains the calling thread's store buffer. A
/// complete no-op under --memory=sc (no scheduling point is published, so
/// sc schedules are byte-identical with or without fences); under tso/pso
/// it parks at a VarFence scheduling point and commits every buffered
/// store before continuing.
void fence();

} // namespace fsmc

#endif // FSMC_RUNTIME_RUNTIME_H
