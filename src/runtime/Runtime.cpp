//===- runtime/Runtime.cpp ------------------------------------------------===//

#include "runtime/Runtime.h"

#include "obs/Counters.h"
#include "race/RaceDetector.h"
#include "runtime/UnwindScan.h"
#include "support/Hashing.h"

#include <cassert>

using namespace fsmc;

ChoiceSource::~ChoiceSource() = default;

namespace {
/// The runtime of the execution currently running on this OS thread. All
/// fibers of one execution share the host OS thread, so one pointer per
/// OS thread suffices; it is set for the duration of step(). thread_local
/// (not a plain global) so parallel workers can each drive a private
/// Runtime concurrently.
thread_local Runtime *CurrentRuntime = nullptr;

/// Thrown on the switch-back path of a thread that unwindUnfinished()
/// resumes, and caught in threadEntry once the stack is unwound.
struct ThreadCancel {};
} // namespace

namespace {
/// One entry of a thread's FIFO store buffer (--memory=tso|pso): a store
/// whose effect on memory is deferred until a flush agent, a fence, or a
/// fencing sync operation commits it.
struct BufferedStore {
  int ObjectId = -1;
  int64_t Value = 0;
  /// Writes Value into the variable behind Obj; supplied by the sync
  /// primitive that enqueued the store (it knows the variable's type).
  void (*Commit)(void *, int64_t) = nullptr;
  void *Obj = nullptr;
  /// Race-checked PlainVar store: its race-detector write access is
  /// registered at commit time, when the store becomes visible.
  bool Plain = false;
  /// SyncOps at enqueue, used only for race-report step numbering.
  uint64_t Step = 0;
};
} // namespace

struct Runtime::ThreadState {
  Tid Id = -1;
  std::string Name;
  Fiber F;
  std::function<void()> Body;
  PendingOp Pending;
  bool Started = false; ///< Its fiber has entered threadEntry.
  bool FinishedFlag = false;
  uint64_t Annotation = 0;
  Runtime *RT = nullptr;
  /// FIFO store buffer, oldest entry first. Always empty under
  /// --memory=sc and whenever the thread is finished (exit drains).
  std::vector<BufferedStore> Buffer;
  /// Pending op of this thread's flush agent while Buffer is non-empty;
  /// kept current by refreshFlushPending so pendingOf(FlushBase + Id)
  /// returns a stable reference.
  PendingOp FlushPending;
};

Runtime::Runtime(ChoiceSource &Choices) : Runtime(Choices, Options()) {}

Runtime::Runtime(ChoiceSource &Choices, Options Opts)
    : Choices(Choices), Opts(Opts) {
  Controller.initAsHost();
}

Runtime::~Runtime() { unwindUnfinished(); }

Runtime &Runtime::current() {
  assert(CurrentRuntime && "no execution in progress");
  return *CurrentRuntime;
}

void Runtime::threadEntry(void *Arg) {
  auto *TS = static_cast<ThreadState *>(Arg);
  Runtime &RT = *TS->RT;
  TS->Started = true;
  // The first transition of a thread begins here (its ThreadStart op).
  try {
    TS->Body();
  } catch (const ThreadCancel &) {
  }
  // Leave the handler before switching: the exception must be released
  // on this stack, not left in the OS thread's caught-exception chain.
  if (RT.Cancelling)
    RT.abandonThread(*TS);
  TS->Body = nullptr;
  RT.exitThread(*TS);
}

void Runtime::exitThread(ThreadState &TS) {
  // A real processor's buffer drains before the thread's context dies;
  // modeling that here also keeps the invariant that flush agents only
  // ever belong to live threads.
  if (Opts.Memory != MemoryModel::Sc)
    drainBuffer(TS.Id);
  TS.FinishedFlag = true;
  Live.erase(TS.Id);
  // The extractor reads locals of its registering thread; those are gone
  // now, so stop calling it.
  if (ExtractorOwner == TS.Id)
    StateExtractor = nullptr;
  switchToController(TS);
  assert(false && "finished thread was rescheduled");
  __builtin_unreachable();
}

void Runtime::switchToController(ThreadState &TS) {
  ++ControllerEntries;
  InController = true;
  Fiber::switchTo(TS.F, Controller);
  // Execution resumes here when the scheduler picks this thread again,
  // or when unwindUnfinished() cuts it.
  InController = false;
  if (Cancelling) [[unlikely]]
    cancelParked(TS);
}

void Runtime::cancelParked(ThreadState &TS) {
  // Throw only if the exception reaches threadEntry's handler and has
  // destructors to run on its way. A noexcept frame would terminate the
  // process (~lock_guard<Mutex> parked at its unlock, a check failing in
  // a destructor), and a catch clause could swallow it: such a thread
  // keeps its stack, as every cut thread once did.
  if (scanUnwindPath(__builtin_dwarf_cfa(),
                     reinterpret_cast<const void *>(&threadEntry)) !=
      UnwindPath::Cleanups)
    abandonThread(TS);
  throw ThreadCancel();
}

void Runtime::abandonThread(ThreadState &TS) {
  // unwindUnfinished() never resumes this fiber; the next thread to claim
  // the slot reinitializes it in place.
  Fiber::switchTo(TS.F, Controller);
  __builtin_unreachable();
}

void Runtime::unwindUnfinished() {
  Runtime *PrevRuntime = CurrentRuntime;
  CurrentRuntime = this;
  Cancelling = true;
  // The cut execution is over: nothing its unwinding does may reach the
  // race detector or the counters. Opts is replaced (reset) or dies
  // (~Runtime) right after.
  Opts.Race = nullptr;
  Opts.Ctr = nullptr;
  // Latest thread first: a child's stack may refer to objects on its
  // parent's (the dining table, a thread vector), rarely the reverse.
  for (size_t I = NumThreads; I-- > 0;) {
    ThreadState &TS = *Threads[I];
    if (!TS.Started || TS.FinishedFlag)
      continue;
    CurTid = Tid(I);
    InController = false;
    Fiber::switchTo(Controller, TS.F);
  }
  Cancelling = false;
  InController = true;
  CurTid = -1;
  CurrentRuntime = PrevRuntime;
}

Runtime::ThreadState &Runtime::claimThreadSlot(Tid Id) {
  if (size_t(Id) == Threads.size())
    Threads.push_back(std::make_unique<ThreadState>());
  // Else: a recycled record from before the last reset(). Its fiber keeps
  // its stack mapping; initWithEntry below reuses it in place.
  ThreadState &TS = *Threads[Id];
  TS.Id = Id;
  TS.RT = this;
  TS.Started = false;
  TS.FinishedFlag = false;
  TS.Annotation = 0;
  TS.Pending = makeOp(OpKind::ThreadStart);
  TS.Buffer.clear(); // Keeps capacity across reset(), like the strings.
  TS.FlushPending = makeOp(OpKind::VarFlush, -1, Id);
  ++NumThreads;
  return TS;
}

Tid Runtime::spawn(std::function<void()> Body, std::string Name) {
  assert(!InController && "spawn must be called from a test thread");
  Tid Id = Tid(NumThreads);
  // Under weak memory the upper half of the tid space belongs to the
  // flush agents, so real threads cap at FlushBase.
  if (Opts.Memory != MemoryModel::Sc && Id >= FlushBase)
    fail("thread limit exceeded (32 under --memory=tso|pso)");
  if (Id >= MaxThreads)
    fail("thread limit exceeded (MaxThreads = 64)");
  // Spawning is a release: the parent's writes happen-before the child's
  // first transition, so its buffered stores must be visible by then.
  if (Opts.Memory != MemoryModel::Sc)
    drainBuffer(CurTid);
  ThreadState &TS = claimThreadSlot(Id);
  TS.Name = Name.empty() ? ("t" + std::to_string(Id)) : std::move(Name);
  TS.Body = std::move(Body);
  if (!TS.F.initWithEntry(Opts.StackBytes, &Runtime::threadEntry, &TS,
                          Opts.Pool))
    fail("fiber stack allocation failed");
  Live.insert(Id);
  if (Opts.Race)
    Opts.Race->onSpawn(CurTid, Id);
  return Id;
}

void Runtime::start(std::function<void()> MainBody, std::string Name) {
  assert(NumThreads == 0 && "start() called twice");
  assert(InController && "start must be called from the controller");
  Tid Id = 0;
  ThreadState &TS = claimThreadSlot(Id);
  TS.Name = std::move(Name);
  TS.Body = std::move(MainBody);
  bool OK = TS.F.initWithEntry(Opts.StackBytes, &Runtime::threadEntry, &TS,
                               Opts.Pool);
  assert(OK && "fiber stack allocation failed for main thread");
  (void)OK;
  Live.insert(Id);
  if (Opts.Race)
    Opts.Race->onThreadStart(Id);
}

void Runtime::reset(const Options &NewOpts) {
  assert(InController && "reset must be called from the controller");
  // Before Opts changes: the bodies still run under the old options.
  unwindUnfinished();
  Opts = NewOpts;
  // Recycled records keep their fiber (and stack mapping) and their
  // string capacity; everything execution-specific is re-armed by
  // claimThreadSlot when the slot is claimed again.
  for (size_t I = 0; I < NumThreads; ++I)
    Threads[I]->Body = nullptr;
  NumThreads = 0;
  ObjectNames.clear();
  Live.clear();
  CurTid = -1;
  Failed = false;
  FailureBy = -1;
  FailureMsg.clear();
  SyncOps = 0;
  BufferedStores = 0;
  StoreFlushes = 0;
  ControllerEntries = 0;
  FlushNames.clear();
  InController = true;
  StateExtractor = nullptr;
  ExtractorOwner = -1;
}

void Runtime::schedulePoint(const PendingOp &Op) {
  assert(!InController && "schedulePoint must be called from a test thread");
  // A destructor the unwinding of a cut thread runs: the operation is
  // void, like the execution it belongs to.
  if (Cancelling) [[unlikely]]
    return;
  ThreadState &TS = *Threads[CurTid];
  TS.Pending = Op;
  if (Opts.CountOps)
    ++SyncOps;
  if (Opts.Ctr)
    Opts.Ctr->add(obs::Counter::SchedulePoints);
  if (!continueInPlace(TS))
    switchToController(TS);
  // The scheduler picked this thread; its visible operation is about to
  // take effect. Fencing operations (docs/MEMORY.md) drain the store
  // buffer first, so e.g. a mutex acquire never completes with the
  // acquirer's own stores still pending.
  if (Opts.Memory != MemoryModel::Sc && isFencingKind(TS.Pending.Kind))
    drainBuffer(TS.Id);
  assert(TS.Pending.isEnabled() &&
         "scheduler resumed a thread whose pending op is disabled");
}

bool Runtime::continueInPlace(ThreadState &TS) {
  while (true) {
    Tid Next = Choices.onParked();
    if (Next == TS.Id)
      return true;
    if (Next < 0 || !isFlushAgent(Next))
      return false;
    // Same as step() on an agent: one commit, nothing else runs.
    flushStep(Next - FlushBase);
  }
}

int Runtime::chooseInt(int N) {
  // A nonpositive alternative count is a workload bug; report it through
  // the same path as fail() so release builds get a diagnosed safety
  // violation instead of undefined behaviour.
  if (N <= 0)
    fail("chooseInt(" + std::to_string(N) +
         "): the number of alternatives must be positive");
  if (N == 1)
    return 0;
  if (Cancelling) [[unlikely]]
    return 0;
  return Choices.chooseInt(N);
}

void Runtime::annotate(uint64_t Value) {
  assert(!InController && "annotate must be called from a test thread");
  Threads[CurTid]->Annotation = Value;
}

Tid Runtime::self() const {
  assert(!InController && "self() must be called from a test thread");
  return CurTid;
}

void Runtime::fail(std::string Message) {
  assert(!InController && "fail must be called from a test thread");
  Failed = true;
  FailureBy = CurTid;
  FailureMsg = std::move(Message);
  ThreadState &TS = *Threads[CurTid];
  switchToController(TS);
  assert(false && "failed thread was rescheduled");
  __builtin_unreachable();
}

int Runtime::newObjectId(std::string Name) {
  ObjectNames.push_back(std::move(Name));
  return int(ObjectNames.size()) - 1;
}

void Runtime::noteContended(OpKind Kind) {
  if (!Opts.Ctr)
    return;
  Opts.Ctr->add(obs::Counter::SyncContention);
  Opts.Ctr->addContended(unsigned(Kind));
}

void Runtime::raceAcquire(int Obj) {
  if (Opts.Race)
    Opts.Race->onAcquire(CurTid, Obj);
}

void Runtime::raceRelease(int Obj) {
  if (Opts.Race)
    Opts.Race->onRelease(CurTid, Obj);
}

void Runtime::raceJoin(Tid Target) {
  if (Opts.Race)
    Opts.Race->onJoin(CurTid, Target);
}

void Runtime::raceLoad(int Var) {
  if (!Opts.Race)
    return;
  if (Opts.Memory != MemoryModel::Sc) {
    // A plain load racing with a *still-buffered* plain store is always a
    // genuine data race: any happens-before edge from the storer into
    // this load either came from a fencing operation (which would have
    // drained the entry) or from an atomic store whose release is
    // deferred to its commit -- and FIFO order commits entries enqueued
    // before it first. So no edge can cover a store that is still in the
    // buffer; report it immediately with the weak-memory tag.
    for (Tid U : Live) {
      if (U == CurTid)
        continue;
      for (const BufferedStore &E : Threads[U]->Buffer)
        if (E.Plain && E.ObjectId == Var) {
          Opts.Race->onBufferedHazard(CurTid, Threads[CurTid]->Name,
                                      SyncOps, U, Threads[U]->Name, E.Step,
                                      Var, objectName(Var));
          break;
        }
    }
  }
  Opts.Race->onAccess(CurTid, Var, /*IsWrite=*/false, objectName(Var),
                      Threads[CurTid]->Name, SyncOps);
}

void Runtime::raceStore(int Var) {
  if (Opts.Race)
    Opts.Race->onAccess(CurTid, Var, /*IsWrite=*/true, objectName(Var),
                        Threads[CurTid]->Name, SyncOps);
}

void Runtime::bufferStore(int Var, int64_t Value,
                          void (*Commit)(void *, int64_t), void *Obj,
                          bool Plain) {
  assert(!InController && "bufferStore must be called from a test thread");
  assert(Opts.Memory != MemoryModel::Sc && "store buffered under sc");
  ThreadState &TS = *Threads[CurTid];
  TS.Buffer.push_back({Var, Value, Commit, Obj, Plain, SyncOps});
  ++BufferedStores;
  if (Opts.Ctr)
    Opts.Ctr->add(obs::Counter::BufferedStores);
  refreshFlushPending(CurTid);
}

bool Runtime::forwardedLoad(int Var, int64_t &Out) const {
  assert(!InController && "forwardedLoad must be called from a test thread");
  const ThreadState &TS = *Threads[CurTid];
  // Newest entry wins: the thread sees its own latest store.
  for (auto It = TS.Buffer.rbegin(); It != TS.Buffer.rend(); ++It)
    if (It->ObjectId == Var) {
      Out = It->Value;
      return true;
    }
  return false;
}

void Runtime::commitEntryAt(Tid Owner, size_t Index) {
  ThreadState &TS = *Threads[Owner];
  assert(Index < TS.Buffer.size() && "committing past the buffer");
  const BufferedStore E = TS.Buffer[Index];
  TS.Buffer.erase(TS.Buffer.begin() + Index);
  E.Commit(E.Obj, E.Value);
  ++StoreFlushes;
  if (Opts.Ctr)
    Opts.Ctr->add(obs::Counter::StoreFlushes);
  if (Opts.Race) {
    // The store becomes visible now, so this is where its race-detector
    // event belongs: the write access of a plain store, the release edge
    // of an atomic one. Deferring the release is what lets the detector
    // see that synchronizing through a still-buffered atomic store does
    // not order the storer's earlier plain writes (docs/MEMORY.md).
    if (E.Plain)
      Opts.Race->onAccess(Owner, E.ObjectId, /*IsWrite=*/true,
                          objectName(E.ObjectId), TS.Name, E.Step);
    else
      Opts.Race->onRelease(Owner, E.ObjectId);
  }
  refreshFlushPending(Owner);
}

void Runtime::drainBuffer(Tid T) {
  ThreadState &TS = *Threads[T];
  while (!TS.Buffer.empty())
    commitEntryAt(T, 0);
}

void Runtime::flushStep(Tid Owner) {
  assert(Opts.Memory != MemoryModel::Sc && "flush step under --memory=sc");
  ThreadState &TS = *Threads[Owner];
  assert(!TS.Buffer.empty() && "flush agent stepped with an empty buffer");
  if (Opts.Memory == MemoryModel::Tso) {
    commitEntryAt(Owner, 0); // TSO: strictly FIFO.
    return;
  }
  // PSO relaxes inter-variable order: a data choice picks which buffered
  // variable commits next (within one variable, FIFO still holds). The
  // choice lands on the explorer's stack like any chooseInt, so replay
  // and backtracking round-trip it. Distinct variables are enumerated in
  // first-occurrence order to keep the numbering deterministic.
  auto IsFirstOccurrence = [&](size_t I) {
    for (size_t J = 0; J < I; ++J)
      if (TS.Buffer[J].ObjectId == TS.Buffer[I].ObjectId)
        return false;
    return true;
  };
  int K = 0;
  for (size_t I = 0; I < TS.Buffer.size(); ++I)
    if (IsFirstOccurrence(I))
      ++K;
  int Pick = K == 1 ? 0 : Choices.chooseInt(K);
  int Nth = -1;
  for (size_t I = 0; I < TS.Buffer.size(); ++I)
    if (IsFirstOccurrence(I) && ++Nth == Pick) {
      commitEntryAt(Owner, I);
      return;
    }
  assert(false && "PSO flush choice out of range");
}

void Runtime::refreshFlushPending(Tid T) {
  ThreadState &TS = *Threads[T];
  if (TS.Buffer.empty())
    return; // Agent leaves the enabled set; its op is never consulted.
  // Under TSO only the front entry can commit, so the agent's op carries
  // its precise variable for the dependence oracle. A PSO flush may pick
  // any buffered variable: a single distinct id stays precise, several
  // collapse to -1 (aliases every object -- conservatively dependent).
  int Obj = TS.Buffer.front().ObjectId;
  if (Opts.Memory == MemoryModel::Pso)
    for (const BufferedStore &E : TS.Buffer)
      if (E.ObjectId != Obj) {
        Obj = -1;
        break;
      }
  TS.FlushPending = makeOp(OpKind::VarFlush, Obj, /*Aux=*/T);
}

void Runtime::setStateExtractor(std::function<uint64_t()> Fn) {
  assert(!InController && "extractors are registered by test threads");
  StateExtractor = std::move(Fn);
  ExtractorOwner = CurTid;
}

uint64_t Runtime::stateSignature() const {
  WordHasher H;
  H.addU64(StateExtractor ? StateExtractor() : 0);
  for (size_t I = 0; I < NumThreads; ++I) {
    const auto &TS = Threads[I];
    if (TS->FinishedFlag) {
      // Bits above 40 are never set in a packed op word below.
      H.addU64(0xf1f1f1f1f1f1f1f1ULL);
      continue;
    }
    H.addU64(uint64_t(TS->Pending.Kind) << 32 |
             uint32_t(TS->Pending.ObjectId));
    H.addU64(uint64_t(TS->Pending.Aux));
    H.addU64(TS->Annotation);
    // Buffer contents are program state under weak memory: two points
    // that differ only in pending stores must not collapse to one
    // signature. Gated so sc searches do not pay for the empty buffers.
    if (Opts.Memory != MemoryModel::Sc) {
      H.addU64(TS->Buffer.size());
      for (const BufferedStore &E : TS->Buffer) {
        H.addU64(uint64_t(E.ObjectId) + 1);
        H.addU64(uint64_t(E.Value));
      }
    }
  }
  return H.digest();
}

ThreadSet Runtime::enabledSet() const {
  ThreadSet ES;
  for (Tid T : Live) {
    if (Threads[T]->Pending.isEnabled())
      ES.insert(T);
    // A thread's flush agent is enabled exactly while the buffer holds
    // stores -- even if the thread itself is blocked (a parked thread's
    // buffer still drains in real hardware). Note flush agents are never
    // in liveSet(): they have no fiber and never finish, they just fall
    // out of the enabled set when the buffer empties.
    if (Opts.Memory != MemoryModel::Sc && !Threads[T]->Buffer.empty())
      ES.insert(FlushBase + T);
  }
  return ES;
}

const PendingOp &Runtime::pendingOf(Tid T) const {
  if (isFlushAgent(T)) {
    const ThreadState &TS = *Threads[T - FlushBase];
    assert(!TS.Buffer.empty() && "pendingOf on an idle flush agent");
    return TS.FlushPending;
  }
  assert(Live.contains(T) && "pendingOf on a non-live thread");
  return Threads[T]->Pending;
}

bool Runtime::yieldPending(Tid T) const {
  return Live.contains(T) && Threads[T]->Pending.isYield();
}

StepStatus Runtime::step(Tid T) {
  assert(InController && "step must be called from the controller");
  if (isFlushAgent(T)) {
    // Flush transitions run wherever the scheduler is: no fiber switch,
    // no invisible code -- one buffered store commits, and the agent
    // "parks" again (or leaves the enabled set if the buffer emptied).
    // continueInPlace runs them the same way on a thread's stack.
    flushStep(T - FlushBase);
    return StepStatus::Parked;
  }
  assert(Live.contains(T) && "stepping a non-live thread");
  assert(Threads[T]->Pending.isEnabled() && "stepping a disabled thread");
  assert(!Failed && "stepping after a failure");
#ifndef NDEBUG
  // A fiber's saved context lives on its stack, and the controller's on
  // the stack of the OS thread that first stepped it; migrating a Runtime
  // across OS threads mid-execution would switch onto a foreign stack.
  // Each Runtime has exactly one owning OS thread for its whole lifetime.
  if (OwnerThread == std::thread::id())
    OwnerThread = std::this_thread::get_id();
  assert(OwnerThread == std::this_thread::get_id() &&
         "Runtime stepped from a second OS thread");
#endif

  Runtime *PrevRuntime = CurrentRuntime;
  CurrentRuntime = this;
  CurTid = T;
  InController = false;
  Fiber::switchTo(Controller, Threads[T]->F);
  // Back in the controller: the thread parked, finished, or failed.
  CurTid = -1;
  CurrentRuntime = PrevRuntime;

  if (Failed)
    return StepStatus::Failed;
  if (Threads[T]->FinishedFlag)
    return StepStatus::Finished;
  return StepStatus::Parked;
}

bool Runtime::isFinished(Tid T) const {
  if (isFlushAgent(T)) {
    assert(size_t(T - FlushBase) < NumThreads && "unknown flush agent");
    return Threads[T - FlushBase]->Buffer.empty();
  }
  assert(T >= 0 && size_t(T) < NumThreads && "unknown thread");
  return Threads[T]->FinishedFlag;
}

const std::string &Runtime::threadName(Tid T) const {
  if (isFlushAgent(T)) {
    Tid Owner = T - FlushBase;
    assert(size_t(Owner) < NumThreads && "unknown flush agent");
    if (size_t(Owner) >= FlushNames.size())
      FlushNames.resize(NumThreads);
    if (FlushNames[Owner].empty())
      FlushNames[Owner] = "sb(" + Threads[Owner]->Name + ")";
    return FlushNames[Owner];
  }
  assert(T >= 0 && size_t(T) < NumThreads && "unknown thread");
  return Threads[T]->Name;
}

uint64_t Runtime::annotationOf(Tid T) const {
  if (isFlushAgent(T))
    return 0; // Agents carry no program counter of their own.
  assert(T >= 0 && size_t(T) < NumThreads && "unknown thread");
  return Threads[T]->Annotation;
}

const std::string &Runtime::objectName(int Id) const {
  static const std::string None = "<none>";
  if (Id < 0 || Id >= int(ObjectNames.size()))
    return None;
  return ObjectNames[Id];
}

void fsmc::checkThat(bool Cond, const char *Msg) {
  if (!Cond)
    Runtime::current().fail(Msg);
}

void fsmc::fence() {
  Runtime &RT = Runtime::current();
  // Under sc a fence is a *complete* no-op -- no scheduling point is
  // published, so schedules with and without fences are byte-identical.
  if (RT.memory() == MemoryModel::Sc)
    return;
  // VarFence is a fencing kind; schedulePoint's drain-at-resume commits
  // the whole buffer before this returns.
  RT.schedulePoint(makeOp(OpKind::VarFence));
}
