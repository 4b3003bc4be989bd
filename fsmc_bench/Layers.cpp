//===- fsmc_bench/Layers.cpp - Seeded per-layer microbenches --------------===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "Ledger.h"

#include "core/Dependence.h"
#include "core/FairScheduler.h"
#include "core/Schedule.h"
#include "core/Wire.h"
#include "core/WorkStealDeque.h"
#include "race/RaceDetector.h"
#include "runtime/Fiber.h"
#include "runtime/StackPool.h"
#include "state/CoverageTracker.h"
#include "support/Xorshift.h"

#include <unistd.h>

using namespace fsmc;
using namespace fsmc::ledger;

namespace {

constexpr int Batches = 20;

/// Results are folded in here so the optimizer cannot drop the work.
volatile uint64_t Sink = 0;

/// Median nanoseconds per operation of \p Batch, which performs \p Ops
/// operations per call. One untimed call warms caches and pools first.
template <typename Fn> double medianNs(size_t Ops, Fn &&Batch) {
  Batch();
  std::vector<double> Ns;
  for (int I = 0; I < Batches; ++I) {
    auto T0 = Clock::now();
    Batch();
    Ns.push_back(secondsBetween(T0, Clock::now()) * 1e9 / double(Ops));
  }
  return summarize(Ns).Median;
}

ThreadSet randomSet(Xorshift &R, int Threads) {
  ThreadSet S;
  while (S.empty())
    for (Tid T = 0; T < Threads; ++T)
      if (R.nextBelow(2))
        S.insert(T);
  return S;
}

//===--- runtime -----------------------------------------------------------===//

struct PingPong {
  Fiber Host;
  Fiber Child;
};

void pingEntry(void *Arg) {
  auto *P = static_cast<PingPong *>(Arg);
  for (;;)
    Fiber::switchTo(P->Child, P->Host);
}

/// One switch, half of a host -> child -> host round trip.
double fiberSwitchNs() {
  constexpr size_t RoundTrips = 20000;
  PingPong P;
  P.Host.initAsHost();
  if (!P.Child.initWithEntry(Fiber::DefaultStackBytes, pingEntry, &P))
    return 0;
  return medianNs(2 * RoundTrips, [&P] {
    for (size_t I = 0; I < RoundTrips; ++I)
      Fiber::switchTo(P.Host, P.Child);
  });
}

/// One acquire plus release of a test-thread stack from a warm pool.
double stackCycleNs() {
  constexpr size_t Cycles = 100000;
  const size_t Bytes = Fiber::DefaultStackBytes + size_t(sysconf(_SC_PAGESIZE));
  StackPool Pool;
  return medianNs(Cycles, [&Pool, Bytes] {
    for (size_t I = 0; I < Cycles; ++I) {
      char *Base = Pool.acquire(Bytes);
      Sink = Sink + uintptr_t(Base);
      Pool.release(Base, Bytes);
    }
  });
}

//===--- core/FairScheduler -------------------------------------------------===//

struct Step {
  Tid T;
  ThreadSet Before;
  ThreadSet After;
  bool Yield;
};

/// A legal transition stream at \p Threads threads: every scheduled
/// thread is one the scheduler allowed, a quarter of the steps yield, and
/// the enabled set changes at random.
std::vector<Step> fairStream(uint64_t Seed, int Threads, size_t Len) {
  Xorshift R(Seed);
  FairScheduler FS;
  std::vector<Step> Out;
  ThreadSet ES = randomSet(R, Threads);
  for (size_t I = 0; I < Len; ++I) {
    ThreadSet Allowed = FS.allowed(ES);
    int Pick = R.nextBelow(Allowed.size());
    Tid T = 0;
    for (Tid U : Allowed)
      if (Pick-- == 0) {
        T = U;
        break;
      }
    Step S{T, ES, randomSet(R, Threads), R.nextBelow(4) == 0};
    FS.onTransition(S.T, S.Before, S.After, S.Yield);
    Out.push_back(S);
    ES = S.After;
  }
  return Out;
}

/// FairScheduler::allowed against the priority state reached halfway
/// through the stream.
double fairAllowedNs(const std::vector<Step> &Stream) {
  FairScheduler FS;
  for (size_t I = 0; I < Stream.size() / 2; ++I)
    FS.onTransition(Stream[I].T, Stream[I].Before, Stream[I].After,
                    Stream[I].Yield);
  constexpr int Reps = 16;
  return medianNs(Reps * Stream.size(), [&FS, &Stream] {
    uint64_t Acc = 0;
    for (int Rep = 0; Rep < Reps; ++Rep)
      for (const Step &S : Stream)
        Acc += FS.allowed(S.Before).rawBits();
    Sink = Sink + Acc;
  });
}

/// FairScheduler::onTransition replaying the stream from the initial
/// state.
double fairOnTransitionNs(const std::vector<Step> &Stream) {
  constexpr int Reps = 8;
  FairScheduler FS;
  return medianNs(Reps * Stream.size(), [&FS, &Stream] {
    for (int Rep = 0; Rep < Reps; ++Rep) {
      FS.reset();
      for (const Step &S : Stream)
        FS.onTransition(S.T, S.Before, S.After, S.Yield);
    }
    Sink = Sink + FS.edgeAdditions();
  });
}

//===--- core/Dependence ----------------------------------------------------===//

double porIndependentNs(uint64_t Seed) {
  Xorshift R(Seed);
  constexpr size_t Pairs = 4096;
  constexpr int Reps = 32;
  const int Kinds = int(OpKind::VarFence) + 1;
  std::vector<std::pair<Tid, PendingOp>> Ops;
  for (size_t I = 0; I < 2 * Pairs; ++I)
    Ops.push_back({Tid(R.nextBelow(4)),
                   makeOp(OpKind(R.nextBelow(Kinds)), R.nextBelow(8),
                          R.nextBelow(4))});
  return medianNs(Reps * Pairs, [&Ops] {
    uint64_t Acc = 0;
    for (int Rep = 0; Rep < Reps; ++Rep)
      for (size_t I = 0; I < Ops.size(); I += 2)
        Acc += independentTransitions(Ops[I].first, Ops[I].second,
                                      Ops[I + 1].first, Ops[I + 1].second);
    Sink = Sink + Acc;
  });
}

//===--- state --------------------------------------------------------------===//

/// CoverageTracker::record on a stream where every other signature is a
/// repeat, into a fresh tracker per batch (so table growth is included).
double stateRecordNs(uint64_t Seed) {
  Xorshift R(Seed);
  constexpr size_t Fresh = 16384;
  std::vector<uint64_t> Stream;
  for (size_t I = 0; I < Fresh; ++I) {
    Stream.push_back(R.next());
    Stream.push_back(Stream[2 * size_t(R.nextBelow(int(I) + 1))]);
  }
  return medianNs(Stream.size(), [&Stream] {
    CoverageTracker Cov;
    for (uint64_t Sig : Stream)
      Cov.record(Sig);
    Sink = Sink + Cov.hits();
  });
}

//===--- race ---------------------------------------------------------------===//

/// RaceDetector::onAccess over three threads and eight variables, with a
/// release/acquire pair through a lock every eighth access.
double raceOnAccessNs(uint64_t Seed) {
  Xorshift R(Seed);
  constexpr size_t Accesses = 8192;
  struct Access {
    Tid T;
    int Var;
    bool Write;
  };
  std::vector<Access> Stream;
  for (size_t I = 0; I < Accesses; ++I)
    Stream.push_back({Tid(R.nextBelow(3)), R.nextBelow(8), R.nextBelow(3) == 0});
  std::vector<std::string> Vars(8, "var"), Threads(3, "t");
  for (size_t I = 0; I < Vars.size(); ++I)
    Vars[I] += std::to_string(I);
  for (size_t I = 0; I < Threads.size(); ++I)
    Threads[I] += std::to_string(I);
  return medianNs(Accesses, [&] {
    RaceDetector D;
    D.onThreadStart(0);
    D.onSpawn(0, 1);
    D.onSpawn(0, 2);
    uint64_t Step = 0;
    for (const Access &A : Stream) {
      if (Step % 8 == 7) {
        D.onRelease(A.T, 100);
        D.onAcquire(Tid((A.T + 1) % 3), 100);
      }
      D.onAccess(A.T, A.Var, A.Write, Vars[size_t(A.Var)],
                 Threads[size_t(A.T)], Step++);
    }
    Sink = Sink + D.checks();
  });
}

//===--- core/Schedule ------------------------------------------------------===//

std::vector<ScheduleChoice> randomChoices(Xorshift &R, size_t N) {
  std::vector<ScheduleChoice> C(N);
  for (ScheduleChoice &X : C) {
    X.Num = 2 + R.nextBelow(3);
    X.Chosen = R.nextBelow(X.Num);
    X.Backtrack = R.nextBelow(10) != 0;
  }
  return C;
}

/// Per choice, over 64 schedules of 64 choices.
std::pair<double, double> scheduleCodecNs(uint64_t Seed) {
  Xorshift R(Seed);
  constexpr size_t Count = 64, Len = 64;
  std::vector<std::vector<ScheduleChoice>> Schedules;
  std::vector<std::string> Texts;
  for (size_t I = 0; I < Count; ++I) {
    Schedules.push_back(randomChoices(R, Len));
    Texts.push_back(encodeSchedule(Schedules.back()));
  }
  double Encode = medianNs(Count * Len, [&Schedules] {
    size_t Acc = 0;
    for (const auto &S : Schedules)
      Acc += encodeSchedule(S).size();
    Sink = Sink + Acc;
  });
  std::vector<ScheduleChoice> Out;
  double Decode = medianNs(Count * Len, [&Texts, &Out] {
    size_t Acc = 0;
    for (const std::string &T : Texts)
      Acc += decodeSchedule(T, Out) ? Out.size() : 0;
    Sink = Sink + Acc;
  });
  return {Encode, Decode};
}

//===--- core/ParallelExplorer + WorkStealDeque -----------------------------===//

WorkItem prefixItem(Xorshift &R) { return WorkItem{randomChoices(R, 8)}; }

/// Owner pushBottom + popBottom of one eight-choice prefix.
double dequePushPopNs(uint64_t Seed) {
  Xorshift R(Seed);
  constexpr size_t Ops = 50000;
  WorkStealDeque D;
  WorkItem Item = prefixItem(R);
  return medianNs(Ops, [&D, &Item] {
    for (size_t I = 0; I < Ops; ++I) {
      D.pushBottom(std::move(Item));
      Item = std::move(*D.popBottom());
    }
    Sink = Sink + Item.Prefix.size();
  });
}

/// One stealTop call, amortizing the publishTop that refills the deque
/// with 16 prefixes; steal-half empties it in five calls.
double dequeStealHalfNs(uint64_t Seed) {
  Xorshift R(Seed);
  constexpr size_t Cycles = 5000, Width = 16, StealsPerCycle = 5;
  WorkStealDeque D;
  std::vector<WorkItem> Items, Stolen;
  for (size_t I = 0; I < Width; ++I)
    Items.push_back(prefixItem(R));
  return medianNs(Cycles * StealsPerCycle, [&] {
    for (size_t I = 0; I < Cycles; ++I) {
      D.publishTop(std::move(Items));
      Items.clear();
      while (D.stealTop(Stolen))
        ;
      Items.swap(Stolen);
    }
    Sink = Sink + Items.size();
  });
}

//===--- core/Fleet + Wire --------------------------------------------------===//

/// WireWriter -> writeRecord over a pipe -> read -> FrameParser, with a
/// unit-done-sized payload (stats plus a 16-choice remainder).
double wireRoundTripNs(uint64_t Seed) {
  int Fds[2];
  if (::pipe(Fds) != 0)
    return 0;
  Xorshift R(Seed);
  std::vector<ScheduleChoice> Choices = randomChoices(R, 16);
  SearchStats Stats;
  Stats.Executions = R.next() % 100000;
  constexpr size_t Trips = 2000;
  std::vector<char> Buf(64 * 1024);
  wire::FrameParser Parser;
  double Ns = medianNs(Trips, [&] {
    uint64_t Acc = 0;
    for (size_t I = 0; I < Trips; ++I) {
      wire::WireWriter W;
      W.stats(Stats);
      W.choices(Choices);
      if (!wire::writeRecord(Fds[1], 1, W))
        return;
      bool Got = false;
      while (!Got) {
        ssize_t N = ::read(Fds[0], Buf.data(), Buf.size());
        if (N <= 0)
          return;
        Parser.feed(Buf.data(), size_t(N),
                    [&](uint8_t, wire::WireReader Rd) {
                      Acc += Rd.stats().Executions + Rd.choices().size();
                      Got = true;
                    });
      }
    }
    Sink = Sink + Acc;
  });
  ::close(Fds[0]);
  ::close(Fds[1]);
  return Ns;
}

} // namespace

std::vector<std::pair<std::string, double>>
ledger::runLayerMicros(uint64_t Seed) {
  std::vector<std::pair<std::string, double>> Out;
  Out.push_back({"runtime.fiber_switch_ns", fiberSwitchNs()});
  Out.push_back({"runtime.stack_cycle_ns", stackCycleNs()});
  for (int Threads : {3, 14}) {
    std::vector<Step> Stream = fairStream(Seed + Threads, Threads, 4096);
    std::string Suffix = ".t" + std::to_string(Threads);
    Out.push_back({"fair.allowed_ns" + Suffix, fairAllowedNs(Stream)});
    Out.push_back({"fair.on_transition_ns" + Suffix, fairOnTransitionNs(Stream)});
  }
  Out.push_back({"por.independent_ns", porIndependentNs(Seed)});
  Out.push_back({"state.record_ns", stateRecordNs(Seed)});
  Out.push_back({"race.on_access_ns", raceOnAccessNs(Seed)});
  auto [Encode, Decode] = scheduleCodecNs(Seed);
  Out.push_back({"schedule.encode_ns", Encode});
  Out.push_back({"schedule.decode_ns", Decode});
  Out.push_back({"deque.push_pop_ns", dequePushPopNs(Seed)});
  Out.push_back({"deque.steal_half_ns", dequeStealHalfNs(Seed)});
  Out.push_back({"wire.record_roundtrip_ns", wireRoundTripNs(Seed)});
  return Out;
}
