//===- obs/Counters.cpp ---------------------------------------------------===//

#include "obs/Counters.h"

#include "runtime/PendingOp.h"

#include <cstring>
#include <iterator>

using namespace fsmc;
using namespace fsmc::obs;

static_assert(size_t(OpKind::VarFence) < OpKindSlots,
              "OpKindSlots must cover every OpKind");

namespace {

struct CounterRow {
  const char *Name;
  CounterShow Show;
  CounterOwner Owner;
};

constexpr CounterRow CounterRows[] = {
#define FSMC_COUNTER_ROW(Id, Name, Show, Owner)                                \
  {Name, CounterShow::Show, CounterOwner::Owner},
    FSMC_COUNTERS(FSMC_COUNTER_ROW)
#undef FSMC_COUNTER_ROW
};

static_assert(std::size(CounterRows) == size_t(Counter::NumCounters));

} // namespace

const char *fsmc::obs::counterName(Counter C) {
  return C < Counter::NumCounters ? CounterRows[size_t(C)].Name : "?";
}

bool fsmc::obs::counterOmittedAtZero(Counter C) {
  return CounterRows[size_t(C)].Show == CounterShow::OmitAtZero;
}

bool fsmc::obs::counterCoordinatorOnly(Counter C) {
  return CounterRows[size_t(C)].Owner == CounterOwner::Coordinator;
}

const char *fsmc::obs::gaugeName(Gauge G) {
  switch (G) {
  case Gauge::WorkQueueDepth:
    return "workqueue_depth";
  case Gauge::MaxDepth:
    return "max_depth";
  case Gauge::ActiveWorkers:
    return "active_workers";
  case Gauge::NumGauges:
    break;
  }
  return "?";
}

const char *fsmc::obs::phaseName(Phase P) {
  switch (P) {
  case Phase::Replay:
    return "replay";
  case Phase::Execute:
    return "execute";
  case Phase::RaceCheck:
    return "race_check";
  case Phase::Snapshot:
    return "snapshot";
  case Phase::NumPhases:
    break;
  }
  return "?";
}

static uint64_t doubleBits(double D) {
  uint64_t B;
  std::memcpy(&B, &D, sizeof B);
  return B;
}

static double bitsDouble(uint64_t B) {
  double D;
  std::memcpy(&D, &B, sizeof D);
  return D;
}

void WorkerCounters::addEstimateMass(double M) {
  double Cur = bitsDouble(EstMassBits.load(std::memory_order_relaxed));
  EstMassBits.store(doubleBits(Cur + M), std::memory_order_relaxed);
}

void WorkerCounters::addLatencyNs(uint64_t Ns) {
  unsigned Bucket = 0;
  while (Bucket + 1 < LatencyBuckets && (uint64_t(1) << (Bucket + 1)) <= Ns)
    ++Bucket;
  auto &A = Latency[Bucket];
  A.store(A.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

/// Single-writer add, as WorkerCounters::add.
static void bump(std::atomic<uint64_t> &A, uint64_t N) {
  A.store(A.load(std::memory_order_relaxed) + N, std::memory_order_relaxed);
}

void WorkerCounters::addDelta(const CounterSnapshot &D) {
  for (size_t K = 0; K < size_t(Counter::NumCounters); ++K)
    if (!counterCoordinatorOnly(Counter(K)))
      bump(C[K], D.C[K]);
  for (size_t K = 0; K < OpKindSlots; ++K) {
    bump(Ops[K], D.Ops[K]);
    bump(Contended[K], D.Contended[K]);
  }
  for (size_t K = 0; K < LatencyBuckets; ++K)
    bump(Latency[K], D.Latency[K]);
  for (size_t K = 0; K < size_t(Phase::NumPhases); ++K)
    bump(PhaseNs[K], D.PhaseNs[K]);
  if (D.EstimateMass != 0)
    addEstimateMass(D.EstimateMass);
  maxGauge(Gauge::MaxDepth, D.gauge(Gauge::MaxDepth));
}

CounterRegistry::CounterRegistry(size_t MaxWorkers)
    : Shards(new WorkerCounters[MaxWorkers ? MaxWorkers : 1]),
      NumShards(MaxWorkers ? MaxWorkers : 1) {}

WorkerCounters &CounterRegistry::shard(unsigned Worker) {
  return Shards[Worker < NumShards ? Worker : NumShards - 1];
}

CounterSnapshot CounterRegistry::snapshot() const {
  CounterSnapshot S;
  for (size_t I = 0; I < NumShards; ++I) {
    const WorkerCounters &W = Shards[I];
    for (size_t K = 0; K < size_t(Counter::NumCounters); ++K)
      S.C[K] += W.C[K].load(std::memory_order_relaxed);
    for (size_t K = 0; K < OpKindSlots; ++K) {
      S.Ops[K] += W.Ops[K].load(std::memory_order_relaxed);
      S.Contended[K] += W.Contended[K].load(std::memory_order_relaxed);
    }
    for (size_t K = 0; K < LatencyBuckets; ++K)
      S.Latency[K] += W.Latency[K].load(std::memory_order_relaxed);
    for (size_t K = 0; K < size_t(Phase::NumPhases); ++K)
      S.PhaseNs[K] += W.PhaseNs[K].load(std::memory_order_relaxed);
    S.EstimateMass +=
        bitsDouble(W.EstMassBits.load(std::memory_order_relaxed));
    uint64_t Depth = W.G[size_t(Gauge::MaxDepth)].load(std::memory_order_relaxed);
    if (Depth > S.G[size_t(Gauge::MaxDepth)])
      S.G[size_t(Gauge::MaxDepth)] = Depth;
    S.G[size_t(Gauge::WorkQueueDepth)] +=
        W.G[size_t(Gauge::WorkQueueDepth)].load(std::memory_order_relaxed);
    S.G[size_t(Gauge::ActiveWorkers)] +=
        W.G[size_t(Gauge::ActiveWorkers)].load(std::memory_order_relaxed);
  }
  return S;
}

CounterSnapshot CounterRegistry::drain() {
  CounterSnapshot S = snapshot();
  auto Zero = [](auto &Array) {
    for (std::atomic<uint64_t> &A : Array)
      A.store(0, std::memory_order_relaxed);
  };
  for (size_t I = 0; I < NumShards; ++I) {
    WorkerCounters &W = Shards[I];
    Zero(W.C);
    Zero(W.G);
    Zero(W.Ops);
    Zero(W.Contended);
    Zero(W.Latency);
    Zero(W.PhaseNs);
    W.EstMassBits.store(0, std::memory_order_relaxed);
  }
  return S;
}
