//===- obs/Observer.h - Observability hub for one checker run --*- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Observer ties the observability pieces together for one checker
/// run: the sharded CounterRegistry, an optional EventSink for the
/// structured trace, and the knobs that gate the more expensive
/// instrumentation (per-transition events, step timing).
///
/// Attachment is a single pointer on CheckerOptions (`Opts.Obs`); the
/// checker never owns it. With no observer attached every hook in the
/// engine is one null-pointer test -- the ledger's untraced passes run the
/// disabled path (see docs/OBSERVABILITY.md for the measured overhead).
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_OBS_OBSERVER_H
#define FSMC_OBS_OBSERVER_H

#include "obs/Counters.h"
#include "obs/EventSink.h"

namespace fsmc {
namespace obs {

class Observer {
public:
  struct Config {
    /// Shards to allocate: worker ids are 1..Jobs in a parallel search,
    /// 0 for the serial explorer / driver. 65 covers Jobs up to the
    /// 64-thread ceiling.
    size_t MaxWorkers = 65;
    /// Destination for structured events; null = counters only.
    EventSink *Sink = nullptr;
    /// Emit one span per transition (the Perfetto fiber-switch view).
    /// Only meaningful with a sink; the dominant trace volume knob.
    bool TraceTransitions = true;
    /// Fill the scheduling-point latency histogram. Costs two clock
    /// reads per transition, so off by default.
    bool StepTiming = false;
    /// Fill the wall-time phase buckets (replay / execute / race-check /
    /// snapshot). Two clock reads per execution plus two per
    /// coverage-signature lookup, so off by default.
    bool PhaseTiming = false;
  };

  Observer() : Observer(Config()) {}
  explicit Observer(const Config &C) : Cfg(C), Reg(C.MaxWorkers) {}

  WorkerCounters &shard(unsigned Worker) { return Reg.shard(Worker); }
  CounterSnapshot snapshot() const { return Reg.snapshot(); }
  CounterSnapshot drain() { return Reg.drain(); }

  EventSink *sink() const { return Cfg.Sink; }
  bool traceTransitions() const { return Cfg.Sink && Cfg.TraceTransitions; }
  bool stepTiming() const { return Cfg.StepTiming; }
  bool phaseTiming() const { return Cfg.PhaseTiming; }

private:
  Config Cfg;
  CounterRegistry Reg;
};

} // namespace obs
} // namespace fsmc

#endif // FSMC_OBS_OBSERVER_H
