//===- obs/ProgressReporter.cpp -------------------------------------------===//

#include "obs/ProgressReporter.h"

#include "obs/Observer.h"
#include "support/OutStream.h"

#include <chrono>
#include <cmath>
#include <cstdio>

using namespace fsmc;
using namespace fsmc::obs;

namespace {

/// 1234567 -> "1.2M": keeps the one-line format one line.
std::string compactCount(uint64_t V) {
  char Buf[32];
  if (V >= 10'000'000'000ULL)
    std::snprintf(Buf, sizeof(Buf), "%.1fG", double(V) / 1e9);
  else if (V >= 10'000'000ULL)
    std::snprintf(Buf, sizeof(Buf), "%.1fM", double(V) / 1e6);
  else if (V >= 100'000ULL)
    std::snprintf(Buf, sizeof(Buf), "%.1fk", double(V) / 1e3);
  else
    std::snprintf(Buf, sizeof(Buf), "%llu", (unsigned long long)V);
  return Buf;
}

} // namespace

ProgressReporter::ProgressReporter(const Observer &Obs, const Config &Cfg,
                                   OutStream &OS)
    : Obs(Obs), Cfg(Cfg), OS(OS), Start(std::chrono::steady_clock::now()) {
  if (this->Cfg.IntervalSeconds <= 0)
    this->Cfg.IntervalSeconds = 1.0;
  Th = std::thread([this] { run(); });
}

ProgressReporter::~ProgressReporter() { stop(); }

void ProgressReporter::stop() {
  {
    std::lock_guard<std::mutex> Lock(M);
    if (Stopping && !Th.joinable())
      return;
    Stopping = true;
  }
  CV.notify_all();
  if (Th.joinable())
    Th.join();
}

std::string obs::formatProgressLine(const ProgressReporter::Config &Cfg,
                                    const CounterSnapshot &S,
                                    double ElapsedSeconds, double ExecRate) {
  uint64_t Execs = S.counter(Counter::Executions);
  uint64_t Trans = S.counter(Counter::Transitions);
  // Two rates: the delta rate of the last window (spiky, shows stalls)
  // and the cumulative average since the search began (what stats-json's
  // timing block reports as execs_per_sec); elapsed_ms gives tooling a
  // number to scrape without parsing "12.0s".
  double AvgRate = ElapsedSeconds > 0 ? double(Execs) / ElapsedSeconds : 0;
  char Head[192];
  std::snprintf(Head, sizeof(Head),
                "[fsmc %.1fs] elapsed_ms=%.0f exec=%s (%.0f/s, avg %.0f/s) "
                "trans=%s",
                ElapsedSeconds, ElapsedSeconds * 1000.0,
                compactCount(Execs).c_str(), ExecRate, AvgRate,
                compactCount(Trans).c_str());
  std::string Line = Head;
  Line += " depth=" + std::to_string(S.gauge(Gauge::MaxDepth));
  Line += " edges=" + compactCount(S.counter(Counter::FairEdgeAdds));
  // The stateless method's tax: the share of transitions spent replaying
  // recorded prefixes. Shown only once there is replay, so searches that
  // never replay keep the historical line shape.
  if (uint64_t Replay = S.counter(Counter::ReplaySteps); Replay && Trans) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), " replay=%.0f%%",
                  100.0 * double(Replay) / double(Trans));
    Line += Buf;
  }
  // POR activity, shown only when the reduction is doing work so the
  // non-POR progress line keeps its historical shape.
  uint64_t PorHits = S.counter(Counter::PorSleepHits);
  uint64_t PorPruned = S.counter(Counter::PorBranchesPruned);
  if (PorHits || PorPruned) {
    Line += " por_hits=" + compactCount(PorHits);
    Line += " por_pruned=" + compactCount(PorPruned);
  }
  // Fleet recovery activity, shown only once the supervisor has actually
  // had to intervene (crash, re-issue, respawn or quarantine); healthy
  // fleet runs and non-fleet runs keep the historical line shape.
  uint64_t FleetCrashes = S.counter(Counter::FleetWorkerCrashes);
  uint64_t FleetReissues = S.counter(Counter::FleetReissues);
  uint64_t FleetRespawns = S.counter(Counter::FleetRespawns);
  uint64_t FleetQuarantined = S.counter(Counter::FleetQuarantined);
  if (FleetCrashes || FleetReissues || FleetRespawns || FleetQuarantined) {
    Line += " fleet_crashes=" + compactCount(FleetCrashes);
    Line += " fleet_reissues=" + compactCount(FleetReissues);
    if (FleetRespawns)
      Line += " fleet_respawns=" + compactCount(FleetRespawns);
    if (FleetQuarantined)
      Line += " fleet_quarantined=" + compactCount(FleetQuarantined);
  }
  if (Cfg.Jobs > 1) {
    Line += " queue=" + std::to_string(S.gauge(Gauge::WorkQueueDepth));
    Line += " workers=" + std::to_string(S.gauge(Gauge::ActiveWorkers)) +
            "/" + std::to_string(Cfg.Jobs);
  }
  // ETA against whichever budget binds first; execution-cap ETA needs a
  // rate to extrapolate with. When a budget or cap exists but there is no
  // usable rate yet (first tick, stalled search), or the arithmetic lands
  // on inf/nan (e.g. a denormal rate), print `eta=?` rather than `eta=inf`
  // -- scrapers key on the field being numeric-or-'?'.
  double Eta = -1;
  bool WantEta = Cfg.TimeBudgetSeconds > 0 || Cfg.MaxExecutions > 0;
  if (Cfg.TimeBudgetSeconds > 0)
    Eta = Cfg.TimeBudgetSeconds - ElapsedSeconds;
  if (Cfg.MaxExecutions > 0 && ExecRate > 0.1) {
    double CapEta = double(Cfg.MaxExecutions > Execs
                               ? Cfg.MaxExecutions - Execs
                               : 0) /
                    ExecRate;
    if (std::isfinite(CapEta) && (Eta < 0 || CapEta < Eta))
      Eta = CapEta;
  }
  if (Eta >= 0 && std::isfinite(Eta)) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), " eta=%.0fs", Eta > 0 ? Eta : 0.0);
    Line += Buf;
  } else if (WantEta) {
    Line += " eta=?";
  }
  // Online tree-size estimate: progress % is the explored mass, est the
  // projected total execution count, eta_est the remaining work at the
  // cumulative average rate. Early in a run the estimate is biased by
  // whichever subtrees DFS finished first (docs/OBSERVABILITY.md).
  if (Cfg.Estimate && S.EstimateMass > 0 && Execs > 0) {
    double Mass = S.EstimateMass < 1.0 ? S.EstimateMass : 1.0;
    double Est = double(Execs) / S.EstimateMass;
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf), " progress=%.1f%% est=%s", Mass * 100.0,
                  compactCount(uint64_t(Est + 0.5)).c_str());
    Line += Buf;
    if (Est > double(Execs)) {
      // Same `?` discipline as eta= above: an estimate with no usable
      // average rate (or a non-finite quotient) must not print inf/nan.
      double EtaEst =
          AvgRate > 0.1 ? (Est - double(Execs)) / AvgRate : -1;
      if (EtaEst >= 0 && std::isfinite(EtaEst)) {
        std::snprintf(Buf, sizeof(Buf), " eta_est=%.0fs", EtaEst);
        Line += Buf;
      } else {
        Line += " eta_est=?";
      }
    }
  }
  Line += '\n';
  return Line;
}

void ProgressReporter::run() {
  uint64_t PrevExecs = 0;
  double PrevT = 0;
  std::unique_lock<std::mutex> Lock(M);
  while (!Stopping) {
    CV.wait_for(Lock, std::chrono::duration<double>(Cfg.IntervalSeconds),
                [this] { return Stopping; });
    if (Stopping)
      break;
    double T = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - Start)
                   .count();
    CounterSnapshot S = Obs.snapshot();
    uint64_t Execs = S.counter(Counter::Executions);
    double Rate = T > PrevT ? double(Execs - PrevExecs) / (T - PrevT) : 0;
    // Compose the whole line first: one write() call is atomic against
    // the main thread's summary output.
    std::string Line = formatProgressLine(Cfg, S, T, Rate);
    OS.write(Line.data(), Line.size());
    OS.flush();
    PrevExecs = Execs;
    PrevT = T;
  }
}
