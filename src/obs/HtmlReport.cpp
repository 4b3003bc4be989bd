//===- obs/HtmlReport.cpp -------------------------------------------------===//

#include "obs/HtmlReport.h"

#include "core/Checker.h"
#include "obs/Counters.h"
#include "obs/SearchProfile.h"
#include "runtime/PendingOp.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>

using namespace fsmc;
using namespace fsmc::obs;

static void appendf(std::string &Out, const char *Fmt, ...) {
  char Buf[1024];
  va_list Ap;
  va_start(Ap, Fmt);
  vsnprintf(Buf, sizeof Buf, Fmt, Ap);
  va_end(Ap);
  Out += Buf;
}

static std::string esc(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S)
    switch (C) {
    case '&': Out += "&amp;"; break;
    case '<': Out += "&lt;"; break;
    case '>': Out += "&gt;"; break;
    case '"': Out += "&quot;"; break;
    default: Out += C;
    }
  return Out;
}

/// One table row with a proportional bar: label, count, bar scaled to
/// \p Max, plus an extra cell (pass "" to skip).
static void barRow(std::string &Out, const std::string &Label, uint64_t Count,
                   uint64_t Max, const std::string &Extra) {
  double Pct = Max ? 100.0 * double(Count) / double(Max) : 0.0;
  appendf(Out,
          "<tr><td>%s</td><td class=\"n\">%" PRIu64
          "</td><td class=\"bar\"><div style=\"width:%.1f%%\"></div></td>",
          esc(Label).c_str(), Count, Pct);
  if (!Extra.empty())
    appendf(Out, "<td class=\"n\">%s</td>", Extra.c_str());
  Out += "</tr>\n";
}

std::string fsmc::obs::renderHtmlReport(const CheckResult &R,
                                        const CheckerOptions &Opts,
                                        const std::string &ProgramName,
                                        const CounterSnapshot &Counters) {
  const SearchStats &S = R.Stats;
  std::string Out;
  Out += "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
         "<meta charset=\"utf-8\">\n";
  appendf(Out, "<title>fsmc search report: %s</title>\n",
          esc(ProgramName).c_str());
  Out += "<style>\n"
         "body{font:14px/1.4 -apple-system,Segoe UI,sans-serif;margin:2em;"
         "max-width:60em;color:#222}\n"
         "h1{font-size:1.4em}h2{font-size:1.1em;margin-top:1.6em;"
         "border-bottom:1px solid #ddd;padding-bottom:.2em}\n"
         "table{border-collapse:collapse;width:100%}\n"
         "td,th{padding:.2em .6em;text-align:left;vertical-align:top}\n"
         "td.n,th.n{text-align:right;font-variant-numeric:tabular-nums}\n"
         "td.bar{width:40%}td.bar div{background:#4a90d9;height:.9em;"
         "min-width:1px}\n"
         "tr:nth-child(even){background:#f6f8fa}\n"
         ".verdict-pass{color:#1a7f37}.verdict-bug{color:#cf222e}\n"
         "</style>\n</head>\n<body>\n";

  appendf(Out, "<h1>fsmc search report: %s</h1>\n", esc(ProgramName).c_str());
  bool Pass = R.Kind == Verdict::Pass;
  appendf(Out, "<p>verdict: <strong class=\"verdict-%s\">%s</strong>",
          Pass ? "pass" : "bug", verdictName(R.Kind));
  if (R.Bug)
    appendf(Out, " &mdash; %s", esc(R.Bug->Message).c_str());
  Out += "</p>\n";

  Out += "<h2>Run summary</h2>\n<table>\n";
  appendf(Out, "<tr><td>executions</td><td class=\"n\">%" PRIu64
               "</td></tr>\n", S.Executions);
  appendf(Out, "<tr><td>transitions</td><td class=\"n\">%" PRIu64
               "</td></tr>\n", S.Transitions);
  // The stateless method's tax, as the progress line's replay=NN% shows
  // it: only once there is replay.
  uint64_t Replay = Counters.counter(Counter::ReplaySteps);
  uint64_t Trans = Counters.counter(Counter::Transitions);
  if (Replay && Trans)
    appendf(Out, "<tr><td>replay share</td><td class=\"n\">%.0f%%"
                 "</td></tr>\n", 100.0 * double(Replay) / double(Trans));
  appendf(Out, "<tr><td>max depth</td><td class=\"n\">%" PRIu64
               "</td></tr>\n", S.MaxDepth);
  if (S.PorBranchesPruned)
    appendf(Out, "<tr><td>POR branches pruned</td><td class=\"n\">%" PRIu64
                 "</td></tr>\n", S.PorBranchesPruned);
  if (S.DistinctStates)
    appendf(Out, "<tr><td>distinct states</td><td class=\"n\">%" PRIu64
                 "</td></tr>\n", S.DistinctStates);
  if (S.RacesFound)
    appendf(Out, "<tr><td>data races found</td><td class=\"n\">%" PRIu64
                 "</td></tr>\n", S.RacesFound);
  appendf(Out, "<tr><td>wall time</td><td class=\"n\">%.3f s</td></tr>\n",
          S.Seconds);
  appendf(Out, "<tr><td>search exhausted</td><td class=\"n\">%s</td></tr>\n",
          S.SearchExhausted ? "yes" : "no");
  Out += "</table>\n";

  if (Opts.Estimate && S.EstimateMass > 0 && S.Executions) {
    double Mass = std::min(S.EstimateMass, 1.0);
    uint64_t Est = uint64_t(std::llround(double(S.Executions) /
                                         S.EstimateMass));
    Out += "<h2>Tree-size estimate</h2>\n<table>\n";
    appendf(Out, "<tr><td>explored mass</td><td class=\"n\">%.6g</td></tr>\n",
            S.EstimateMass);
    appendf(Out, "<tr><td>estimated total executions</td><td class=\"n\">"
                 "%" PRIu64 "</td></tr>\n", Est);
    appendf(Out, "<tr><td>estimated progress</td><td class=\"n\">%.1f%%"
                 "</td></tr>\n", 100.0 * Mass);
    Out += "</table>\n<p>Knuth weighted-backtrack estimate; early in a run "
           "it is biased by whichever subtrees DFS happens to finish first "
           "(see docs/OBSERVABILITY.md).</p>\n";
  }

  if (R.Profile) {
    const SearchProfile &P = *R.Profile;

    uint64_t MaxBP = P.Choose.BranchPoints;
    for (const SearchProfile::OpClassStats &C : P.Ops)
      MaxBP = std::max(MaxBP, C.BranchPoints);
    Out += "<h2>Branch points by operation class</h2>\n"
           "<table>\n<tr><th>op class</th><th class=\"n\">branch points"
           "</th><th></th><th class=\"n\">alternatives opened</th></tr>\n";
    for (size_t I = 0; I < OpKindSlots; ++I) {
      const SearchProfile::OpClassStats &C = P.Ops[I];
      if (C.empty())
        continue;
      std::string Extra;
      appendf(Extra, "%" PRIu64, C.Alternatives);
      barRow(Out, opKindName(OpKind(I)), C.BranchPoints, MaxBP, Extra);
    }
    if (!P.Choose.empty()) {
      std::string Extra;
      appendf(Extra, "%" PRIu64, P.Choose.Alternatives);
      barRow(Out, "choose (data)", P.Choose.BranchPoints, MaxBP, Extra);
    }
    Out += "</table>\n";

    bool AnySleep = false;
    for (const SearchProfile::OpClassStats &C : P.Ops)
      AnySleep = AnySleep || C.PorSleepHits;
    if (AnySleep) {
      uint64_t MaxSleep = 0;
      for (const SearchProfile::OpClassStats &C : P.Ops)
        MaxSleep = std::max(MaxSleep, C.PorSleepHits);
      Out += "<h2>POR pruning by operation class</h2>\n"
             "<table>\n<tr><th>op class</th><th class=\"n\">sleeping "
             "candidates filtered</th><th></th></tr>\n";
      for (size_t I = 0; I < OpKindSlots; ++I)
        if (P.Ops[I].PorSleepHits)
          barRow(Out, opKindName(OpKind(I)), P.Ops[I].PorSleepHits, MaxSleep,
                 "");
      Out += "</table>\n";
    }

    if (!P.Objects.empty()) {
      uint64_t MaxObj = 0;
      for (const auto &[Name, C] : P.Objects)
        MaxObj = std::max(MaxObj, C.BranchPoints);
      Out += "<h2>Branch points by object</h2>\n"
             "<table>\n<tr><th>object</th><th class=\"n\">branch points"
             "</th><th></th><th class=\"n\">alternatives opened</th></tr>\n";
      for (const auto &[Name, C] : P.Objects) {
        std::string Extra;
        appendf(Extra, "%" PRIu64, C.Alternatives);
        barRow(Out, Name, C.BranchPoints, MaxObj, Extra);
      }
      Out += "</table>\n";
    }

    size_t LastBF = 0;
    uint64_t MaxBF = 0;
    for (size_t I = 0; I < ProfileBranchBuckets; ++I) {
      if (P.BranchFactor[I])
        LastBF = I + 1;
      MaxBF = std::max(MaxBF, P.BranchFactor[I]);
    }
    if (LastBF) {
      Out += "<h2>Branch-factor distribution</h2>\n"
             "<table>\n<tr><th>alternatives</th><th class=\"n\">branch "
             "points</th><th></th></tr>\n";
      for (size_t I = 0; I < LastBF; ++I) {
        std::string Label;
        if (I + 1 == ProfileBranchBuckets)
          appendf(Label, ">= %zu", I + 2);
        else
          appendf(Label, "%zu", I + 2);
        barRow(Out, Label, P.BranchFactor[I], MaxBF, "");
      }
      Out += "</table>\n";
    }

    size_t LastD = 0;
    uint64_t MaxD = 0;
    for (size_t I = 0; I < ProfileDepthBuckets; ++I) {
      if (P.Depth[I])
        LastD = I + 1;
      MaxD = std::max(MaxD, P.Depth[I]);
    }
    if (LastD) {
      Out += "<h2>Branch-point depth distribution</h2>\n"
             "<table>\n<tr><th>depth</th><th class=\"n\">branch points"
             "</th><th></th></tr>\n";
      for (size_t I = 0; I < LastD; ++I) {
        std::string Label;
        uint64_t Lo = (uint64_t(1) << I) - 1;
        uint64_t Hi = (uint64_t(1) << (I + 1)) - 2;
        if (Lo == Hi)
          appendf(Label, "%" PRIu64, Lo);
        else
          appendf(Label, "%" PRIu64 "-%" PRIu64, Lo, Hi);
        barRow(Out, Label, P.Depth[I], MaxD, "");
      }
      Out += "</table>\n";
    }
  }

  Out += "</body>\n</html>\n";
  return Out;
}
