//===- tests/obs/ObsTest.cpp - Observability unit tests -------------------===//
//
// Unit tests for the obs subsystem: the sharded counter registry and its
// snapshot semantics, the stats-json report (parsed back with the
// in-tree JSON parser, no external tooling), the stop-reason mapping,
// the JSONL trace sink's round trip through the validator, the
// validator's rejection of malformed traces, and the checked-in golden
// trace that pins the on-disk schema.
//
//===----------------------------------------------------------------------===//

#include "core/Checker.h"
#include "obs/Counters.h"
#include "obs/EventSink.h"
#include "obs/HtmlReport.h"
#include "obs/Observer.h"
#include "obs/ProgressReporter.h"
#include "obs/StatsJson.h"
#include "obs/TraceValidate.h"
#include "workloads/WorkStealQueue.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

using namespace fsmc;
using namespace fsmc::obs;

namespace {

std::string tempPath(const char *Name) {
  return testing::TempDir() + Name;
}

void writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream F(Path, std::ios::binary | std::ios::trunc);
  F << Text;
}

TestProgram wsqBug1() {
  WsqConfig C;
  C.Stealers = 1;
  C.Tasks = 2;
  C.Bug = WsqBug::PopReordered;
  return makeWsqProgram(C);
}

//===----------------------------------------------------------------------===
// Counter registry.
//===----------------------------------------------------------------------===

TEST(Counters, SnapshotSumsCounterShards) {
  CounterRegistry Reg(4);
  Reg.shard(0).add(Counter::Transitions, 5);
  Reg.shard(1).add(Counter::Transitions, 7);
  Reg.shard(3).add(Counter::Transitions);
  Reg.shard(2).add(Counter::Executions, 2);

  CounterSnapshot S = Reg.snapshot();
  EXPECT_EQ(S.counter(Counter::Transitions), 13u);
  EXPECT_EQ(S.counter(Counter::Executions), 2u);
  EXPECT_EQ(S.counter(Counter::Preemptions), 0u);
}

TEST(Counters, GaugeAggregation) {
  CounterRegistry Reg(4);
  // MaxDepth: per-shard maxima combine with max.
  Reg.shard(0).maxGauge(Gauge::MaxDepth, 10);
  Reg.shard(1).maxGauge(Gauge::MaxDepth, 25);
  Reg.shard(1).maxGauge(Gauge::MaxDepth, 3); // must not lower it
  // ActiveWorkers: each worker contributes its own 0/1; readers sum.
  Reg.shard(1).setGauge(Gauge::ActiveWorkers, 1);
  Reg.shard(2).setGauge(Gauge::ActiveWorkers, 1);
  Reg.shard(0).setGauge(Gauge::WorkQueueDepth, 6);

  CounterSnapshot S = Reg.snapshot();
  EXPECT_EQ(S.gauge(Gauge::MaxDepth), 25u);
  EXPECT_EQ(S.gauge(Gauge::ActiveWorkers), 2u);
  EXPECT_EQ(S.gauge(Gauge::WorkQueueDepth), 6u);
}

TEST(Counters, OutOfRangeWorkerClampsToLastShard) {
  CounterRegistry Reg(2);
  Reg.shard(99).add(Counter::Executions);
  EXPECT_EQ(Reg.snapshot().counter(Counter::Executions), 1u);
}

TEST(Counters, LatencyHistogramBuckets) {
  WorkerCounters W;
  W.addLatencyNs(1);    // [1, 2)      -> bucket 0
  W.addLatencyNs(3);    // [2, 4)      -> bucket 1
  W.addLatencyNs(1000); // [512, 1024) -> bucket 9
  EXPECT_EQ(W.Latency[0].load(), 1u);
  EXPECT_EQ(W.Latency[1].load(), 1u);
  EXPECT_EQ(W.Latency[9].load(), 1u);
}

TEST(Counters, WireNamesAreStable) {
  EXPECT_STREQ(counterName(Counter::Executions), "executions");
  EXPECT_STREQ(counterName(Counter::ReplaySteps), "replay_steps");
  EXPECT_STREQ(counterName(Counter::FairEdgeAdds), "fair_edge_adds");
  EXPECT_STREQ(gaugeName(Gauge::WorkQueueDepth), "workqueue_depth");
  for (unsigned I = 0; I < unsigned(Counter::NumCounters); ++I)
    EXPECT_GT(std::string(counterName(Counter(I))).size(), 0u);
  for (unsigned I = 0; I < unsigned(Gauge::NumGauges); ++I)
    EXPECT_GT(std::string(gaugeName(Gauge(I))).size(), 0u);
}

//===----------------------------------------------------------------------===
// Progress line.
//===----------------------------------------------------------------------===

namespace {
CounterSnapshot progressSnapshot(uint64_t Execs, uint64_t Trans,
                                 uint64_t Replay) {
  CounterSnapshot S;
  S.C[size_t(Counter::Executions)] = Execs;
  S.C[size_t(Counter::Transitions)] = Trans;
  S.C[size_t(Counter::ReplaySteps)] = Replay;
  S.C[size_t(Counter::FairEdgeAdds)] = 880;
  S.G[size_t(Gauge::MaxDepth)] = 37;
  return S;
}
} // namespace

TEST(ProgressLine, HistoricalShapeWithoutReplay) {
  ProgressReporter::Config Cfg;
  std::string Line = formatProgressLine(Cfg, progressSnapshot(48210, 90000, 0),
                                        12.0, 4012.0);
  EXPECT_EQ(Line, "[fsmc 12.0s] elapsed_ms=12000 exec=48210 (4012/s, avg "
                  "4018/s) trans=90000 depth=37 edges=880\n");
}

TEST(ProgressLine, ReplayShareOfTransitions) {
  ProgressReporter::Config Cfg;
  std::string Line = formatProgressLine(
      Cfg, progressSnapshot(100, 20'000'000, 19'400'000), 2.0, 50.0);
  EXPECT_NE(Line.find(" trans=20.0M depth=37 edges=880 replay=97%\n"),
            std::string::npos)
      << Line;
  // A sliver of replay still shows, rounded.
  Line = formatProgressLine(Cfg, progressSnapshot(100, 1000, 4), 2.0, 50.0);
  EXPECT_NE(Line.find(" replay=0%\n"), std::string::npos) << Line;
}

TEST(HtmlReport, ReplayShareBesideTransitions) {
  CheckResult R;
  R.Stats.Transitions = 1000;
  CheckerOptions O;
  CounterSnapshot S;
  S.C[size_t(Counter::Transitions)] = 1000;
  S.C[size_t(Counter::ReplaySteps)] = 968;
  std::string Doc = renderHtmlReport(R, O, "p", S);
  EXPECT_NE(Doc.find("<tr><td>transitions</td><td class=\"n\">1000</td></tr>\n"
                     "<tr><td>replay share</td><td class=\"n\">97%</td></tr>"),
            std::string::npos)
      << Doc;
  // Like the progress line's replay=NN%, the row needs replay to show.
  S.C[size_t(Counter::ReplaySteps)] = 0;
  EXPECT_EQ(renderHtmlReport(R, O, "p", S).find("replay share"),
            std::string::npos);
}

TEST(ProgressLine, EtaUnknownWithoutARate) {
  ProgressReporter::Config Cfg;
  Cfg.MaxExecutions = 1000;
  // An execution cap with no usable rate yet prints `eta=?`, never inf.
  std::string Line =
      formatProgressLine(Cfg, progressSnapshot(0, 0, 0), 0.5, 0.0);
  EXPECT_NE(Line.find(" eta=?\n"), std::string::npos) << Line;
  // With a rate the cap gives a number: 900 left at 100/s.
  Line = formatProgressLine(Cfg, progressSnapshot(100, 500, 0), 1.0, 100.0);
  EXPECT_NE(Line.find(" eta=9s\n"), std::string::npos) << Line;
  // A time budget binds when it is sooner.
  Cfg.TimeBudgetSeconds = 5;
  Line = formatProgressLine(Cfg, progressSnapshot(100, 500, 0), 1.0, 100.0);
  EXPECT_NE(Line.find(" eta=4s\n"), std::string::npos) << Line;
  // No budget, no eta field at all.
  Line = formatProgressLine(ProgressReporter::Config(),
                            progressSnapshot(100, 500, 0), 1.0, 100.0);
  EXPECT_EQ(Line.find("eta="), std::string::npos) << Line;
}

//===----------------------------------------------------------------------===
// Stats-json report.
//===----------------------------------------------------------------------===

TEST(StatsJson, EscapesStrings) {
  std::string Out;
  appendJsonEscaped(Out, "a\"b\\c\nd\x01");
  EXPECT_EQ(Out, "a\\\"b\\\\c\\nd\\u0001");
}

TEST(StatsJson, StopReasonMapping) {
  CheckResult R;
  R.Stats.SearchExhausted = true;
  EXPECT_STREQ(stopReason(R), "search_exhausted");
  EXPECT_TRUE(budgetNote(R, CheckerOptions()).empty());

  R = CheckResult();
  R.Stats.TimedOut = true;
  EXPECT_STREQ(stopReason(R), "time_budget_exhausted");
  EXPECT_FALSE(budgetNote(R, CheckerOptions()).empty());

  R = CheckResult();
  R.Stats.ExecutionCapHit = true;
  EXPECT_STREQ(stopReason(R), "execution_cap_hit");
  EXPECT_FALSE(budgetNote(R, CheckerOptions()).empty());

  R = CheckResult();
  R.Kind = Verdict::Deadlock;
  EXPECT_STREQ(stopReason(R), "bug_found");
}

TEST(StatsJson, ReportParsesAndMatchesRun) {
  Observer Obs;
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = 2;
  // Bug1 needs a weak-memory search (workloads/WorkStealQueue.h).
  O.Memory = MemoryModel::Tso;
  O.Obs = &Obs;
  CheckResult R = check(wsqBug1(), O);
  ASSERT_TRUE(R.foundBug());

  StatsJsonInfo Info;
  Info.Program = "wsq-bug1";
  Info.Options = &O;
  Info.Obs = &Obs;
  std::string Json = renderStatsJson(R, Info);

  JsonValue V;
  std::string Err;
  ASSERT_TRUE(parseJson(Json, V, Err)) << Err;
  ASSERT_TRUE(V.isObject());
  EXPECT_EQ(V.find("schema")->Num, 1);
  EXPECT_EQ(V.find("program")->Str, "wsq-bug1");
  EXPECT_EQ(V.find("stop_reason")->Str, "bug_found");
  EXPECT_EQ(V.find("replay")->B, false);

  const JsonValue *Stats = V.find("stats");
  ASSERT_NE(Stats, nullptr);
  EXPECT_EQ(uint64_t(Stats->find("executions")->Num), R.Stats.Executions);
  EXPECT_EQ(uint64_t(Stats->find("transitions")->Num), R.Stats.Transitions);

  // The live counters and the post-hoc stats must agree on the serial
  // path: one shard, no sampling.
  const JsonValue *Counters = V.find("counters");
  ASSERT_NE(Counters, nullptr);
  EXPECT_EQ(uint64_t(Counters->find("transitions")->Num),
            R.Stats.Transitions);
  EXPECT_EQ(uint64_t(Counters->find("executions")->Num), R.Stats.Executions);
  EXPECT_EQ(uint64_t(Counters->find("bugs_found")->Num), 1u);

  const JsonValue *Bug = V.find("bug");
  ASSERT_NE(Bug, nullptr);
  ASSERT_TRUE(Bug->isObject());
  EXPECT_EQ(Bug->find("schedule")->Str, R.Bug->Schedule);
  EXPECT_EQ(uint64_t(Bug->find("at_execution")->Num), R.Bug->AtExecution);
}

//===----------------------------------------------------------------------===
// JSON parser negatives.
//===----------------------------------------------------------------------===

TEST(JsonParser, RejectsMalformedInput) {
  JsonValue V;
  std::string Err;
  EXPECT_FALSE(parseJson("{", V, Err));
  EXPECT_FALSE(parseJson("[1, 2] trailing", V, Err));
  EXPECT_FALSE(parseJson("\"unterminated", V, Err));
  EXPECT_FALSE(parseJson("{\"a\": }", V, Err));
  EXPECT_FALSE(parseJson("", V, Err));
}

TEST(JsonParser, AcceptsValidDocuments) {
  JsonValue V;
  std::string Err;
  ASSERT_TRUE(parseJson("{\"a\": [1, -2.5, true, null, \"s\"]}", V, Err))
      << Err;
  const JsonValue *A = V.find("a");
  ASSERT_NE(A, nullptr);
  ASSERT_EQ(A->Arr.size(), 5u);
  EXPECT_EQ(A->Arr[0].Num, 1);
  EXPECT_EQ(A->Arr[1].Num, -2.5);
  EXPECT_TRUE(A->Arr[2].B);
  EXPECT_EQ(A->Arr[3].T, JsonValue::Type::Null);
  EXPECT_EQ(A->Arr[4].Str, "s");
}

//===----------------------------------------------------------------------===
// Trace validator.
//===----------------------------------------------------------------------===

TEST(TraceValidator, RejectsMalformedTraces) {
  std::string Err;
  const std::string P = tempPath("bad_trace.json");

  writeFile(P, "{\"not\": \"an array\"}");
  EXPECT_FALSE(validateTraceFile(P, Err));

  // Missing the leading meta record.
  writeFile(P, "[\n{\"name\":\"x\",\"cat\":\"transition\",\"ph\":\"X\","
               "\"ts\":0,\"dur\":1,\"pid\":0,\"tid\":0}\n]");
  EXPECT_FALSE(validateTraceFile(P, Err));

  // Unknown phase letter.
  writeFile(P,
            "[\n{\"name\":\"fsmc_trace\",\"cat\":\"meta\",\"ph\":\"i\","
            "\"ts\":0,\"pid\":0,\"tid\":0},\n"
            "{\"name\":\"x\",\"cat\":\"transition\",\"ph\":\"Z\",\"ts\":0,"
            "\"pid\":0,\"tid\":0},\n"
            "{\"name\":\"fsmc_trace_end\",\"cat\":\"meta\",\"ph\":\"i\","
            "\"ts\":0,\"pid\":0,\"tid\":0}\n]");
  EXPECT_FALSE(validateTraceFile(P, Err));

  // "X" span without a duration.
  writeFile(P,
            "[\n{\"name\":\"fsmc_trace\",\"cat\":\"meta\",\"ph\":\"i\","
            "\"ts\":0,\"pid\":0,\"tid\":0},\n"
            "{\"name\":\"x\",\"cat\":\"transition\",\"ph\":\"X\",\"ts\":0,"
            "\"pid\":0,\"tid\":0},\n"
            "{\"name\":\"fsmc_trace_end\",\"cat\":\"meta\",\"ph\":\"i\","
            "\"ts\":0,\"pid\":0,\"tid\":0}\n]");
  EXPECT_FALSE(validateTraceFile(P, Err));
}

TEST(TraceValidator, ArgsFieldTyping) {
  std::string Err;
  const std::string P = tempPath("args_trace.json");
  // Wraps one event in the meta records every valid trace carries.
  auto Trace = [](const std::string &Event) {
    return "[\n{\"name\":\"fsmc_trace\",\"cat\":\"meta\",\"ph\":\"i\","
           "\"ts\":0,\"pid\":0,\"tid\":0},\n" +
           Event +
           ",\n{\"name\":\"fsmc_trace_end\",\"cat\":\"meta\",\"ph\":\"i\","
           "\"ts\":0,\"pid\":0,\"tid\":0}\n]";
  };

  // args must be an object when present.
  writeFile(P, Trace("{\"name\":\"x\",\"cat\":\"execution\",\"ph\":\"X\","
                     "\"ts\":0,\"dur\":1,\"pid\":0,\"tid\":0,\"args\":[1]}"));
  EXPECT_FALSE(validateTraceFile(P, Err));
  EXPECT_NE(Err.find("'args'"), std::string::npos) << Err;

  // args.mass must be numeric...
  writeFile(P,
            Trace("{\"name\":\"x\",\"cat\":\"execution\",\"ph\":\"X\","
                  "\"ts\":0,\"dur\":1,\"pid\":0,\"tid\":0,"
                  "\"args\":{\"mass\":\"0.5\"}}"));
  EXPECT_FALSE(validateTraceFile(P, Err));

  // ...and a probability: in (0, 1].
  writeFile(P, Trace("{\"name\":\"x\",\"cat\":\"execution\",\"ph\":\"X\","
                     "\"ts\":0,\"dur\":1,\"pid\":0,\"tid\":0,"
                     "\"args\":{\"mass\":1.5}}"));
  EXPECT_FALSE(validateTraceFile(P, Err));
  writeFile(P, Trace("{\"name\":\"x\",\"cat\":\"execution\",\"ph\":\"X\","
                     "\"ts\":0,\"dur\":1,\"pid\":0,\"tid\":0,"
                     "\"args\":{\"mass\":0}}"));
  EXPECT_FALSE(validateTraceFile(P, Err));

  // steps/end carry declared types.
  writeFile(P, Trace("{\"name\":\"x\",\"cat\":\"execution\",\"ph\":\"X\","
                     "\"ts\":0,\"dur\":1,\"pid\":0,\"tid\":0,"
                     "\"args\":{\"steps\":\"two\"}}"));
  EXPECT_FALSE(validateTraceFile(P, Err));
  writeFile(P, Trace("{\"name\":\"x\",\"cat\":\"execution\",\"ph\":\"X\","
                     "\"ts\":0,\"dur\":1,\"pid\":0,\"tid\":0,"
                     "\"args\":{\"end\":7}}"));
  EXPECT_FALSE(validateTraceFile(P, Err));

  // A well-formed mass passes, and unknown args keys are accepted so new
  // telemetry can land without a schema bump.
  size_t Events = 0;
  writeFile(P,
            Trace("{\"name\":\"x\",\"cat\":\"execution\",\"ph\":\"X\","
                  "\"ts\":0,\"dur\":1,\"pid\":0,\"tid\":0,"
                  "\"args\":{\"steps\":2,\"end\":\"terminated\","
                  "\"mass\":0.125,\"future_field\":[1,2]}}"));
  EXPECT_TRUE(validateTraceFile(P, Err, &Events)) << Err;
  EXPECT_EQ(Events, 1u);
}

TEST(TraceValidator, SinkOutputRoundTrips) {
  const std::string P = tempPath("sink_trace.json");
  {
    JsonlTraceSink Sink(P);
    ASSERT_TRUE(Sink.valid());

    ObsEvent T;
    T.Kind = EventKind::Transition;
    T.Thread = 1;
    T.Ts = 0;
    T.Dur = 1;
    T.Op = OpKind::MutexLock;
    T.Object = 3;
    Sink.event(T);

    ObsEvent E;
    E.Kind = EventKind::ExecutionEnd;
    E.Ts = 0;
    E.Dur = 1;
    E.ArgA = 1;
    E.Detail = "terminated";
    E.Mass = 0.25; // estimator on: the leaf mass rides in args.mass
    Sink.event(E);

    ObsEvent B;
    B.Kind = EventKind::BugFound;
    B.Thread = 0;
    B.Ts = 1;
    B.Detail = "deadlock";
    Sink.event(B);
    Sink.close();
  }

  std::string Err;
  size_t Events = 0;
  EXPECT_TRUE(validateTraceFile(P, Err, &Events)) << Err;
  EXPECT_EQ(Events, 3u);

  std::vector<std::string> Norm;
  ASSERT_TRUE(loadNormalizedEvents(P, /*StripWorkerAndTime=*/true, {}, Norm,
                                   Err))
      << Err;
  ASSERT_EQ(Norm.size(), 3u);
  // Normalization drops pid/ts and sorts keys; the canonical form is the
  // comparison unit of the determinism tests.
  EXPECT_EQ(Norm[0].find("\"pid\""), std::string::npos);
  EXPECT_EQ(Norm[0].find("\"ts\""), std::string::npos);
  EXPECT_NE(Norm[0].find("\"name\":\"lock\""), std::string::npos);
  // The execution event's Mass round-trips as args.mass.
  EXPECT_NE(Norm[1].find("\"mass\":0.25"), std::string::npos) << Norm[1];

  std::vector<std::string> NoVerdict;
  ASSERT_TRUE(loadNormalizedEvents(P, true, {"verdict"}, NoVerdict, Err));
  EXPECT_EQ(NoVerdict.size(), 2u);
}

TEST(TraceValidator, CliEndToEndTraceValidates) {
  const std::string P = tempPath("cli_trace.json");
  Observer::Config OC;
  JsonlTraceSink Sink(P);
  ASSERT_TRUE(Sink.valid());
  OC.Sink = &Sink;
  Observer Obs(OC);

  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = 1;
  O.Obs = &Obs;
  CheckResult R = check(wsqBug1(), O);
  Sink.close();

  std::string Err;
  size_t Events = 0;
  ASSERT_TRUE(validateTraceFile(P, Err, &Events)) << Err;
  // At minimum: one span per transition, one per execution, one verdict.
  EXPECT_GE(Events, R.Stats.Transitions + R.Stats.Executions);
}

//===----------------------------------------------------------------------===
// Golden trace: pins the on-disk schema. Regenerate only on a deliberate
// schema bump (see docs/OBSERVABILITY.md).
//===----------------------------------------------------------------------===

TEST(GoldenTrace, SchemaV1Validates) {
  const std::string P =
      std::string(FSMC_SOURCE_DIR) + "/tests/obs/golden/trace_v1.json";
  std::string Err;
  size_t Events = 0;
  ASSERT_TRUE(validateTraceFile(P, Err, &Events)) << Err;
  EXPECT_EQ(Events, 6u);

  std::vector<std::string> Norm;
  ASSERT_TRUE(loadNormalizedEvents(P, true, {}, Norm, Err)) << Err;
  ASSERT_EQ(Norm.size(), 6u);
  EXPECT_EQ(Norm[0],
            "{\"args\":{\"obj\":-1,\"step\":0},\"cat\":\"transition\","
            "\"dur\":1,\"name\":\"start\",\"ph\":\"X\",\"tid\":0}");
  // The estimator's optional mass field is part of schema v1: present on
  // estimator-on executions, absent otherwise (both forms in the golden).
  EXPECT_EQ(Norm[3].find("\"mass\""), std::string::npos) << Norm[3];
  EXPECT_NE(Norm[4].find("\"mass\":0.25"), std::string::npos) << Norm[4];
}

} // namespace
