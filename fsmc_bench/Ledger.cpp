//===- fsmc_bench/Ledger.cpp - Samples, spans and JSON for the ledger -----===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//

#include "Ledger.h"

#include <algorithm>
#include <cstdio>
#include <thread>

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

using namespace fsmc;
using namespace fsmc::ledger;

Summary ledger::summarize(std::vector<double> V) {
  Summary S;
  S.N = V.size();
  if (V.empty())
    return S;
  std::sort(V.begin(), V.end());
  S.Min = V.front();
  S.Max = V.back();
  size_t N = V.size();
  S.Median = N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
  if (N < 2) {
    S.Q1 = S.Q3 = V[0];
    return S;
  }
  // statistics.quantiles(data, n=4, method='exclusive').
  auto Quartile = [&V, N](size_t I) {
    size_t M = N + 1;
    size_t J = std::clamp<size_t>(I * M / 4, 1, N - 1);
    double Delta = double(I * M) - double(J * 4);
    return (V[J - 1] * (4 - Delta) + V[J] * Delta) / 4;
  };
  S.Q1 = Quartile(1);
  S.Q3 = Quartile(3);
  return S;
}

namespace {

/// The reference's two contexts; referenceSeconds() is single-threaded.
ucontext_t RefCaller, RefCallee;

void refPingPong() {
  for (;;)
    ::swapcontext(&RefCallee, &RefCaller);
}

} // namespace

double ledger::referenceSeconds() {
  constexpr size_t StackBytes = 64 * 1024;
  constexpr int RoundTrips = 20000;
  // Mapped per call and unmapped after, so the caller's resident set (and
  // with it the peak RSS of every child it forks later) is left as it was.
  void *Stack = ::mmap(nullptr, StackBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (Stack == MAP_FAILED)
    return 0;
  ::getcontext(&RefCallee);
  RefCallee.uc_stack.ss_sp = Stack;
  RefCallee.uc_stack.ss_size = StackBytes;
  RefCallee.uc_link = nullptr;
  ::makecontext(&RefCallee, refPingPong, 0);
  ::swapcontext(&RefCaller, &RefCallee); // First entry, untimed.
  auto T0 = Clock::now();
  for (int I = 0; I < RoundTrips; ++I)
    ::swapcontext(&RefCaller, &RefCallee);
  double S = secondsBetween(T0, Clock::now());
  ::munmap(Stack, StackBytes);
  return S;
}

std::string ledger::num(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string ledger::quote(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out + "\"";
}

int SpanRecorder::open(const std::string &Name) {
  Span S;
  S.Name = Name;
  S.Id = int(Spans.size());
  S.Parent = Stack.empty() ? -1 : Stack.back();
  S.Pass = Pass;
  S.Start = secondsBetween(Origin, Clock::now());
  Spans.push_back(S);
  Stack.push_back(S.Id);
  return S.Id;
}

void SpanRecorder::close(int Id, const std::string &Args) {
  Spans[size_t(Id)].End = secondsBetween(Origin, Clock::now());
  Spans[size_t(Id)].Args = Args;
  if (!Stack.empty() && Stack.back() == Id)
    Stack.pop_back();
}

void SpanRecorder::adopt(Span S) {
  S.Id = int(Spans.size());
  S.Parent = Stack.empty() ? -1 : Stack.back();
  S.Pass = Pass;
  Spans.push_back(std::move(S));
}

std::string ledger::spanKind(const std::string &Name) {
  return Name.substr(0, Name.find(':'));
}

std::vector<double> ledger::selfTimes(const std::vector<Span> &Spans) {
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    Self[I] = Spans[I].End - Spans[I].Start;
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Self[size_t(S.Parent)] -= S.End - S.Start;
  return Self;
}

std::string ledger::chromeTrace(const std::vector<Span> &Spans) {
  std::string Out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    Out += "{\"name\": " + quote(S.Name) +
           ", \"cat\": \"ledger\", \"ph\": \"X\", \"ts\": " +
           num(S.Start * 1e6) + ", \"dur\": " + num((S.End - S.Start) * 1e6) +
           ", \"pid\": 1, \"tid\": " + std::to_string(S.Pass) +
           ", \"args\": {\"id\": " + std::to_string(S.Id) +
           ", \"parent\": " + std::to_string(S.Parent) +
           ", \"pass\": " + std::to_string(S.Pass);
    if (!S.Args.empty())
      Out += ", " + S.Args;
    Out += I + 1 < Spans.size() ? "}},\n" : "}}\n";
  }
  return Out + "]}\n";
}

namespace {

/// HEAD of the source tree, or "unknown" outside a git checkout. The
/// ceiling keeps git from adopting a repository above the source tree.
std::string gitCommit() {
  std::string Src = FSMC_SOURCE_DIR;
  std::string Parent = Src.substr(0, Src.find_last_of('/'));
  std::string Cmd = "GIT_CEILING_DIRECTORIES='" + Parent + "' git -C '" +
                    Src + "' rev-parse HEAD 2>/dev/null";
  std::string Out;
  if (std::FILE *P = ::popen(Cmd.c_str(), "r")) {
    char Buf[128];
    while (std::fgets(Buf, sizeof(Buf), P))
      Out += Buf;
    if (::pclose(P) != 0)
      Out.clear();
  }
  while (!Out.empty() && (Out.back() == '\n' || Out.back() == ' '))
    Out.pop_back();
  return Out.empty() ? "unknown" : Out;
}

} // namespace

Provenance ledger::collectProvenance() {
  Provenance P;
  P.BuildType = FSMC_BUILD_TYPE;
#ifdef NDEBUG
  P.Asserts = false;
#else
  P.Asserts = true;
#endif
  P.Commit = gitCommit();
  P.Nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  P.HardwareConcurrency = std::thread::hardware_concurrency();
  return P;
}

std::string ledger::provenanceJson(const Provenance &P) {
  return "{\"schema\": " + std::to_string(P.Schema) +
         ", \"build_type\": " + quote(P.BuildType) +
         ", \"ndebug\": " + (P.Asserts ? "false" : "true") +
         ", \"commit\": " + quote(P.Commit) +
         ", \"nproc\": " + std::to_string(P.Nproc) +
         ", \"hardware_concurrency\": " +
         std::to_string(P.HardwareConcurrency) +
         ", \"seed\": " + std::to_string(P.Seed) +
         ", \"passes\": " + std::to_string(P.Passes) +
         ", \"pinned_cpu\": " + std::to_string(P.PinnedCpu) + "}";
}
