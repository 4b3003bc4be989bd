//===- core/Schedule.cpp --------------------------------------------------===//

#include "core/Schedule.h"

#include "core/Checkpoint.h"

#include <cstdio>
#include <cstdlib>

using namespace fsmc;

static const char *SchedulePrefix = "fsmc1:";

std::string fsmc::encodeSchedule(const std::vector<ScheduleChoice> &Choices) {
  std::string Out = SchedulePrefix;
  for (size_t I = 0; I < Choices.size(); ++I) {
    if (I)
      Out += ";";
    Out += std::to_string(Choices[I].Chosen);
    Out += "/";
    Out += std::to_string(Choices[I].Num);
    if (!Choices[I].Backtrack)
      Out += "r";
    if (Choices[I].FlushMask) {
      char Buf[24];
      std::snprintf(Buf, sizeof(Buf), "f%llx",
                    (unsigned long long)Choices[I].FlushMask);
      Out += Buf;
    }
    if (Choices[I].SleepMask) {
      char Buf[24];
      std::snprintf(Buf, sizeof(Buf), "s%llx",
                    (unsigned long long)Choices[I].SleepMask);
      Out += Buf;
    }
  }
  return Out;
}

bool fsmc::decodeSchedule(const std::string &Text,
                          std::vector<ScheduleChoice> &Out) {
  Out.clear();
  std::string_view S = Text;
  std::string_view Prefix = SchedulePrefix;
  if (S.substr(0, Prefix.size()) != Prefix)
    return false;
  S.remove_prefix(Prefix.size());
  if (S.empty())
    return true;
  while (!S.empty()) {
    size_t Semi = S.find(';');
    std::string_view Tok = S.substr(0, Semi);
    S.remove_prefix(Semi == std::string_view::npos ? S.size() : Semi + 1);

    ScheduleChoice C;
    size_t Slash = Tok.find('/');
    if (Slash == std::string_view::npos || Slash == 0)
      return false;
    C.Chosen = std::atoi(std::string(Tok.substr(0, Slash)).c_str());
    std::string_view NumTok = Tok.substr(Slash + 1);
    // Suffixes come off right-to-left: the `s` mask first (its hex digits
    // cannot contain 's'), then the `f` mask -- everything left of the
    // `f` marker is decimal digits plus an optional 'r', so the *first*
    // 'f' in what remains is always the marker, never a hex digit of the
    // flush mask -- then the trailing 'r'.
    size_t SleepAt = NumTok.find('s');
    if (SleepAt != std::string_view::npos) {
      std::string Hex(NumTok.substr(SleepAt + 1));
      if (Hex.empty())
        return false;
      char *End = nullptr;
      C.SleepMask = std::strtoull(Hex.c_str(), &End, 16);
      if (End == Hex.c_str() || *End != '\0')
        return false;
      NumTok = NumTok.substr(0, SleepAt);
    }
    size_t FlushAt = NumTok.find('f');
    if (FlushAt != std::string_view::npos) {
      std::string Hex(NumTok.substr(FlushAt + 1));
      if (Hex.empty())
        return false;
      char *End = nullptr;
      C.FlushMask = std::strtoull(Hex.c_str(), &End, 16);
      if (End == Hex.c_str() || *End != '\0')
        return false;
      NumTok = NumTok.substr(0, FlushAt);
    }
    if (!NumTok.empty() && NumTok.back() == 'r') {
      C.Backtrack = false;
      NumTok.remove_suffix(1);
    }
    if (NumTok.empty())
      return false;
    C.Num = std::atoi(std::string(NumTok).c_str());
    if (C.Num < 2 || C.Chosen < 0 || C.Chosen >= C.Num)
      return false;
    Out.push_back(C);
  }
  return true;
}

bool fsmc::dfsBefore(const std::vector<int> &A, const std::vector<int> &B) {
  size_t N = A.size() < B.size() ? A.size() : B.size();
  for (size_t I = 0; I < N; ++I)
    if (A[I] != B[I])
      return A[I] < B[I];
  return A.size() < B.size();
}

std::vector<int> fsmc::pathKeyOfSchedule(const std::string &Schedule) {
  std::vector<ScheduleChoice> Choices;
  if (!decodeSchedule(Schedule, Choices))
    return {};
  return pathKeyOfPrefix(Choices);
}

std::vector<int>
fsmc::pathKeyOfPrefix(const std::vector<ScheduleChoice> &Prefix) {
  std::vector<int> Key;
  Key.reserve(Prefix.size());
  for (const ScheduleChoice &C : Prefix)
    Key.push_back(C.Chosen);
  return Key;
}

CheckResult fsmc::replaySchedule(const TestProgram &Program,
                                 const CheckerOptions &Opts,
                                 const std::string &Schedule) {
  CheckpointState One;
  One.Frontier.emplace_back();
  CheckpointUnit &U = One.Frontier.back();
  if (!decodeSchedule(Schedule, U.Prefix)) {
    CheckResult Bad;
    Bad.Kind = Verdict::SafetyViolation;
    BugReport B;
    B.Kind = Verdict::SafetyViolation;
    B.Message = "malformed schedule string";
    Bad.Bug = std::move(B);
    return Bad;
  }
  // A replay is a one-unit, fully frozen checkpoint: it must stay on the
  // recorded path, so a mismatch surfaces as Verdict::Divergence (after
  // the configured retries) instead of wandering into sibling schedules.
  // Under isolation it runs in a worker process -- replaying a crashing
  // schedule in-process would kill the caller.
  U.FrozenLen = U.Prefix.size();
  CheckerOptions Effective = Opts;
  Effective.MaxExecutions = 1;
  Effective.StopOnFirstBug = true;
  Effective.Jobs = 1;
  Effective.FleetWorkers = 0;
  return runSearch(Program, Effective, &One);
}
