//===- core/Checkpoint.cpp ------------------------------------------------===//

#include "core/Checkpoint.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <type_traits>

using namespace fsmc;

// Version 4 changed the state hash (support/Hashing.h), so the coverage
// signatures a file stores are only comparable with the same version's.
// Version 3 added the weak-memory stat keys and flush-mask suffixes inside
// unit schedules (core/Schedule.h); version 2 the POR stat keys and
// sleep-mask suffixes. Older versions are no longer read.
static const char *CheckpointMagic = "fsmc-ckpt 4";
static const char *PreHashMagic = "fsmc-ckpt 3";

namespace {

/// Stable wire tokens for Verdict in checkpoint files (independent of
/// verdictName, whose strings contain spaces).
const char *verdictWire(Verdict V) {
  switch (V) {
  case Verdict::Pass:
    return "pass";
  case Verdict::SafetyViolation:
    return "safety";
  case Verdict::Deadlock:
    return "deadlock";
  case Verdict::Livelock:
    return "livelock";
  case Verdict::GoodSamaritanViolation:
    return "goodsam";
  case Verdict::Divergence:
    return "divergence";
  case Verdict::Crash:
    return "crash";
  case Verdict::Hang:
    return "hang";
  case Verdict::DataRace:
    return "datarace";
  }
  return "pass";
}

bool parseVerdictWire(const std::string &S, Verdict &V) {
  if (S == "pass")
    V = Verdict::Pass;
  else if (S == "safety")
    V = Verdict::SafetyViolation;
  else if (S == "deadlock")
    V = Verdict::Deadlock;
  else if (S == "livelock")
    V = Verdict::Livelock;
  else if (S == "goodsam")
    V = Verdict::GoodSamaritanViolation;
  else if (S == "divergence")
    V = Verdict::Divergence;
  else if (S == "crash")
    V = Verdict::Crash;
  else if (S == "hang")
    V = Verdict::Hang;
  else if (S == "datarace")
    V = Verdict::DataRace;
  else
    return false;
  return true;
}

/// Writes one checkpointed stat row if it is nonzero (absent keys read as
/// zero): integers as decimal 'stat' lines, doubles as lossless hexfloat
/// 'statf' lines. Run rows are per-run facts and never persisted.
template <StatMerge M, typename T>
void putStat(std::ostream &OS, const char *Key, const T &V) {
  if constexpr (M != StatMerge::Run) {
    if (V == T())
      return;
    if constexpr (std::is_floating_point_v<T>) {
      char Buf[48];
      snprintf(Buf, sizeof Buf, "%a", V);
      OS << "statf " << Key << " " << Buf << "\n";
    } else {
      OS << "stat " << Key << " " << uint64_t(V) << "\n";
    }
  }
}

/// Parses a whole-token stat value into \p V; false if malformed.
template <typename T> bool parseStat(const std::string &Tok, T &V) {
  const char *Begin = Tok.c_str(), *End = Begin + Tok.size();
  if constexpr (std::is_floating_point_v<T>) {
    char *Stop = nullptr;
    V = std::strtod(Begin, &Stop);
    return Stop != Begin && Stop == End;
  } else {
    uint64_t U = 0;
    auto [Stop, Ec] = std::from_chars(Begin, End, U);
    V = T(U);
    return Ec == std::errc() && Stop == End;
  }
}

/// Reads the value of the 'stat'/'statf' line for row \p Name. Unknown
/// names are skipped for forward compatibility, but their 'stat' values
/// must still be integers. \returns false on a malformed value.
bool readStat(SearchStats &S, bool Float, const std::string &Name,
              const std::string &Tok) {
#define FSMC_STAT_READ(Type, Member, Key, Merge, Json)                         \
  if (StatMerge::Merge != StatMerge::Run && Name == Key)                       \
    return parseStat(Tok, S.Member);
  FSMC_SEARCH_STATS(FSMC_STAT_READ)
#undef FSMC_STAT_READ
  uint64_t Unknown;
  return Float || parseStat(Tok, Unknown);
}

} // namespace

std::string fsmc::encodeCheckpoint(const CheckpointState &CK,
                                   const std::string &Program,
                                   uint64_t Seed) {
  std::ostringstream OS;
  OS << CheckpointMagic << "\n";
  OS << "program " << Program << "\n";
  OS << "seed " << Seed << "\n";
  OS << "rng " << CK.Rng << "\n";
  const SearchStats &S = CK.Stats;
#define FSMC_STAT_WRITE(Type, Member, Key, Merge, Json)                        \
  putStat<StatMerge::Merge>(OS, Key, S.Member);
  FSMC_SEARCH_STATS(FSMC_STAT_WRITE)
#undef FSMC_STAT_WRITE
  if (CK.Bug) {
    OS << "bug " << verdictWire(CK.Bug->Kind) << " " << CK.Bug->AtExecution
       << " " << CK.Bug->AtStep << " " << CK.Bug->Schedule << "\n";
    // The message is free text: keep it on one line.
    std::string Msg = CK.Bug->Message;
    std::replace(Msg.begin(), Msg.end(), '\n', ' ');
    OS << "bugmsg " << Msg << "\n";
  }
  // One line per crash/hang incident, message last (it is free text).
  // Older readers skip the unknown key.
  for (const BugReport &I : CK.Incidents) {
    std::string Msg = I.Message;
    std::replace(Msg.begin(), Msg.end(), '\n', ' ');
    OS << "incident " << verdictWire(I.Kind) << " " << I.AtExecution << " "
       << I.AtStep << " " << I.Schedule << " " << Msg << "\n";
  }
  OS << "states " << CK.States.size();
  OS << std::hex;
  for (uint64_t St : CK.States)
    OS << " " << St;
  OS << std::dec << "\n";
  for (const CheckpointUnit &U : CK.Frontier)
    OS << "unit " << U.FrozenLen << " " << encodeSchedule(U.Prefix) << "\n";
  OS << "end\n";
  return OS.str();
}

bool fsmc::decodeCheckpoint(const std::string &Text, CheckpointState &CK,
                            std::string &Program, uint64_t &Seed,
                            std::string &Err) {
  CK = CheckpointState();
  Program.clear();
  Seed = 0;
  std::istringstream IS(Text);
  std::string Line;
  bool HaveLine = bool(std::getline(IS, Line));
  if (HaveLine && Line == PreHashMagic) {
    // Resuming would mix two signature spaces and overcount
    // distinct states.
    Err = "checkpoint format 3 predates the current state hash; re-run "
          "the search";
    return false;
  }
  if (!HaveLine || Line != CheckpointMagic) {
    Err = "not a checkpoint file (missing '" + std::string(CheckpointMagic) +
          "' header)";
    return false;
  }
  bool SawEnd = false;
  while (std::getline(IS, Line)) {
    if (Line.empty())
      continue;
    if (Line == "end") {
      SawEnd = true;
      break;
    }
    std::istringstream LS(Line);
    std::string Key;
    LS >> Key;
    if (Key == "program") {
      LS >> std::ws;
      std::getline(LS, Program);
    } else if (Key == "seed") {
      if (!(LS >> Seed)) {
        Err = "corrupt checkpoint: bad seed value in '" + Line + "'";
        return false;
      }
    } else if (Key == "rng") {
      if (!(LS >> CK.Rng)) {
        Err = "corrupt checkpoint: bad rng value in '" + Line + "'";
        return false;
      }
    } else if (Key == "stat" || Key == "statf") {
      std::string Name, Tok;
      if (!(LS >> Name >> Tok) ||
          !readStat(CK.Stats, Key == "statf", Name, Tok)) {
        Err = "corrupt checkpoint: bad " + Key + " line '" + Line + "'";
        return false;
      }
    } else if (Key == "bug" || Key == "incident") {
      BugReport B;
      std::string KindTok;
      if (!(LS >> KindTok >> B.AtExecution >> B.AtStep >> B.Schedule)) {
        Err = "corrupt checkpoint: bad " + Key + " line '" + Line + "'";
        return false;
      }
      if (!parseVerdictWire(KindTok, B.Kind)) {
        Err = "corrupt checkpoint: bad " + Key + " verdict '" + KindTok + "'";
        return false;
      }
      if (Key == "bug") {
        CK.Bug = std::move(B);
      } else {
        LS >> std::ws;
        std::getline(LS, B.Message);
        CK.Incidents.push_back(std::move(B));
      }
    } else if (Key == "bugmsg") {
      if (CK.Bug) {
        LS >> std::ws;
        std::getline(LS, CK.Bug->Message);
      }
    } else if (Key == "states") {
      size_t N = 0;
      if (!(LS >> N)) {
        Err = "corrupt checkpoint: bad states count in '" + Line + "'";
        return false;
      }
      // Bound the reserve by the line's actual capacity: a corrupted count
      // must not turn into a multi-gigabyte allocation before the per-value
      // reads below catch the truncation.
      CK.States.reserve(std::min(N, Line.size() / 2 + 1));
      LS >> std::hex;
      for (size_t I = 0; I < N; ++I) {
        uint64_t V = 0;
        if (!(LS >> V)) {
          Err = "corrupt checkpoint: truncated states line (" +
                std::to_string(I) + " of " + std::to_string(N) + " values)";
          return false;
        }
        CK.States.push_back(V);
      }
    } else if (Key == "unit") {
      CheckpointUnit U;
      std::string Sched;
      if (!(LS >> U.FrozenLen >> Sched)) {
        Err = "corrupt checkpoint: bad unit line '" + Line + "'";
        return false;
      }
      if (!decodeSchedule(Sched, U.Prefix)) {
        Err = "corrupt checkpoint: malformed unit schedule '" + Sched + "'";
        return false;
      }
      if (U.FrozenLen > U.Prefix.size()) {
        Err = "corrupt checkpoint: unit frozen length exceeds prefix";
        return false;
      }
      CK.Frontier.push_back(std::move(U));
    }
    // Unknown keys are skipped for forward compatibility.
  }
  if (!SawEnd) {
    Err = "corrupt checkpoint: truncated (missing 'end' marker)";
    return false;
  }
  CK.Stats.DistinctStates = CK.States.size();
  return true;
}

bool fsmc::writeCheckpointFile(const std::string &Path,
                               const CheckpointState &CK,
                               const std::string &Program, uint64_t Seed) {
  std::string Tmp = Path + ".tmp";
  {
    std::ofstream OS(Tmp, std::ios::binary | std::ios::trunc);
    if (!OS)
      return false;
    OS << encodeCheckpoint(CK, Program, Seed);
    OS.flush();
    if (!OS)
      return false;
  }
  return std::rename(Tmp.c_str(), Path.c_str()) == 0;
}

bool fsmc::readCheckpointFile(const std::string &Path, CheckpointState &CK,
                              std::string &Program, uint64_t &Seed,
                              std::string &Err) {
  std::ifstream IS(Path, std::ios::binary);
  if (!IS) {
    Err = "cannot open checkpoint file '" + Path + "'";
    return false;
  }
  std::ostringstream Buf;
  Buf << IS.rdbuf();
  return decodeCheckpoint(Buf.str(), CK, Program, Seed, Err);
}

CheckResult fsmc::resumeCheck(const TestProgram &Program,
                              const CheckerOptions &Opts,
                              const CheckpointState &CK) {
  return runSearch(Program, Opts, &CK);
}
