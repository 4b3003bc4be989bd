//===- core/Trace.cpp -----------------------------------------------------===//

#include "core/Trace.h"

#include "runtime/Runtime.h"
#include "support/Hashing.h"
#include "support/OutStream.h"

#include <cstdio>

using namespace fsmc;

ThreadSet Trace::scheduledInSuffix(size_t Window) const {
  ThreadSet Result;
  size_t Start = Events.size() > Window ? Events.size() - Window : 0;
  for (size_t I = Start; I < Events.size(); ++I)
    Result.insert(Events[I].Thread);
  return Result;
}

ThreadSet Trace::yieldedInSuffix(size_t Window) const {
  ThreadSet Result;
  size_t Start = Events.size() > Window ? Events.size() - Window : 0;
  for (size_t I = Start; I < Events.size(); ++I)
    if (Events[I].WasYield)
      Result.insert(Events[I].Thread);
  return Result;
}

std::string Trace::render(const Runtime &RT, size_t MaxEvents) const {
  std::string Out;
  size_t Start = Events.size() > MaxEvents ? Events.size() - MaxEvents : 0;
  if (Start > 0)
    Out += "  ... (" + std::to_string(Start) + " earlier transitions)\n";
  for (size_t I = Start; I < Events.size(); ++I) {
    const TraceEvent &E = Events[I];
    char Buf[192];
    std::snprintf(Buf, sizeof(Buf), "  #%zu %s: %s", I,
                  RT.threadName(E.Thread).c_str(), opKindName(E.Kind));
    Out += Buf;
    if (E.ObjectId >= 0) {
      Out += "(";
      Out += RT.objectName(E.ObjectId);
      Out += ")";
    }
    if (E.Annotation != 0) {
      Out += " @";
      Out += std::to_string(E.Annotation);
    }
    Out += "\n";
  }
  return Out;
}

void Trace::print(OutStream &OS, const Runtime &RT, size_t MaxEvents) const {
  std::string Text = render(RT, MaxEvents);
  OS.write(Text.data(), Text.size());
}

uint64_t Trace::digest() const {
  WordHasher H;
  for (const TraceEvent &E : Events) {
    H.addU64(uint64_t(E.Thread));
    H.addU64(uint64_t(E.Kind) << 32 | uint32_t(E.ObjectId));
  }
  return H.digest();
}
