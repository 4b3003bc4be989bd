//===- runtime/UnwindScan.cpp ---------------------------------------------===//

#include "runtime/UnwindScan.h"

#include <cstdint>
#include <cstring>
#include <unwind.h>

using namespace fsmc;

namespace {

constexpr uint8_t EncOmit = 0xff;

bool readUleb(const uint8_t *&P, uint64_t &V) {
  V = 0;
  for (unsigned Shift = 0; Shift < 64; Shift += 7) {
    uint8_t Byte = *P++;
    V |= uint64_t(Byte & 0x7f) << Shift;
    if (!(Byte & 0x80))
      return true;
  }
  return false;
}

/// Reads one call-site field. Compilers write these as plain offsets,
/// uleb128 or 4-byte; any other form is refused.
bool readField(const uint8_t *&P, uint8_t Encoding, uint64_t &V) {
  if (Encoding == 0x01) // DW_EH_PE_uleb128
    return readUleb(P, V);
  if (Encoding != 0x03) // DW_EH_PE_udata4
    return false;
  uint32_t Word;
  std::memcpy(&Word, P, sizeof Word);
  P += sizeof Word;
  V = Word;
  return true;
}

/// What a frame does to an exception leaving the call at \p IP.
enum class Pass { Through, Cleanup, Stop };

/// Looks \p IP up in \p Lsda's call-site table, as the C++ personality
/// routine does. A call site with an action (a catch clause or an
/// exception specification) may stop the exception; one missing from the
/// table makes the personality terminate, which is how compilers encode
/// noexcept regions.
Pass passOf(const uint8_t *Lsda, uintptr_t FuncStart, uintptr_t IP) {
  if (!Lsda)
    return Pass::Through;
  const uint8_t *P = Lsda;
  uint64_t Skip;
  if (*P++ != EncOmit) // Landing pads based elsewhere than the function.
    return Pass::Stop;
  if (*P++ != EncOmit && !readUleb(P, Skip)) // The type table's offset.
    return Pass::Stop;
  uint8_t Encoding = *P++;
  uint64_t Length;
  if (!readUleb(P, Length))
    return Pass::Stop;
  for (const uint8_t *End = P + Length; P < End;) {
    uint64_t Start, Len, Pad, Action;
    if (!readField(P, Encoding, Start) || !readField(P, Encoding, Len) ||
        !readField(P, Encoding, Pad) || !readUleb(P, Action))
      return Pass::Stop;
    if (IP < FuncStart + Start)
      break;
    if (IP < FuncStart + Start + Len)
      return Action ? Pass::Stop : Pad ? Pass::Cleanup : Pass::Through;
  }
  return Pass::Stop;
}

struct Scan {
  uintptr_t Below;
  uintptr_t Handler;
  bool Cleanups = false;
  UnwindPath Result = UnwindPath::Blocked;
};

_Unwind_Reason_Code visitFrame(_Unwind_Context *Ctx, void *Arg) {
  Scan &S = *static_cast<Scan *>(Arg);
  if (_Unwind_GetCFA(Ctx) <= S.Below)
    return _URC_NO_REASON;
  uintptr_t FuncStart = _Unwind_GetRegionStart(Ctx);
  if (FuncStart == S.Handler) {
    S.Result = S.Cleanups ? UnwindPath::Cleanups : UnwindPath::Clean;
    return _URC_NORMAL_STOP;
  }
  int BeforeInsn = 0;
  uintptr_t IP = _Unwind_GetIPInfo(Ctx, &BeforeInsn);
  if (!BeforeInsn)
    --IP; // A return address: look up the call before it.
  auto *Lsda =
      static_cast<const uint8_t *>(_Unwind_GetLanguageSpecificData(Ctx));
  switch (passOf(Lsda, FuncStart, IP)) {
  case Pass::Through:
    return _URC_NO_REASON;
  case Pass::Cleanup:
    S.Cleanups = true;
    return _URC_NO_REASON;
  case Pass::Stop:
    return _URC_NORMAL_STOP;
  }
  return _URC_NORMAL_STOP;
}

} // namespace

UnwindPath fsmc::scanUnwindPath(const void *Below, const void *Handler) {
  Scan S{reinterpret_cast<uintptr_t>(Below),
         reinterpret_cast<uintptr_t>(Handler)};
  _Unwind_Backtrace(&visitFrame, &S);
  return S.Result;
}
