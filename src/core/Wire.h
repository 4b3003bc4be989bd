//===- core/Wire.h - Framed pipe protocol of the process fleet -*- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire format the fork-based engines speak over their pipes: records
/// of `u8 tag + u32 length + payload`, written and parsed with the helpers
/// here. Both sides are the same process image (fork, no exec), so
/// trivially-copyable payloads (SearchStats, ScheduleChoice) cross as raw
/// bytes. A work unit crosses as its frozen length, then its prefix
/// (WireWriter::unit / WireReader::unit), in both directions: the
/// coordinator's lease and every remainder a worker hands back.
///
/// Robustness contract (docs/FLEET.md): writeAll retries EINTR and
/// finishes short writes; FrameParser tolerates arbitrarily fragmented
/// reads (a record is only delivered once all of its bytes arrived); a
/// vanished peer surfaces as a false return from writeAll (EPIPE -- the
/// caller must have SIGPIPE ignored, see ScopedSigpipeIgnore) or as EOF on
/// the read side, never as a crash of the supervising process.
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_CORE_WIRE_H
#define FSMC_CORE_WIRE_H

#include "core/Checker.h"
#include "core/Schedule.h"

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <signal.h>
#include <unistd.h>

namespace fsmc {
namespace wire {

/// Serializes one record payload.
struct WireWriter {
  std::string Buf;

  void u8(uint8_t V) { Buf.push_back(char(V)); }
  void raw(const void *P, size_t N) {
    Buf.append(reinterpret_cast<const char *>(P), N);
  }
  void u32(uint32_t V) { raw(&V, sizeof(V)); }
  void u64(uint64_t V) { raw(&V, sizeof(V)); }
  void f64(double V) { raw(&V, sizeof(V)); }
  void str(const std::string &S) {
    u32(uint32_t(S.size()));
    Buf.append(S);
  }
  void stats(const SearchStats &S) { raw(&S, sizeof(S)); }
  void choices(const std::vector<ScheduleChoice> &C) {
    u32(uint32_t(C.size()));
    if (!C.empty())
      raw(C.data(), C.size() * sizeof(ScheduleChoice));
  }
  void states(const uint64_t *P, size_t N) {
    u32(uint32_t(N));
    if (N)
      raw(P, N * sizeof(uint64_t));
  }
  /// A work unit: its frozen length, then its prefix (WireReader::unit).
  void unit(const CheckpointUnit &U) {
    u32(uint32_t(U.FrozenLen));
    choices(U.Prefix);
  }
};

/// Writes the whole buffer, restarting on EINTR and continuing after
/// short writes. Returns false when the peer is gone (EPIPE; SIGPIPE must
/// be ignored in the writing process) or on any other write error.
inline bool writeAll(int Fd, const void *P, size_t N) {
  const char *C = static_cast<const char *>(P);
  while (N) {
    ssize_t W = ::write(Fd, C, N);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    C += W;
    N -= size_t(W);
  }
  return true;
}

/// Frames and writes one record: tag, length, payload, in a single buffer
/// so a record is never interleaved with another writer's bytes.
inline bool writeRecord(int Fd, uint8_t Tag, const WireWriter &W) {
  std::string Frame;
  Frame.reserve(W.Buf.size() + 5);
  Frame.push_back(char(Tag));
  uint32_t Len = uint32_t(W.Buf.size());
  Frame.append(reinterpret_cast<char *>(&Len), sizeof(Len));
  Frame.append(W.Buf);
  return writeAll(Fd, Frame.data(), Frame.size());
}

/// Cursor over one received payload. All reads are bounds-checked; a
/// short record marks the reader bad and the receiver treats the peer as
/// having died mid-record.
struct WireReader {
  const char *P;
  size_t N;
  bool Ok = true;

  bool take(void *Out, size_t K) {
    if (!Ok || K > N) {
      Ok = false;
      return false;
    }
    std::memcpy(Out, P, K);
    P += K;
    N -= K;
    return true;
  }
  uint8_t u8() {
    uint8_t V = 0;
    take(&V, 1);
    return V;
  }
  uint32_t u32() {
    uint32_t V = 0;
    take(&V, sizeof(V));
    return V;
  }
  uint64_t u64() {
    uint64_t V = 0;
    take(&V, sizeof(V));
    return V;
  }
  double f64() {
    double V = 0;
    take(&V, sizeof(V));
    return V;
  }
  std::string str() {
    uint32_t K = u32();
    if (!Ok || K > N) {
      Ok = false;
      return {};
    }
    std::string S(P, K);
    P += K;
    N -= K;
    return S;
  }
  SearchStats stats() {
    SearchStats S;
    take(&S, sizeof(S));
    return S;
  }
  std::vector<ScheduleChoice> choices() {
    uint32_t K = u32();
    std::vector<ScheduleChoice> C;
    if (!Ok || size_t(K) * sizeof(ScheduleChoice) > N) {
      Ok = false;
      return C;
    }
    C.resize(K);
    if (K)
      take(C.data(), K * sizeof(ScheduleChoice));
    return C;
  }
  std::vector<uint64_t> states() {
    uint32_t K = u32();
    std::vector<uint64_t> V;
    if (!Ok || size_t(K) * sizeof(uint64_t) > N) {
      Ok = false;
      return V;
    }
    V.resize(K);
    if (K)
      take(V.data(), K * sizeof(uint64_t));
    return V;
  }
  /// A unit written by WireWriter::unit. A frozen length past the end of
  /// the prefix names no subtree, so it marks the reader bad.
  CheckpointUnit unit() {
    CheckpointUnit U;
    U.FrozenLen = u32();
    U.Prefix = choices();
    if (U.FrozenLen > U.Prefix.size())
      Ok = false;
    return U;
  }
};

/// Reassembles records from an arbitrarily fragmented byte stream. Feed
/// raw read() chunks in; complete records come out via the callback.
/// Bytes of a record whose tail has not arrived yet stay buffered.
class FrameParser {
public:
  /// Appends \p N bytes and delivers every now-complete record to
  /// \p OnRecord(tag, payload reader).
  template <typename Fn>
  void feed(const char *P, size_t N, Fn &&OnRecord) {
    Buf.append(P, N);
    size_t Off = 0;
    while (Buf.size() - Off >= 5) {
      uint8_t Tag = uint8_t(Buf[Off]);
      uint32_t Len;
      std::memcpy(&Len, Buf.data() + Off + 1, sizeof(Len));
      if (Buf.size() - Off - 5 < Len)
        break;
      OnRecord(Tag, WireReader{Buf.data() + Off + 5, Len});
      Off += 5 + size_t(Len);
    }
    Buf.erase(0, Off);
  }

  /// True when a partial record is still buffered -- at EOF this means the
  /// peer died mid-record.
  bool hasPartial() const { return !Buf.empty(); }

private:
  std::string Buf;
};

/// Ignores SIGPIPE for the lifetime of the scope, restoring the previous
/// disposition on exit. A coordinator writing to a worker that just died
/// must see EPIPE from write(), not take a fatal signal.
class ScopedSigpipeIgnore {
public:
  ScopedSigpipeIgnore() { Prev = ::signal(SIGPIPE, SIG_IGN); }
  ~ScopedSigpipeIgnore() { ::signal(SIGPIPE, Prev); }
  ScopedSigpipeIgnore(const ScopedSigpipeIgnore &) = delete;
  ScopedSigpipeIgnore &operator=(const ScopedSigpipeIgnore &) = delete;

private:
  sighandler_t Prev;
};

} // namespace wire
} // namespace fsmc

#endif // FSMC_CORE_WIRE_H
