//===- tests/core/PorFuzzPrograms.h - Generated POR programs ---*- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small random pass-only programs from a seeded xorshift generator:
/// plain vars, atomics, a mutex, spawn and join. PorFuzzTest explores each
/// with POR off and on; LeanReplayOracleTest explores each on the lean and
/// the full replay path.
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_TESTS_CORE_PORFUZZPROGRAMS_H
#define FSMC_TESTS_CORE_PORFUZZPROGRAMS_H

#include "core/Checker.h"
#include "support/Xorshift.h"
#include "sync/Atomic.h"
#include "sync/Mutex.h"
#include "sync/Plain.h"
#include "sync/TestThread.h"

#include <memory>
#include <string>
#include <vector>

namespace fsmc::porfuzz {

/// One generated instruction: an opcode plus the shared object it hits.
struct FuzzOp {
  enum Kind {
    PlainLoad,
    PlainStore,
    AtomicLoad,
    AtomicStore,
    AtomicAdd,
    LockedAdd, // lock; counter += k; unlock
  };
  Kind K;
  int Obj; ///< Index into the vars/atomics/mutexes pool for K's class.
  int Arg; ///< Stored value / added delta.
};

struct FuzzSpec {
  int Threads = 2;
  int Vars = 1;
  int Atomics = 1;
  int Mutexes = 1;
  /// Per thread: the op sequence it executes.
  std::vector<std::vector<FuzzOp>> Code;
  /// One thread (or -1) additionally spawns and joins a nested child
  /// running Code.back(), covering tid-assignment ordering under POR.
  int NestedSpawner = -1;
};

/// Deterministic program shapes from the seed. Sizes are kept small so
/// the *unreduced* exhaustive fair DFS stays in the low thousands of
/// executions per seed.
inline FuzzSpec makeSpec(uint64_t Seed) {
  Xorshift Rng(Seed);
  FuzzSpec S;
  // Two top-level threads (a third arrives via the nested spawner on
  // some seeds): exhaustive fair DFS stays well under the cap while the
  // op mix still covers every dependence class.
  S.Threads = 2;
  S.Vars = 1 + Rng.nextBelow(2);     // 1..2
  S.Atomics = 1 + Rng.nextBelow(2);  // 1..2
  S.Mutexes = 1;
  int Bodies = S.Threads + 1; // Last body is the nested child's.
  for (int T = 0; T < Bodies; ++T) {
    int Len = 2 + Rng.nextBelow(2); // 2..3 ops
    std::vector<FuzzOp> Ops;
    for (int I = 0; I < Len; ++I) {
      FuzzOp Op;
      Op.K = FuzzOp::Kind(Rng.nextBelow(6));
      switch (Op.K) {
      case FuzzOp::PlainLoad:
      case FuzzOp::PlainStore:
        Op.Obj = Rng.nextBelow(S.Vars);
        break;
      case FuzzOp::AtomicLoad:
      case FuzzOp::AtomicStore:
      case FuzzOp::AtomicAdd:
        Op.Obj = Rng.nextBelow(S.Atomics);
        break;
      case FuzzOp::LockedAdd:
        Op.Obj = 0;
        break;
      }
      Op.Arg = 1 + Rng.nextBelow(7);
      Ops.push_back(Op);
    }
    S.Code.push_back(std::move(Ops));
  }
  if (Rng.nextBelow(3) == 0)
    S.NestedSpawner = Rng.nextBelow(S.Threads);
  return S;
}

inline uint64_t fnv1a(uint64_t H, uint64_t V) {
  for (int B = 0; B < 8; ++B) {
    H ^= (V >> (B * 8)) & 0xff;
    H *= 0x100000001b3ULL;
  }
  return H;
}

/// Builds the TestProgram for \p Spec. The digest covers every shared
/// location *and* each thread's accumulated read values, so two
/// interleavings differing in any visible read or final state hash
/// differently. Digest/flag live behind shared_ptrs: executions run
/// one-at-a-time inside the checker, so plain writes are safe.
inline TestProgram makeFuzzProgram(const FuzzSpec &Spec,
                            std::shared_ptr<uint64_t> LastDigest,
                            std::shared_ptr<bool> DigestValid) {
  TestProgram P;
  P.Name = "por-fuzz";
  P.Body = [Spec, LastDigest, DigestValid] {
    auto Vars = std::make_shared<std::vector<PlainVar<int>>>();
    auto Atomics = std::make_shared<std::vector<Atomic<int>>>();
    Vars->reserve(size_t(Spec.Vars));
    Atomics->reserve(size_t(Spec.Atomics));
    for (int I = 0; I < Spec.Vars; ++I)
      Vars->emplace_back(0, "v" + std::to_string(I));
    for (int I = 0; I < Spec.Atomics; ++I)
      Atomics->emplace_back(0, "a" + std::to_string(I));
    auto Lock = std::make_shared<Mutex>("m");
    auto Counter = std::make_shared<int>(0);
    // Slot per body (threads + nested child), written only by its owner.
    auto Sums = std::make_shared<std::vector<uint64_t>>(Spec.Code.size(), 0);

    auto RunBody = [=](int Body) {
      uint64_t Sum = 0;
      for (const FuzzOp &Op : Spec.Code[size_t(Body)]) {
        switch (Op.K) {
        case FuzzOp::PlainLoad:
          Sum = Sum * 31 + uint64_t((*Vars)[size_t(Op.Obj)].load());
          break;
        case FuzzOp::PlainStore:
          (*Vars)[size_t(Op.Obj)].store(Op.Arg + Body);
          break;
        case FuzzOp::AtomicLoad:
          Sum = Sum * 31 + uint64_t((*Atomics)[size_t(Op.Obj)].load());
          break;
        case FuzzOp::AtomicStore:
          (*Atomics)[size_t(Op.Obj)].store(Op.Arg + Body);
          break;
        case FuzzOp::AtomicAdd:
          Sum = Sum * 31 +
                uint64_t((*Atomics)[size_t(Op.Obj)].fetchAdd(Op.Arg));
          break;
        case FuzzOp::LockedAdd:
          Lock->lock();
          *Counter += Op.Arg;
          Lock->unlock();
          break;
        }
      }
      (*Sums)[size_t(Body)] = Sum;
    };

    std::vector<TestThread> Threads;
    for (int T = 0; T < Spec.Threads; ++T) {
      int Nested = Spec.NestedSpawner == T ? int(Spec.Code.size()) - 1 : -1;
      Threads.emplace_back(
          [RunBody, T, Nested] {
            if (Nested >= 0) {
              TestThread Child([RunBody, Nested] { RunBody(Nested); },
                               "nested");
              RunBody(T);
              Child.join();
            } else {
              RunBody(T);
            }
          },
          "t" + std::to_string(T));
    }
    for (TestThread &T : Threads)
      T.join();

    uint64_t H = 0xcbf29ce484222325ULL;
    for (int I = 0; I < Spec.Vars; ++I)
      H = fnv1a(H, uint64_t((*Vars)[size_t(I)].raw()));
    for (int I = 0; I < Spec.Atomics; ++I)
      H = fnv1a(H, uint64_t((*Atomics)[size_t(I)].raw()));
    H = fnv1a(H, uint64_t(*Counter));
    for (uint64_t S : *Sums)
      H = fnv1a(H, S);
    *LastDigest = H;
    *DigestValid = true;
  };
  return P;
}

} // namespace fsmc::porfuzz

#endif // FSMC_TESTS_CORE_PORFUZZPROGRAMS_H
