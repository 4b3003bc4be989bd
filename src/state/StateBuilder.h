//===- state/StateBuilder.h - Manual state extraction ----------*- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helper for writing the per-workload state extractors of Section 4.2.1:
/// "the state of these programs consists of the state of all global
/// variables, the heap, and the stack of all threads ... we had to
/// manually abstract the (infinite) state of the program into a
/// reasonable, finite representation."
///
/// A workload's extractor feeds its logical state -- shared variables,
/// lock holders, per-thread phases -- into a StateBuilder, using the
/// embedded HeapCanonicalizer for pointer-valued data; the digest becomes
/// the state signature the coverage experiments count.
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_STATE_STATEBUILDER_H
#define FSMC_STATE_STATEBUILDER_H

#include "state/HeapCanonicalizer.h"
#include "support/Hashing.h"

#include <string_view>

namespace fsmc {

/// Accumulates a state signature. Create a fresh instance per extraction
/// so canonical pointer names restart from zero each time.
class StateBuilder {
public:
  void addU64(uint64_t V) { Hash.addU64(V); }
  void addI64(int64_t V) { Hash.addU64(uint64_t(V)); }
  void addBool(bool B) { Hash.addBool(B); }
  /// Length-prefixed, so "ab"+"c" and "a"+"bc" differ.
  void addString(std::string_view S) { Hash.addString(S); }

  /// Adds a pointer by canonical first-visit name, not raw address.
  void addPointer(const void *P) { Hash.addU64(Canon.idOf(P)); }

  /// Marks a structural boundary (e.g. between containers) so that
  /// adjacent fields cannot alias across boundaries.
  void addSeparator() { Hash.addU64(0x5eb0a2d15eb0a2d1ULL); }

  HeapCanonicalizer &canonicalizer() { return Canon; }

  uint64_t digest() const { return Hash.digest(); }

private:
  WordHasher Hash;
  HeapCanonicalizer Canon;
};

} // namespace fsmc

#endif // FSMC_STATE_STATEBUILDER_H
