//===- runtime/UnwindScan.h - Where an exception would stop -----*- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reads the C++ exception tables (Itanium ABI LSDAs) of the frames on the
/// calling stack to tell, before anything is thrown, what an exception
/// would meet on its way out. The runtime unwinds a cut test thread by an
/// exception only when this says nothing can stop it: a noexcept frame
/// (a destructor such as ~lock_guard) would terminate the process, and a
/// catch clause could swallow it.
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_RUNTIME_UNWINDSCAN_H
#define FSMC_RUNTIME_UNWINDSCAN_H

namespace fsmc {

/// What an exception would meet between a thrower and its handler.
enum class UnwindPath {
  Clean,    ///< No frame would run code: there is nothing to destroy.
  Cleanups, ///< Frames would run destructors, and none would stop it.
  Blocked,  ///< A frame would catch it or terminate (noexcept, a handler
            ///< clause), the handler's frame was not reached, or a table
            ///< was in a form this reader does not know.
};

/// Walks the calling stack outwards from the first frame whose CFA lies
/// above \p Below (the caller passes its own `__builtin_dwarf_cfa()`, so
/// its frame and the ones it called are skipped) up to, not including,
/// the frame of the function that starts at \p Handler.
UnwindPath scanUnwindPath(const void *Below, const void *Handler);

} // namespace fsmc

#endif // FSMC_RUNTIME_UNWINDSCAN_H
