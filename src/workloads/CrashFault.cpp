//===- workloads/CrashFault.cpp -------------------------------------------===//

#include "workloads/CrashFault.h"

#include "runtime/Runtime.h"
#include "sync/Atomic.h"
#include "sync/Plain.h"
#include "sync/TestThread.h"

#include <cstdlib>
#include <memory>

using namespace fsmc;

namespace {

[[noreturn]] void hardSpin() {
  // An infinite loop inside a single transition: no visible operation
  // ever runs again, so the execution bound cannot classify it -- only
  // the worker watchdog can. The volatile sink keeps the loop a real
  // loop under optimization.
  volatile unsigned Sink = 0;
  for (;;)
    Sink = Sink + 1;
}

void fire(CrashFaultConfig::Fault Kind) {
  switch (Kind) {
  case CrashFaultConfig::Fault::None:
    return; // Benign configuration: reaching the window is fine.
  case CrashFaultConfig::Fault::NullDeref: {
    volatile int *P = nullptr;
    *P = 42;
    return;
  }
  case CrashFaultConfig::Fault::Abort:
    std::abort();
  case CrashFaultConfig::Fault::Hang:
    hardSpin();
  case CrashFaultConfig::Fault::Race:
    return; // The race is in the variable accesses, not a process fault.
  }
}

} // namespace

TestProgram fsmc::makeCrashFaultProgram(const CrashFaultConfig &Config) {
  TestProgram P;
  switch (Config.Kind) {
  case CrashFaultConfig::Fault::None:
    P.Name = "crashfault-none";
    break;
  case CrashFaultConfig::Fault::NullDeref:
    P.Name = "crashfault-segv";
    break;
  case CrashFaultConfig::Fault::Abort:
    P.Name = "crashfault-abort";
    break;
  case CrashFaultConfig::Fault::Hang:
    P.Name = "crashfault-hang";
    break;
  case CrashFaultConfig::Fault::Race:
    P.Name = "crashfault-race";
    break;
  }
  if (Config.Kind == CrashFaultConfig::Fault::Race) {
    // The same three-thread shape, but the shared variable is plain: both
    // writer/writer and writer/reader pairs conflict with no happens-
    // before edge, so --races=on reports them while the program itself
    // stays assertion-clean on every interleaving.
    P.Body = [] {
      auto X = std::make_shared<PlainVar<int>>(0, "x");
      TestThread W1([X] { X->store(1); }, "w1");
      TestThread W2([X] { X->store(2); }, "w2");
      TestThread Reader([X] {
        int A = X->load();
        checkThat(A >= 0 && A <= 2, "x holds a written value");
      }, "reader");
      W1.join();
      W2.join();
      Reader.join();
      checkThat(X->raw() == 1 || X->raw() == 2, "x holds a writer's value");
    };
    return P;
  }
  P.Body = [Kind = Config.Kind] {
    auto X = std::make_shared<Atomic<int>>(0, "x");
    auto Y = std::make_shared<Atomic<int>>(0, "y");

    // The fault fires only when the reader lands exactly between the
    // first writer's two stores (x already 1, y still 0) -- one narrow
    // window among all interleavings of three threads, so a DFS survives
    // a handful of executions before tripping it.
    TestThread W1([X, Y] {
      X->store(1);
      Y->store(1);
    }, "w1");
    TestThread W2([X] { X->store(2); }, "w2");
    TestThread Reader([X, Y, Kind] {
      int A = X->load();
      int B = Y->load();
      if (A == 1 && B == 0)
        fire(Kind);
    }, "reader");

    W1.join();
    W2.join();
    Reader.join();
    checkThat(X->raw() == 1 || X->raw() == 2, "x holds a writer's value");
  };
  return P;
}
