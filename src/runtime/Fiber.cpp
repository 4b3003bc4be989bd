//===- runtime/Fiber.cpp --------------------------------------------------===//

#include "runtime/Fiber.h"

#include "runtime/Sanitizer.h"
#include "runtime/StackPool.h"

#include <cassert>
#include <cstdint>
#include <new>
#include <sys/mman.h>
#include <unistd.h>

using namespace fsmc;

#if !defined(__x86_64__)
#error "fsmc_fiber_switch and Fiber::initWithEntry's first frame are x86-64 System V only; port both to this architecture"
#endif

extern "C" {
/// Pushes the callee-saved state onto the current stack, stores the stack
/// pointer to *SaveSp and resumes the context whose stack pointer is
/// NewSp. Returns when some later switch resumes *SaveSp.
void fsmc_fiber_switch(void **SaveSp, void *NewSp);
/// Where a fresh fiber's first switch returns to: calls rbx's function
/// with r12 as its argument. No caller frame exists above it.
void fsmc_fiber_start();
}

// The saved frame, from the stored stack pointer up: MXCSR (4 bytes) and
// the x87 control word (2) in one 8-byte slot, r15, r14, r13, r12, rbx,
// rbp, return address. The CFI tracks the frame's size, so a backtrace
// taken inside the switch is well-formed on either stack.
asm(R"(
  .text
  .p2align 4
  .globl fsmc_fiber_switch
  .hidden fsmc_fiber_switch
  .type fsmc_fiber_switch, @function
fsmc_fiber_switch:
  .cfi_startproc
  pushq %rbp
  .cfi_adjust_cfa_offset 8
  pushq %rbx
  .cfi_adjust_cfa_offset 8
  pushq %r12
  .cfi_adjust_cfa_offset 8
  pushq %r13
  .cfi_adjust_cfa_offset 8
  pushq %r14
  .cfi_adjust_cfa_offset 8
  pushq %r15
  .cfi_adjust_cfa_offset 8
  subq $8, %rsp
  .cfi_adjust_cfa_offset 8
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  .cfi_adjust_cfa_offset -8
  popq %r15
  .cfi_adjust_cfa_offset -8
  popq %r14
  .cfi_adjust_cfa_offset -8
  popq %r13
  .cfi_adjust_cfa_offset -8
  popq %r12
  .cfi_adjust_cfa_offset -8
  popq %rbx
  .cfi_adjust_cfa_offset -8
  popq %rbp
  .cfi_adjust_cfa_offset -8
  ret
  .cfi_endproc
  .size fsmc_fiber_switch, .-fsmc_fiber_switch

  .p2align 4
  .globl fsmc_fiber_start
  .hidden fsmc_fiber_start
  .type fsmc_fiber_start, @function
fsmc_fiber_start:
  .cfi_startproc
  .cfi_undefined %rip
  movq %r12, %rdi
  callq *%rbx
  ud2
  .cfi_endproc
  .size fsmc_fiber_start, .-fsmc_fiber_start
)");

namespace {
/// What fsmc_fiber_switch pops on the first switch to a fresh fiber.
struct FirstFrame {
  uint32_t Mxcsr;
  uint16_t Fcw;
  uint16_t Pad;
  void *R15, *R14, *R13;
  Fiber *R12;           ///< Argument of the entry below.
  void (*Rbx)(Fiber *); ///< Entry fsmc_fiber_start calls.
  void *Rbp;            ///< 0: frame-pointer unwinds stop at the base.
  void (*Ret)();
};
static_assert(sizeof(FirstFrame) == 64, "layout popped by fsmc_fiber_switch");
} // namespace

#if FSMC_ASAN
namespace {
/// Stack extent of this OS thread, captured the first time one of its
/// fibers runs (__sanitizer_finish_switch_fiber reports the stack that
/// was switched away from). Fibers that switch back to the controller --
/// whose "stack" is the host OS-thread stack -- announce this extent.
thread_local const void *HostStackBottom = nullptr;
thread_local size_t HostStackSize = 0;
} // namespace
#endif

#if FSMC_TSAN
namespace {
/// TSan's handle for this OS thread's own (root) fiber, captured on the
/// first switch away from it. Switches back to the controller target
/// this handle; it is never destroyed.
thread_local void *HostTsanFiber = nullptr;
} // namespace
#endif

Fiber::~Fiber() { releaseStack(); }

void Fiber::releaseStack() {
  if (!StackBase)
    return;
#if FSMC_TSAN
  if (TsanFiber) {
    __tsan_destroy_fiber(TsanFiber);
    TsanFiber = nullptr;
  }
#endif
  if (Pool) {
    Pool->release(StackBase, MappedBytes);
  } else {
    long Page = sysconf(_SC_PAGESIZE);
    // Shadow poison is not cleared by munmap; scrub it so an unrelated
    // later mapping at the same address starts clean under ASan.
    fsmcAsanUnpoison(StackBase + Page, MappedBytes - size_t(Page));
    munmap(StackBase, MappedBytes);
  }
  StackBase = nullptr;
  MappedBytes = 0;
  Pool = nullptr;
  AsanStackBottom = nullptr;
  AsanStackSize = 0;
}

void Fiber::initAsHost() {
  // Nothing to do: the first switchTo() away from the host saves its
  // context.
  assert(!StackBase && "host fiber must not own a stack");
}

void Fiber::start(Fiber *Self) {
#if FSMC_ASAN
  // First activation of this fiber: complete the switch ASan saw begin in
  // switchTo, and learn the host stack's extent from it (the stack we
  // just left is the OS thread's own).
  __sanitizer_finish_switch_fiber(nullptr, &HostStackBottom, &HostStackSize);
#endif
  Self->Entry(Self->EntryArg);
  // Entry functions must switch away before returning; see Runtime.
  assert(false && "fiber entry returned without switching away");
}

bool Fiber::initWithEntry(size_t StackBytes, EntryFn Entry, void *Arg,
                          StackPool *Pool) {
  long Page = sysconf(_SC_PAGESIZE);
  size_t Usable = (StackBytes + Page - 1) / Page * Page;
  size_t Wanted = Usable + Page; // one guard page below the stack
  if (StackBase && (MappedBytes != Wanted || this->Pool != Pool))
    releaseStack();
  if (StackBase) {
    // Recycling fast path: same mapping, no syscalls. The previous fiber
    // abandoned frames here; clear their stale sanitizer poison.
    fsmcAsanUnpoison(StackBase + Page, Usable);
  } else {
    char *Map;
    if (Pool) {
      Map = Pool->acquire(Wanted);
    } else {
      void *Raw = mmap(nullptr, Wanted, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      Map = Raw == MAP_FAILED ? nullptr : static_cast<char *>(Raw);
      if (Map)
        mprotect(Map, size_t(Page), PROT_NONE);
    }
    if (!Map)
      return false;
    StackBase = Map;
    MappedBytes = Wanted;
    this->Pool = Pool;
  }

  // The stack top is page-aligned, so once the first switch pops this
  // frame, fsmc_fiber_start runs with rsp 16-byte aligned before its call,
  // as the ABI requires. The fiber starts in the FP control state of the
  // context that created it.
  auto *Frame = new (StackBase + MappedBytes - sizeof(FirstFrame)) FirstFrame{};
  Frame->Mxcsr = __builtin_ia32_stmxcsr();
  asm volatile("fnstcw %0" : "=m"(Frame->Fcw));
  Frame->R12 = this;
  Frame->Rbx = &Fiber::start;
  Frame->Ret = &fsmc_fiber_start;
  Sp = Frame;
  AsanStackBottom = StackBase + Page;
  AsanStackSize = Usable;
#if FSMC_TSAN
  // A fresh logical fiber, even on a recycled stack: the old handle's
  // synchronization history must not leak into the new fiber.
  if (TsanFiber)
    __tsan_destroy_fiber(TsanFiber);
  TsanFiber = __tsan_create_fiber(0);
#endif

  this->Entry = Entry;
  this->EntryArg = Arg;
  return true;
}

void Fiber::switchTo(Fiber &From, Fiber &To) {
#if FSMC_TSAN
  // Announce the logical-thread switch before the stacks actually swap.
  // Leaving the host for the first time on this OS thread is when its
  // root-fiber handle becomes known.
  if (!From.StackBase && !HostTsanFiber)
    HostTsanFiber = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(To.StackBase ? To.TsanFiber : HostTsanFiber, 0);
#endif
#if FSMC_ASAN
  // Tell ASan which stack is about to run. A stackless target is the
  // controller, i.e. the host OS-thread stack captured at the first
  // fiber activation on this thread.
  const void *Bottom = To.StackBase ? To.AsanStackBottom : HostStackBottom;
  size_t Size = To.StackBase ? To.AsanStackSize : HostStackSize;
  void *FakeStack = nullptr;
  __sanitizer_start_switch_fiber(&FakeStack, Bottom, Size);
#endif
  assert(To.Sp && "switching to a fiber with no saved context");
  fsmc_fiber_switch(&From.Sp, To.Sp);
#if FSMC_ASAN
  // Control came back to From (possibly much later, from another fiber).
  __sanitizer_finish_switch_fiber(FakeStack, nullptr, nullptr);
#endif
}
