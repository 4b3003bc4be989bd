//===- tests/runtime/FiberTest.cpp ----------------------------------------===//

#include "runtime/Fiber.h"
#include "runtime/StackPool.h"

#include <cfenv>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <gtest/gtest.h>
#include <vector>

using namespace fsmc;

namespace {

/// A little ping-pong harness: host <-> fiber.
struct PingPong {
  Fiber Host;
  Fiber Worker;
  std::vector<int> Log;
  int Rounds = 0;

  static void entry(void *Arg) {
    auto *Self = static_cast<PingPong *>(Arg);
    for (int I = 0; I < Self->Rounds; ++I) {
      Self->Log.push_back(100 + I);
      Fiber::switchTo(Self->Worker, Self->Host);
    }
    Self->Log.push_back(999);
    Fiber::switchTo(Self->Worker, Self->Host);
    FAIL() << "fiber resumed after its final switch-away";
  }
};

} // namespace

TEST(Fiber, PingPongInterleaves) {
  PingPong P;
  P.Rounds = 3;
  P.Host.initAsHost();
  ASSERT_TRUE(P.Worker.initWithEntry(64 * 1024, &PingPong::entry, &P));
  for (int I = 0; I < 3; ++I) {
    P.Log.push_back(I);
    Fiber::switchTo(P.Host, P.Worker);
  }
  Fiber::switchTo(P.Host, P.Worker); // Final leg: fiber logs 999.
  EXPECT_EQ(P.Log, (std::vector<int>{0, 100, 1, 101, 2, 102, 999}));
}

TEST(Fiber, HasStackReflectsInit) {
  Fiber Host;
  Host.initAsHost();
  EXPECT_FALSE(Host.hasStack());
  PingPong P;
  P.Rounds = 0;
  P.Host.initAsHost();
  ASSERT_TRUE(P.Worker.initWithEntry(64 * 1024, &PingPong::entry, &P));
  EXPECT_TRUE(P.Worker.hasStack());
  Fiber::switchTo(P.Host, P.Worker); // Runs to the 999 log and parks.
  EXPECT_EQ(P.Log, (std::vector<int>{999}));
}

namespace {

struct DeepState {
  Fiber Host;
  Fiber Worker;
  int Result = 0;

  static int collatzSteps(unsigned long N, int Depth) {
    // Some genuine stack usage to exercise the mapped stack.
    volatile char Pad[512];
    Pad[0] = char(Depth);
    (void)Pad;
    if (N == 1)
      return Depth;
    return collatzSteps(N % 2 ? 3 * N + 1 : N / 2, Depth + 1);
  }

  static void entry(void *Arg) {
    auto *Self = static_cast<DeepState *>(Arg);
    Self->Result = collatzSteps(27, 0); // 111 steps, ~56 KiB of frames.
    Fiber::switchTo(Self->Worker, Self->Host);
  }
};

} // namespace

TEST(Fiber, SupportsDeepStacks) {
  DeepState D;
  D.Host.initAsHost();
  ASSERT_TRUE(D.Worker.initWithEntry(256 * 1024, &DeepState::entry, &D));
  Fiber::switchTo(D.Host, D.Worker);
  EXPECT_EQ(D.Result, 111);
}

namespace {

struct Counter {
  Fiber Host;
  Fiber Worker;
  int Value = 0;

  static void entry(void *Arg) {
    auto *Self = static_cast<Counter *>(Arg);
    ++Self->Value;
    Fiber::switchTo(Self->Worker, Self->Host);
  }
};

} // namespace

TEST(Fiber, ManyFibersCoexist) {
  Fiber Host;
  Host.initAsHost();
  std::vector<std::unique_ptr<Counter>> Fibers;
  for (int I = 0; I < 50; ++I) {
    auto C = std::make_unique<Counter>();
    C->Host.initAsHost();
    ASSERT_TRUE(C->Worker.initWithEntry(64 * 1024, &Counter::entry, C.get()));
    Fibers.push_back(std::move(C));
  }
  for (auto &C : Fibers)
    Fiber::switchTo(C->Host, C->Worker);
  for (auto &C : Fibers)
    EXPECT_EQ(C->Value, 1);
}

TEST(Fiber, UnstartedFiberIsFreedSafely) {
  // A fiber that is initialized but never switched to must clean up its
  // stack without running the entry.
  auto *C = new Counter();
  C->Host.initAsHost();
  ASSERT_TRUE(C->Worker.initWithEntry(64 * 1024, &Counter::entry, C));
  int Val = C->Value;
  delete C;
  EXPECT_EQ(Val, 0);
}

namespace {

/// Host plus one worker whose entry is a plain function of the harness.
struct Harness {
  Fiber Host;
  Fiber Worker;
  void (*Body)(Harness &) = nullptr;

  static void entry(void *Arg) {
    auto *Self = static_cast<Harness *>(Arg);
    Self->Body(*Self);
    Fiber::switchTo(Self->Worker, Self->Host);
    ADD_FAILURE() << "fiber resumed after its final switch-away";
  }

  void start(void (*B)(Harness &)) {
    Body = B;
    Host.initAsHost();
    ASSERT_TRUE(Worker.initWithEntry(64 * 1024, &Harness::entry, this));
  }

  void yield() { Fiber::switchTo(Worker, Host); }
  void resume() { Fiber::switchTo(Host, Worker); }
};

} // namespace

TEST(Fiber, EntryStackIsAbiAligned) {
  // glibc's vararg prologue spills XMM registers with movaps, which
  // faults on a frame that is 8 bytes off 16-byte alignment.
  static char Buf[32];
  static uintptr_t Frame;
  Harness H;
  H.start([](Harness &) {
    Frame = uintptr_t(__builtin_frame_address(0));
    snprintf(Buf, sizeof(Buf), "%f", 1.5);
  });
  H.resume();
  EXPECT_STREQ(Buf, "1.500000");
  EXPECT_EQ(Frame % 16, 0u);
}

namespace {

/// Mixes callee-saved integer and floating-point locals through \p Rounds
/// calls of \p Between, so the values must survive whatever it does.
uint64_t churn(int Rounds, uint64_t Seed, void (*Between)(void *),
               void *Arg) {
  uint64_t A = Seed, B = Seed * 3 + 1, C = Seed ^ 0x5555, D = Seed + 7,
           E = ~Seed, F = Seed << 3;
  double X = double(Seed) + 0.5, Y = 1.25, Z = -3.0;
  for (int I = 0; I < Rounds; ++I) {
    A += B ^ uint64_t(I);
    B = B * 6364136223846793005ull + C;
    C ^= D >> 3;
    D += E;
    E = (E << 1) | (F >> 63);
    F += A;
    X = X * 0.5 + Y;
    Y = Y + Z * 0.25;
    Z = Z * -1.0 + double(I & 7);
    Between(Arg);
  }
  return A ^ B ^ C ^ D ^ E ^ F ^ uint64_t(X * 1e6) ^ uint64_t(Y * 1e6) ^
         uint64_t(Z * 1e6 + 1e9);
}

void noSwitch(void *) {}

struct ChurnPair {
  Harness H;
  uint64_t FiberResult = 0;
  static constexpr int Rounds = 1000;
};

} // namespace

TEST(Fiber, CalleeSavedStateSurvivesSwitches) {
  static ChurnPair P;
  P.H.start([](Harness &H) {
    P.FiberResult = churn(ChurnPair::Rounds, 42, [](void *Arg) {
      static_cast<Harness *>(Arg)->yield();
    }, &H);
  });
  uint64_t HostResult = churn(ChurnPair::Rounds, 7, [](void *Arg) {
    static_cast<Harness *>(Arg)->resume();
  }, &P.H);
  P.H.resume(); // The fiber's last round ends and it records its result.
  EXPECT_EQ(HostResult, churn(ChurnPair::Rounds, 7, &noSwitch, nullptr));
  EXPECT_EQ(P.FiberResult, churn(ChurnPair::Rounds, 42, &noSwitch, nullptr));
}

TEST(Fiber, RoundingModeIsPerContext) {
  static int SeenAtStart, SeenAfterResume;
  Harness H;
  H.start([](Harness &H) {
    SeenAtStart = fegetround();
    fesetround(FE_UPWARD);
    H.yield();
    SeenAfterResume = fegetround();
  });
  ASSERT_EQ(fegetround(), FE_TONEAREST);
  fesetround(FE_DOWNWARD);
  H.resume();
  EXPECT_EQ(SeenAtStart, FE_TONEAREST) << "host mode leaked into the fiber";
  EXPECT_EQ(fegetround(), FE_DOWNWARD) << "fiber mode leaked into the host";
  H.resume();
  EXPECT_EQ(SeenAfterResume, FE_UPWARD);
  EXPECT_EQ(fegetround(), FE_DOWNWARD);
  fesetround(FE_TONEAREST);
}

TEST(Fiber, ReinitOnRecycledStackRestarts) {
  static std::vector<int> Log;
  Log.clear();
  StackPool Pool;
  Fiber Host;
  Host.initAsHost();
  struct Ctx {
    Fiber *Host, *Worker;
    int Tag;
  };
  Fiber Worker;
  auto Entry = [](void *Arg) {
    auto *C = static_cast<Ctx *>(Arg);
    Log.push_back(C->Tag);
    Fiber::switchTo(*C->Worker, *C->Host);
    Log.push_back(-C->Tag); // Reached only if resumed after the park.
    Fiber::switchTo(*C->Worker, *C->Host);
  };
  Ctx First{&Host, &Worker, 1};
  ASSERT_TRUE(Worker.initWithEntry(64 * 1024, Entry, &First, &Pool));
  Fiber::switchTo(Host, Worker);
  // Abandon the parked fiber and start a new one on the same mapping.
  Ctx Second{&Host, &Worker, 2};
  ASSERT_TRUE(Worker.initWithEntry(64 * 1024, Entry, &Second, &Pool));
  EXPECT_EQ(Pool.stats().Acquires, 1u) << "stack was not recycled in place";
  Fiber::switchTo(Host, Worker);
  Fiber::switchTo(Host, Worker);
  EXPECT_EQ(Log, (std::vector<int>{1, 2, -2}));
}

TEST(Fiber, ExceptionCaughtInsideFiberAfterSwitches) {
  static std::string Caught;
  Harness H;
  H.start([](Harness &H) {
    H.yield();
    try {
      throw std::runtime_error("inside");
    } catch (const std::runtime_error &E) {
      Caught = E.what();
    }
  });
  H.resume();
  EXPECT_EQ(Caught, "");
  H.resume();
  EXPECT_EQ(Caught, "inside");
}
