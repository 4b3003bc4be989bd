//===- tests/core/WireTest.cpp --------------------------------------------===//
//
// Unit tests for the fleet's pipe protocol (core/Wire.h): a work unit
// round-trips through WireWriter::unit / WireReader::unit with every
// choice field intact, a record cut short anywhere marks the reader bad
// instead of reading past its end, and a unit whose frozen length runs
// past its prefix is refused -- the worker drops such a lease and the
// coordinator treats such a remainder as a garbled commit.
//
//===----------------------------------------------------------------------===//

#include "core/Wire.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace fsmc;
using wire::FrameParser;
using wire::WireReader;
using wire::WireWriter;

namespace {

/// A prefix whose records differ in every field, masks included.
std::vector<ScheduleChoice> samplePrefix() {
  return {{0, 2, true, 0, 0},
          {1, 3, true, 0x5, 0},
          {2, 4, false, 0, uint64_t(1) << 33},
          {1, 2, true, 0x3, uint64_t(1) << 40}};
}

void expectSameChoices(const std::vector<ScheduleChoice> &A,
                       const std::vector<ScheduleChoice> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    SCOPED_TRACE(I);
    EXPECT_EQ(A[I].Chosen, B[I].Chosen);
    EXPECT_EQ(A[I].Num, B[I].Num);
    EXPECT_EQ(A[I].Backtrack, B[I].Backtrack);
    EXPECT_EQ(A[I].SleepMask, B[I].SleepMask);
    EXPECT_EQ(A[I].FlushMask, B[I].FlushMask);
  }
}

WireReader readerOf(const std::string &Buf) {
  return WireReader{Buf.data(), Buf.size()};
}

} // namespace

TEST(Wire, UnitRoundTripsBetweenOtherFields) {
  const std::vector<ScheduleChoice> P = samplePrefix();
  WireWriter W;
  W.u64(42);
  for (size_t Frozen : {size_t(0), size_t(2), P.size()})
    W.unit({P, Frozen});
  W.unit({});
  W.u8(7);

  WireReader R = readerOf(W.Buf);
  EXPECT_EQ(R.u64(), 42u);
  for (size_t Frozen : {size_t(0), size_t(2), P.size()}) {
    SCOPED_TRACE(Frozen);
    CheckpointUnit U = R.unit();
    EXPECT_EQ(U.FrozenLen, Frozen);
    expectSameChoices(U.Prefix, P);
  }
  CheckpointUnit Root = R.unit();
  EXPECT_EQ(Root.FrozenLen, 0u);
  EXPECT_TRUE(Root.Prefix.empty());
  EXPECT_EQ(R.u8(), 7u);
  EXPECT_TRUE(R.Ok);
  EXPECT_EQ(R.N, 0u) << "the reader must consume exactly what was written";
}

TEST(Wire, TruncatedUnitMarksTheReaderBad) {
  WireWriter W;
  W.unit({samplePrefix(), 1});
  for (size_t Keep = 0; Keep < W.Buf.size(); ++Keep) {
    SCOPED_TRACE(Keep);
    std::string Cut = W.Buf.substr(0, Keep);
    WireReader R = readerOf(Cut);
    (void)R.unit();
    EXPECT_FALSE(R.Ok);
  }
}

TEST(Wire, FrozenLengthPastThePrefixIsRefused) {
  const std::vector<ScheduleChoice> P = samplePrefix();
  WireWriter W;
  W.unit({P, P.size() + 1});
  WireReader R = readerOf(W.Buf);
  (void)R.unit();
  EXPECT_FALSE(R.Ok);

  WireWriter Empty;
  Empty.unit({{}, 1});
  WireReader RE = readerOf(Empty.Buf);
  (void)RE.unit();
  EXPECT_FALSE(RE.Ok);

  // A bad unit poisons the rest of the record, as a short one does.
  WireWriter Then;
  Then.unit({P, P.size() + 1});
  Then.u32(9);
  WireReader RT = readerOf(Then.Buf);
  (void)RT.unit();
  EXPECT_EQ(RT.u32(), 0u);
  EXPECT_FALSE(RT.Ok);
}

TEST(Wire, FramedUnitSurvivesByteAtATimeDelivery) {
  WireWriter W;
  W.unit({samplePrefix(), 3});
  std::string Frame(1, char(1));
  uint32_t Len = uint32_t(W.Buf.size());
  Frame.append(reinterpret_cast<const char *>(&Len), sizeof Len);
  Frame += W.Buf;

  FrameParser Frames;
  int Delivered = 0;
  for (char C : Frame)
    Frames.feed(&C, 1, [&](uint8_t Tag, WireReader R) {
      ++Delivered;
      EXPECT_EQ(Tag, 1u);
      CheckpointUnit U = R.unit();
      EXPECT_TRUE(R.Ok);
      EXPECT_EQ(U.FrozenLen, 3u);
      expectSameChoices(U.Prefix, samplePrefix());
    });
  EXPECT_EQ(Delivered, 1);
  EXPECT_FALSE(Frames.hasPartial());
}
