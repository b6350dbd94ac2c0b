// The CPU-side register path (axi::LitePath): its 64->32 split, its
// AXI4->Lite conversion and the hop timing of the converter chain it
// stands for in front of the HWICAP (§III-C), plus the lite-slave base.
#include <gtest/gtest.h>

#include "axi/lite_path.hpp"
#include "common/rng.hpp"
#include "sim/simulator.hpp"
#include "testutil.hpp"

namespace rvcap {
namespace {

using axi::LitePath;
using axi::Resp;
using test::bfm_read64;
using test::bfm_write64;
using test::ScratchRegs;

// The 64->32 split on its own: a zero-latency register file behind a
// direct path stores writes and serves reads per 32-bit word.
struct WidthConvFixture : ::testing::Test {
  WidthConvFixture() : conv("conv", echo.port()) {
    s.add(&conv);
    s.add(&echo);
  }

  sim::Simulator s;
  ScratchRegs echo{"echo32", 0};
  LitePath conv;
};

TEST_F(WidthConvFixture, SplitsFull64BitWriteIntoTwoHalves) {
  EXPECT_EQ(bfm_write64(s, conv.upstream(), 0x100, 0xAAAAAAAA55555555ULL),
            Resp::kOkay);
  EXPECT_EQ(echo.regs[0x100], 0x55555555u);
  EXPECT_EQ(echo.regs[0x104], 0xAAAAAAAAu);
}

TEST_F(WidthConvFixture, LowHalf32BitWriteTargetsLowAddr) {
  bfm_write64(s, conv.upstream(), 0x200, 0x00000000DEADBEEFULL, 0x0F);
  EXPECT_EQ(echo.regs[0x200], 0xDEADBEEFu);
  EXPECT_EQ(echo.regs.count(0x204), 0u);
}

TEST_F(WidthConvFixture, HighHalf32BitWriteTargetsHighAddr) {
  bfm_write64(s, conv.upstream(), 0x204, 0xCAFEF00D00000000ULL, 0xF0);
  EXPECT_EQ(echo.regs[0x204], 0xCAFEF00Du);
  EXPECT_EQ(echo.regs.count(0x200), 0u);
}

TEST_F(WidthConvFixture, Reassembles64BitRead) {
  echo.regs[0x300] = 0x11111111;
  echo.regs[0x304] = 0x22222222;
  const auto [v, r] = bfm_read64(s, conv.upstream(), 0x300);
  EXPECT_EQ(r, Resp::kOkay);
  EXPECT_EQ(v, 0x2222222211111111ULL);
}

TEST_F(WidthConvFixture, Positions32BitReadInAddressedLane) {
  echo.regs[0x404] = 0xABCD1234;
  conv.upstream().ar.push(axi::AxiAr{0x404, 0, 2});  // 32-bit read
  ASSERT_TRUE(s.run_until([&] { return conv.upstream().r.can_pop(); }, 1000));
  const axi::AxiR r = *conv.upstream().r.pop();
  EXPECT_EQ(r.data >> 32, 0xABCD1234u);  // high lane for addr bit2=1
}

// The completion of a read finds the upstream R FIFO full: the last
// half must stay in the downstream FIFO until the completion can be
// pushed, and the read must complete once the FIFO drains.
void read_behind_full_response_fifo(WidthConvFixture& f, Addr addr, u8 size,
                                    u64 expect) {
  f.echo.regs[0x500] = 0x11111111;
  f.echo.regs[0x504] = 0x22222222;
  auto& up = f.conv.upstream();
  usize filler = 0;
  while (up.r.push(axi::AxiR{0xF111, Resp::kOkay, true})) ++filler;
  up.ar.push(axi::AxiAr{addr, 0, size});
  f.s.run_cycles(100);  // the echo answers; the completion is blocked
  ASSERT_EQ(up.r.size(), filler);
  for (usize i = 0; i < filler; ++i) up.r.pop();
  ASSERT_TRUE(f.s.run_until([&] { return up.r.can_pop(); }, 1000));
  const axi::AxiR r = *up.r.pop();
  EXPECT_EQ(r.resp, Resp::kOkay);
  EXPECT_EQ(r.data, expect);
}

TEST_F(WidthConvFixture, Read32WaitsForRoomInFullResponseFifo) {
  read_behind_full_response_fifo(*this, 0x504, 2, 0x2222222200000000ULL);
}

TEST_F(WidthConvFixture, Read64WaitsForRoomInFullResponseFifo) {
  read_behind_full_response_fifo(*this, 0x500, 3, 0x2222222211111111ULL);
}

TEST_F(WidthConvFixture, BurstRejectedWithSlvErr) {
  conv.upstream().ar.push(axi::AxiAr{0x0, 3, 3});
  ASSERT_TRUE(s.run_until([&] { return conv.upstream().r.can_pop(); }, 1000));
  EXPECT_EQ(conv.upstream().r.pop()->resp, Resp::kSlvErr);
}

TEST_F(WidthConvFixture, RandomWriteReadRoundtrip) {
  SplitMix64 rng(123);
  for (int i = 0; i < 50; ++i) {
    const Addr a = (rng.next_below(256)) * 8;
    const u64 v = rng.next();
    bfm_write64(s, conv.upstream(), a, v);
    EXPECT_EQ(bfm_read64(s, conv.upstream(), a).first, v) << "addr " << a;
  }
}

// ---- the HWICAP's path: 64-bit bus -> register path -> registers
struct HwicapPathFixture : ::testing::Test {
  HwicapPathFixture() : conv("conv", regs.port()) {
    s.add(&conv);
    s.add(&regs);
  }

  sim::Simulator s;
  ScratchRegs regs{"regs"};
  LitePath conv;
};

TEST_F(HwicapPathFixture, Register32BitWriteArrives) {
  bfm_write64(s, conv.upstream(), 0x10C, u64{0x00000001} << 32, 0xF0);
  ASSERT_EQ(regs.write_log.size(), 1u);
  EXPECT_EQ(regs.write_log[0].first, 0x10Cu);
  EXPECT_EQ(regs.write_log[0].second, 1u);
}

TEST_F(HwicapPathFixture, RegisterReadBack) {
  regs.regs[0x114] = 1024;  // e.g. HWICAP write-FIFO vacancy
  conv.upstream().ar.push(axi::AxiAr{0x114, 0, 2});
  ASSERT_TRUE(s.run_until([&] { return conv.upstream().r.can_pop(); }, 1000));
  EXPECT_EQ(conv.upstream().r.pop()->data >> 32, 1024u);
}

TEST_F(HwicapPathFixture, ChainAddsPipelineLatency) {
  // Each hop of the chain is registered: the round trip must cost >1
  // cycle but stay bounded (the CPU-side store cost model depends on
  // this; MmioLatency pins the exact figures).
  const Cycles t0 = s.now();
  bfm_write64(s, conv.upstream(), 0x100, 5, 0x0F);
  const Cycles dt = s.now() - t0;
  EXPECT_GE(dt, 4u);
  EXPECT_LE(dt, 32u);
}

TEST_F(HwicapPathFixture, BackToBackWritesAllArrive) {
  for (u32 i = 0; i < 20; ++i) {
    bfm_write64(s, conv.upstream(), 0x100, i, 0x0F);
  }
  ASSERT_EQ(regs.write_log.size(), 20u);
  for (u32 i = 0; i < 20; ++i) EXPECT_EQ(regs.write_log[i].second, i);
}

TEST(LiteSlave, LatencyIsConfigurable) {
  sim::Simulator s;
  ScratchRegs fast("fast", 0);
  ScratchRegs slow("slow", 8);
  s.add(&fast);
  s.add(&slow);
  fast.port().ar.push(axi::LiteAr{0});
  slow.port().ar.push(axi::LiteAr{0});
  ASSERT_TRUE(s.run_until([&] { return fast.port().r.can_pop(); }, 100));
  const Cycles t_fast = s.now();
  ASSERT_TRUE(s.run_until([&] { return slow.port().r.can_pop(); }, 100));
  EXPECT_GT(s.now(), t_fast);
}

}  // namespace
}  // namespace rvcap
