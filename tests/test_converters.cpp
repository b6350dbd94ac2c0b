// Width converter + AXI4->Lite bridge + lite-slave base, including the
// full chain the paper inserts in front of the HWICAP (§III-C).
#include <gtest/gtest.h>

#include "axi/lite_bridge.hpp"
#include "axi/width_converter.hpp"
#include "common/rng.hpp"
#include "sim/simulator.hpp"
#include "testutil.hpp"

namespace rvcap {
namespace {

using axi::AxiToLiteBridge;
using axi::Resp;
using axi::WidthConverter64To32;
using test::bfm_read64;
using test::bfm_write64;
using test::ScratchRegs;

// A 32-bit AXI4 (not lite) echo device used downstream of the width
// converter alone: stores writes, serves reads, 32-bit beats.
class Echo32 : public sim::Component {
 public:
  Echo32() : Component("echo32") {}
  axi::AxiPort port;
  std::map<Addr, u32> mem;

  bool tick() override {
    if (const axi::AxiAr* ar = port.ar.front()) {
      if (port.r.can_push()) {
        port.r.push(axi::AxiR{mem[ar->addr], Resp::kOkay, true});
        port.ar.pop();
      }
    }
    const axi::AxiAw* aw = port.aw.front();
    const axi::AxiW* w = port.w.front();
    if (aw != nullptr && w != nullptr && port.b.can_push()) {
      mem[aw->addr] = static_cast<u32>(w->data);
      port.aw.pop();
      port.w.pop();
      port.b.push(axi::AxiB{Resp::kOkay});
    }
    return true;  // test harness device: never sleeps
  }
  bool busy() const override { return port.has_request(); }
};

struct WidthConvFixture : ::testing::Test {
  WidthConvFixture() : conv("conv") {
    s.add(&conv);
    s.add(&echo);
    pump.conv = &conv;
    pump.echo = &echo;
    s.add(&pump);
  }

  // Shuttles beats between the converter's downstream link and the echo
  // device's port (links are distinct objects; a tiny wire joins them).
  struct Wire : sim::Component {
    Wire() : Component("wire") {}
    WidthConverter64To32* conv = nullptr;
    Echo32* echo = nullptr;
    bool tick() override {
      auto& d = conv->downstream();
      auto& p = echo->port;
      if (d.ar.can_pop() && p.ar.can_push()) p.ar.push(*d.ar.pop());
      if (d.aw.can_pop() && p.aw.can_push()) p.aw.push(*d.aw.pop());
      if (d.w.can_pop() && p.w.can_push()) p.w.push(*d.w.pop());
      if (p.r.can_pop() && d.r.can_push()) d.r.push(*p.r.pop());
      if (p.b.can_pop() && d.b.can_push()) d.b.push(*p.b.pop());
      return true;  // test harness wire: never sleeps
    }
  };

  sim::Simulator s;
  WidthConverter64To32 conv;
  Echo32 echo;
  Wire pump;
};

TEST_F(WidthConvFixture, SplitsFull64BitWriteIntoTwoHalves) {
  EXPECT_EQ(bfm_write64(s, conv.upstream(), 0x100, 0xAAAAAAAA55555555ULL),
            Resp::kOkay);
  EXPECT_EQ(echo.mem[0x100], 0x55555555u);
  EXPECT_EQ(echo.mem[0x104], 0xAAAAAAAAu);
}

TEST_F(WidthConvFixture, LowHalf32BitWriteTargetsLowAddr) {
  bfm_write64(s, conv.upstream(), 0x200, 0x00000000DEADBEEFULL, 0x0F);
  EXPECT_EQ(echo.mem[0x200], 0xDEADBEEFu);
  EXPECT_EQ(echo.mem.count(0x204), 0u);
}

TEST_F(WidthConvFixture, HighHalf32BitWriteTargetsHighAddr) {
  bfm_write64(s, conv.upstream(), 0x204, 0xCAFEF00D00000000ULL, 0xF0);
  EXPECT_EQ(echo.mem[0x204], 0xCAFEF00Du);
  EXPECT_EQ(echo.mem.count(0x200), 0u);
}

TEST_F(WidthConvFixture, Reassembles64BitRead) {
  echo.mem[0x300] = 0x11111111;
  echo.mem[0x304] = 0x22222222;
  const auto [v, r] = bfm_read64(s, conv.upstream(), 0x300);
  EXPECT_EQ(r, Resp::kOkay);
  EXPECT_EQ(v, 0x2222222211111111ULL);
}

TEST_F(WidthConvFixture, Positions32BitReadInAddressedLane) {
  echo.mem[0x404] = 0xABCD1234;
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
  f.echo.mem[0x500] = 0x11111111;
  f.echo.mem[0x504] = 0x22222222;
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

// ---- full chain: 64-bit bus -> width conv -> lite bridge -> registers
struct HwicapPathFixture : ::testing::Test {
  HwicapPathFixture() : conv("conv"), bridge("bridge"), regs("regs") {
    s.add(&conv);
    s.add(&bridge);
    s.add(&regs);
    glue.f = this;
    s.add(&glue);
  }

  struct Glue : sim::Component {
    Glue() : Component("glue") {}
    HwicapPathFixture* f = nullptr;
    bool tick() override {
      auto& c = f->conv.downstream();
      auto& b = f->bridge.upstream();
      if (c.ar.can_pop() && b.ar.can_push()) b.ar.push(*c.ar.pop());
      if (c.aw.can_pop() && b.aw.can_push()) b.aw.push(*c.aw.pop());
      if (c.w.can_pop() && b.w.can_push()) b.w.push(*c.w.pop());
      if (b.r.can_pop() && c.r.can_push()) c.r.push(*b.r.pop());
      if (b.b.can_pop() && c.b.can_push()) c.b.push(*b.b.pop());
      auto& bd = f->bridge.downstream();
      auto& p = f->regs.port();
      if (bd.ar.can_pop() && p.ar.can_push()) p.ar.push(*bd.ar.pop());
      if (bd.aw.can_pop() && p.aw.can_push()) p.aw.push(*bd.aw.pop());
      if (bd.w.can_pop() && p.w.can_push()) p.w.push(*bd.w.pop());
      if (p.r.can_pop() && bd.r.can_push()) bd.r.push(*p.r.pop());
      if (p.b.can_pop() && bd.b.can_push()) bd.b.push(*p.b.pop());
      return true;  // test harness glue: never sleeps
    }
  };

  sim::Simulator s;
  WidthConverter64To32 conv;
  AxiToLiteBridge bridge;
  ScratchRegs regs;
  Glue glue;
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
  // Each hop is registered: the round trip must cost >1 cycle but stay
  // bounded (the CPU-side store cost model depends on this).
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
