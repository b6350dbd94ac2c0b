// The CPU's register windows (cpu::CpuContext::add_register_window): the
// 64->32 split of the paper's width converter, done by the CPU one
// 32-bit half at a time, and the hop timing of the converter chain in
// front of the HWICAP (§III-C).
#include <gtest/gtest.h>

#include "axi/crossbar.hpp"
#include "common/rng.hpp"
#include "cpu/cpu.hpp"
#include "sim/simulator.hpp"
#include "testutil.hpp"

namespace rvcap {
namespace {

using cpu::CpuContext;
using test::ScratchRegs;

/// A register file behind one direct register window of the CPU.
struct RegisterWindowFixture : ::testing::Test {
  RegisterWindowFixture() : cpu(s), xbar("xbar") {
    xbar.add_manager(&cpu.port());
    cpu.add_register_window(axi::AddrRange{0, 0x1000}, &regs,
                            CpuContext::kDirectHops, xbar);
    s.add(&xbar);
    s.add(&regs);
  }

  sim::Simulator s;
  CpuContext cpu;
  axi::AxiCrossbar xbar;
  ScratchRegs regs{"regs"};
};

// The 64->32 split: 32-bit stores reach the addressed word only, and a
// 64-bit load is served as two 32-bit reads, low word first.
using WidthConvFixture = RegisterWindowFixture;

TEST_F(WidthConvFixture, LowHalf32BitWriteTargetsLowAddr) {
  cpu.store32_uncached(0x200, 0xDEADBEEF);
  EXPECT_EQ(regs.regs[0x200], 0xDEADBEEFu);
  EXPECT_EQ(regs.regs.count(0x204), 0u);
}

TEST_F(WidthConvFixture, HighHalf32BitWriteTargetsHighAddr) {
  cpu.store32_uncached(0x204, 0xCAFEF00D);
  EXPECT_EQ(regs.regs[0x204], 0xCAFEF00Du);
  EXPECT_EQ(regs.regs.count(0x200), 0u);
}

TEST_F(WidthConvFixture, Reassembles64BitRead) {
  regs.regs[0x300] = 0x11111111;
  regs.regs[0x304] = 0x22222222;
  EXPECT_EQ(cpu.load64_uncached(0x300), 0x2222222211111111ULL);
  EXPECT_EQ(cpu.bus_errors(), 0u);
}

TEST_F(WidthConvFixture, Positions32BitReadInAddressedLane) {
  regs.regs[0x400] = 0x55555555;
  regs.regs[0x404] = 0xABCD1234;
  EXPECT_EQ(cpu.load32_uncached(0x404), 0xABCD1234u);
  EXPECT_EQ(cpu.load32_uncached(0x400), 0x55555555u);
}

TEST_F(WidthConvFixture, RandomWriteReadRoundtrip) {
  SplitMix64 rng(123);
  for (int i = 0; i < 50; ++i) {
    const Addr a = (rng.next_below(256)) * 8;
    const u64 v = rng.next();
    cpu.store32_uncached(a, static_cast<u32>(v));
    cpu.store32_uncached(a + 4, static_cast<u32>(v >> 32));
    EXPECT_EQ(cpu.load64_uncached(a), v) << "addr " << a;
  }
  EXPECT_EQ(cpu.bus_errors(), 0u);
}

// ---- the HWICAP's window: 64-bit bus -> converter chain -> registers
using HwicapPathFixture = RegisterWindowFixture;

TEST_F(HwicapPathFixture, Register32BitWriteArrives) {
  cpu.store32_uncached(0x10C, 1);
  ASSERT_EQ(regs.write_log.size(), 1u);
  EXPECT_EQ(regs.write_log[0].first, 0x10Cu);
  EXPECT_EQ(regs.write_log[0].second, 1u);
}

TEST_F(HwicapPathFixture, RegisterReadBack) {
  regs.regs[0x114] = 1024;  // e.g. HWICAP write-FIFO vacancy
  EXPECT_EQ(cpu.load32_uncached(0x114), 1024u);
}

TEST_F(HwicapPathFixture, ChainAddsPipelineLatency) {
  // Each hop of the chain is registered: the round trip must cost >1
  // cycle beyond the core's drain but stay bounded (the CPU-side store
  // cost model depends on this; MmioLatency pins the exact figures).
  const Cycles t0 = s.now() + cpu.timing().uncached_access_core_cycles;
  cpu.store32_uncached(0x100, 5);
  const Cycles dt = s.now() - t0;
  EXPECT_GE(dt, 4u);
  EXPECT_LE(dt, 32u);
}

TEST_F(HwicapPathFixture, BackToBackWritesAllArrive) {
  for (u32 i = 0; i < 20; ++i) cpu.store32_uncached(0x100, i);
  ASSERT_EQ(regs.write_log.size(), 20u);
  for (u32 i = 0; i < 20; ++i) EXPECT_EQ(regs.write_log[i].second, i);
}

}  // namespace
}  // namespace rvcap
