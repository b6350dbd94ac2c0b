// CPU software-execution model: the documented Ariane timing behaviour
// the HWICAP measurements depend on.
#include <gtest/gtest.h>

#include "cpu/cpu.hpp"
#include "mem/sram.hpp"
#include "sim/simulator.hpp"
#include "soc/ariane_soc.hpp"
#include "testutil.hpp"

namespace rvcap {
namespace {

using cpu::CpuContext;
using cpu::CpuTimingModel;
using soc::ArianeSoc;
using soc::MemoryMap;
using soc::SocConfig;

struct CpuFixture : ::testing::Test {
  CpuFixture() : cpu(s), mem("mem", 65536), xbar("xbar") {
    xbar.add_manager(&cpu.port());
    xbar.add_subordinate(axi::AddrRange{0, 65536}, &mem.port());
    s.add(&xbar);
    s.add(&mem);
  }
  sim::Simulator s;
  CpuContext cpu;
  mem::AxiSram mem;
  axi::AxiCrossbar xbar;
};

TEST_F(CpuFixture, UncachedAccessCostsPipelineDrain) {
  const CpuTimingModel tm;
  const Cycles t0 = s.now();
  cpu.store32_uncached(0x100, 7);
  const Cycles store_cost = s.now() - t0;
  EXPECT_GE(store_cost, tm.uncached_access_core_cycles);
  // Core drain + a short bus round trip, but no runaway.
  EXPECT_LE(store_cost, tm.uncached_access_core_cycles + 24);

  const Cycles t1 = s.now();
  cpu.store64(0x108, 9);  // cached store: far cheaper on the core side
  const Cycles cached_cost = s.now() - t1;
  EXPECT_LT(cached_cost, store_cost);
}

TEST_F(CpuFixture, Lane32BitSemantics) {
  cpu.store64(0x200, 0);
  cpu.store32_uncached(0x200, 0x11111111);
  cpu.store32_uncached(0x204, 0x22222222);
  EXPECT_EQ(cpu.load32_uncached(0x200), 0x11111111u);
  EXPECT_EQ(cpu.load32_uncached(0x204), 0x22222222u);
  EXPECT_EQ(cpu.load64(0x200), 0x2222222211111111ULL);
}

TEST_F(CpuFixture, ByteAccess) {
  cpu.store64(0x300, 0);
  cpu.store8(0x303, 0xAB);
  EXPECT_EQ(cpu.load8(0x303), 0xAB);
  EXPECT_EQ(cpu.load64(0x300), 0xAB000000ULL);
}

TEST_F(CpuFixture, SpendAdvancesTimeExactly) {
  const CpuTimingModel tm;
  const Cycles t0 = s.now();
  cpu.spend_instructions(100);
  EXPECT_EQ(s.now() - t0, 100 * tm.cycles_per_instruction);
  const Cycles t1 = s.now();
  cpu.spend_loop_overhead();
  EXPECT_EQ(s.now() - t1, tm.loop_overhead_cycles);
  const Cycles t2 = s.now();
  cpu.spend_call_overhead();
  EXPECT_EQ(s.now() - t2, tm.call_overhead_cycles);
}

TEST_F(CpuFixture, BufferTransfersAmortizeToOneCyclePerBeat) {
  std::vector<u8> data(4096);
  for (usize i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(i);
  const Cycles t0 = s.now();
  cpu.write_buffer(0x1000, data);
  const Cycles write_cost = s.now() - t0;
  // 512 beats; cached streaming should land near 2-4 cycles/beat
  // (burst setup + response amortized), far from 512 blocking stores.
  EXPECT_LT(write_cost, 512 * 8);
  EXPECT_GE(write_cost, 512);

  std::vector<u8> back(4096);
  const Cycles t1 = s.now();
  cpu.read_buffer(0x1000, back);
  EXPECT_LT(s.now() - t1, 512 * 8);
  EXPECT_EQ(back, data);
}

TEST_F(CpuFixture, BusCountersTrack) {
  const u64 r0 = cpu.bus_reads(), w0 = cpu.bus_writes();
  cpu.store64(0x10, 1);
  (void)cpu.load64(0x10);
  EXPECT_EQ(cpu.bus_writes(), w0 + 1);
  EXPECT_EQ(cpu.bus_reads(), r0 + 1);
}

TEST(CpuTimingConstants, MatchTheDocumentedCalibration) {
  const CpuTimingModel tm;
  // These constants reproduce §IV-B; changing them silently would skew
  // the paper-facing numbers, so pin them here.
  EXPECT_EQ(tm.uncached_access_core_cycles, 36u);
  EXPECT_EQ(tm.loop_overhead_cycles, 44u);
  EXPECT_EQ(tm.irq_entry_cycles, 40u);
}

TEST(CpuIrqPath, WaitForIrqClaimsAndCompletes) {
  ArianeSoc soc((SocConfig()));
  // Enable SPI source, then raise it manually.
  soc.cpu().store32_uncached(
      MemoryMap::kPlic.base + irq::Plic::kEnableBase,
      1u << soc::IrqMap::kSpi);
  soc.plic().set_source_level(soc::IrqMap::kSpi, true);
  const u32 src = soc.cpu().wait_for_irq(
      soc.plic(), MemoryMap::kPlic.base + irq::Plic::kClaimComplete, 10000);
  EXPECT_EQ(src, soc::IrqMap::kSpi);
  soc.plic().set_source_level(soc::IrqMap::kSpi, false);
  soc.cpu().complete_irq(
      MemoryMap::kPlic.base + irq::Plic::kClaimComplete, src);
  soc.sim().run_cycles(4);
  EXPECT_FALSE(soc.plic().eip());
}

TEST(CpuIrqPath, WaitForIrqTimesOut) {
  ArianeSoc soc((SocConfig()));
  const u32 src = soc.cpu().wait_for_irq(
      soc.plic(), MemoryMap::kPlic.base + irq::Plic::kClaimComplete, 500);
  EXPECT_EQ(src, 0u);
}

TEST(CpuWatchdog, WedgedSubordinateTimesOutInsteadOfHanging) {
  // Nothing answers the CPU's port. Each wait ends at the kernel
  // watchdog, is counted, and (scheduled kernel, nothing active) costs
  // one time jump: responses that never come, then request pushes that
  // never find room once the request channels are full.
  sim::Simulator s;
  CpuContext cpu(s);
  constexpr Cycles kWatchdog = sim::Simulator::kDefaultWatchdog;
  const Cycles drain = CpuTimingModel{}.uncached_access_core_cycles;

  EXPECT_EQ(cpu.load32_uncached(0x100), 0u);  // response timeout
  EXPECT_EQ(s.now(), drain + kWatchdog);
  EXPECT_EQ(cpu.load32_uncached(0x100), 0u);  // fills the AR channel
  EXPECT_EQ(cpu.load32_uncached(0x100), 0u);  // no room for the AR
  EXPECT_EQ(cpu.bus_reads(), 2u);
  EXPECT_EQ(cpu.bus_timeouts(), 3u);

  cpu.store32_uncached(0x100, 1);  // response timeout
  cpu.store32_uncached(0x100, 2);  // fills the AW channel
  cpu.store32_uncached(0x100, 3);  // no room for the AW
  EXPECT_EQ(cpu.bus_writes(), 2u);
  EXPECT_EQ(cpu.bus_timeouts(), 6u);
  EXPECT_EQ(s.now(), 6 * (drain + kWatchdog));
  EXPECT_EQ(s.stats().ticks_issued, 0u);
}

}  // namespace
}  // namespace rvcap
