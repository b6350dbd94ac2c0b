// Robustness and property tests: interconnect fuzzing against a
// reference model, filesystem fragmentation, misprogramming, and
// failure-injection scenarios.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>

#include "axi/crossbar.hpp"
#include "bitstream/generator.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "cpu/cpu.hpp"
#include "driver/rvcap_driver.hpp"
#include "mem/sram.hpp"
#include "soc/ariane_soc.hpp"
#include "storage/fat32.hpp"
#include "testutil.hpp"

namespace rvcap {
namespace {

using soc::ArianeSoc;
using soc::MemoryMap;
using soc::SocConfig;

// ---------------------------------------------------------------------------
// Crossbar fuzz: two managers, two memories, random traffic vs. a
// reference model (addresses disjoint per manager to keep ordering
// deterministic).
// ---------------------------------------------------------------------------

class XbarFuzz : public ::testing::TestWithParam<u64> {};

TEST_P(XbarFuzz, RandomTrafficMatchesReferenceModel) {
  sim::Simulator s;
  axi::AxiCrossbar xbar("xbar");
  mem::AxiSram mem_a("a", 8192), mem_b("b", 8192);
  axi::AxiPort m0, m1;
  xbar.add_manager(&m0);
  xbar.add_manager(&m1);
  xbar.add_subordinate(axi::AddrRange{0x0000, 0x2000}, &mem_a.port());
  xbar.add_subordinate(axi::AddrRange{0x8000, 0x2000}, &mem_b.port());
  s.add(&xbar);
  s.add(&mem_a);
  s.add(&mem_b);

  SplitMix64 rng(GetParam());
  std::map<Addr, u64> ref;

  for (int step = 0; step < 300; ++step) {
    axi::AxiPort& port = (rng.next() & 1) ? m1 : m0;
    const bool manager1 = (&port == &m1);
    // Manager 0 owns even 8-byte slots, manager 1 odd ones: no cross-
    // manager write races, matching real software partitioning.
    Addr addr = (rng.next_below(512) * 16) + (manager1 ? 8 : 0);
    if (rng.next() & 1) addr += 0x8000;
    if (addr >= 0x2000 && addr < 0x8000) addr &= 0x1FFF;

    if (rng.next() & 1) {
      const u64 value = rng.next();
      EXPECT_EQ(test::bfm_write64(s, port, addr, value), axi::Resp::kOkay);
      ref[addr] = value;
    } else {
      const auto [v, resp] = test::bfm_read64(s, port, addr);
      EXPECT_EQ(resp, axi::Resp::kOkay);
      const auto it = ref.find(addr);
      EXPECT_EQ(v, it == ref.end() ? 0 : it->second) << "addr " << addr;
    }
  }
  EXPECT_EQ(xbar.decode_errors(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, XbarFuzz,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// ---------------------------------------------------------------------------
// FAT32 fragmentation: interleaved writes/deletes force fragmented
// cluster chains; data must survive.
// ---------------------------------------------------------------------------

TEST(Fat32Fragmentation, FragmentedChainsStayIntact) {
  storage::SdCard card(131072);
  storage::MemBlockIo io(card);
  ASSERT_EQ(storage::fat32_format(io), Status::kOk);
  storage::Fat32Volume vol(io);
  ASSERT_EQ(vol.mount(), Status::kOk);

  SplitMix64 rng(123);
  // Interleave small files to checkerboard the FAT...
  std::vector<u8> small(4096);
  for (int i = 0; i < 40; ++i) {
    for (auto& b : small) b = rng.next_byte();
    char name[16];
    std::snprintf(name, sizeof name, "S%02d.BIN", i);
    ASSERT_EQ(vol.write_file(name, small), Status::kOk);
  }
  // ...then free every other one...
  for (int i = 0; i < 40; i += 2) {
    char name[16];
    std::snprintf(name, sizeof name, "S%02d.BIN", i);
    ASSERT_EQ(vol.remove(name), Status::kOk);
  }
  // ...and write a large file into the holes (fragmented by design).
  std::vector<u8> big(40 * 4096);
  for (auto& b : big) b = rng.next_byte();
  ASSERT_EQ(vol.write_file("BIG.BIN", big), Status::kOk);

  std::vector<u8> back;
  ASSERT_EQ(vol.read_file("BIG.BIN", back), Status::kOk);
  EXPECT_EQ(back, big);
  // The survivors too.
  for (int i = 1; i < 40; i += 2) {
    char name[16];
    std::snprintf(name, sizeof name, "S%02d.BIN", i);
    u32 size = 0;
    EXPECT_EQ(vol.file_size(name, &size), Status::kOk) << name;
    EXPECT_EQ(size, 4096u);
  }
}

// ---------------------------------------------------------------------------
// Misprogramming and failure injection on the full SoC
// ---------------------------------------------------------------------------

struct Misuse : ::testing::Test {
  Misuse() : soc(SocConfig{}), drv(soc.cpu(), soc.plic()) {}
  ArianeSoc soc;
  driver::RvCapDriver drv;
};

constexpr u32 kIsoSlots = 3;

// A 3-slot SoC whose driver is bound to one slot's RP-control window,
// with the acceleration streams routed to that slot's RM port.
struct SlotWorld {
  static SocConfig three_slots() {
    SocConfig cfg;
    cfg.num_slots = kIsoSlots;
    return cfg;
  }
  explicit SlotWorld(u32 slot)
      : soc(three_slots()), drv(soc.cpu(), soc.plic()) {
    drv.bind_slot(slot);
    drv.select_rm_slot(slot);
  }
  ArianeSoc soc;
  driver::RvCapDriver drv;
};

void reconfig_without_select_icap(u32 slot) {
  SCOPED_TRACE("slot " + std::to_string(slot));
  SlotWorld w(slot);
  const auto pbit = bitstream::generate_partial_bitstream(
      w.soc.device(), w.soc.slot_partition(slot), {accel::kRmIdSobel, "s"});
  w.soc.ddr().poke(MemoryMap::kPbitStagingBase, pbit);
  // Forgotten select_ICAP: stream goes to the (decoupled) RM route.
  w.drv.decouple_accel(true);
  ASSERT_EQ(w.drv.reconfigure_RP(MemoryMap::kPbitStagingBase,
                                 static_cast<u32>(pbit.size()),
                                 driver::DmaMode::kInterrupt),
            Status::kOk);  // the DMA itself completes fine
  w.drv.decouple_accel(false);
  EXPECT_EQ(w.soc.icap().words_consumed(), 0u);
  EXPECT_FALSE(
      w.soc.config_memory().partition_state(w.soc.slot_handle(slot)).loaded);
  // All beats were dropped by this slot's isolator, none leaked to the
  // RM, and no other slot's isolator saw any.
  for (u32 s = 0; s < kIsoSlots; ++s) {
    EXPECT_EQ(w.soc.rvcap().isolator(s).dropped_beats(),
              s == slot ? (pbit.size() + 7) / 8 : 0u)
        << "isolator " << s;
  }
}

TEST_F(Misuse, ReconfigWithoutSelectIcapNeverTouchesIcap) {
  ScopedLogLevel quiet(LogLevel::kError);
  for (u32 slot = 0; slot < kIsoSlots; ++slot) {
    reconfig_without_select_icap(slot);
  }
}

TEST_F(Misuse, ZeroLengthDmaWriteIsIgnored) {
  ScopedLogLevel quiet(LogLevel::kError);
  soc.cpu().store32_uncached(MemoryMap::kDmaCtrl.base +
                                 rvcap_ctrl::AxiDma::kMm2sCr,
                             rvcap_ctrl::AxiDma::kCrRunStop);
  soc.cpu().store32_uncached(MemoryMap::kDmaCtrl.base +
                                 rvcap_ctrl::AxiDma::kMm2sLength,
                             0);
  soc.sim().run_cycles(100);
  EXPECT_TRUE(soc.rvcap().dma().mm2s_idle());
}

void rm_register_access_while_decoupled(u32 slot) {
  SCOPED_TRACE("slot " + std::to_string(slot));
  SlotWorld w(slot);
  // Load a module first so registers exist behind the isolator.
  const auto pbit = bitstream::generate_partial_bitstream(
      w.soc.device(), w.soc.slot_partition(slot), {accel::kRmIdSobel, "s"});
  w.soc.ddr().poke(MemoryMap::kPbitStagingBase, pbit);
  driver::ReconfigModule m{"", accel::kRmIdSobel,
                           MemoryMap::kPbitStagingBase,
                           static_cast<u32>(pbit.size())};
  ASSERT_EQ(w.drv.init_reconfig_process(m, driver::DmaMode::kInterrupt),
            Status::kOk);
  w.soc.sim().run_cycles(4);
  ASSERT_EQ(w.drv.rm_reg_read(0), 512u);

  w.drv.decouple_accel(true);
  EXPECT_EQ(w.drv.rm_reg_read(0), 0u);  // reads as zeros while isolated
  w.drv.rm_reg_write(0, 64);            // dropped
  // The other slots' windows stay coupled while this one is isolated.
  for (u32 s = 0; s < kIsoSlots; ++s) {
    if (s == slot) continue;
    w.drv.bind_slot(s);
    (void)w.drv.rm_reg_read(0);
  }
  w.drv.bind_slot(slot);
  w.drv.decouple_accel(false);
  EXPECT_EQ(w.drv.rm_reg_read(0), 512u) << "write must not have landed";
  const auto& rp = w.soc.rvcap().rp_control();
  for (u32 s = 0; s < kIsoSlots; ++s) {
    EXPECT_EQ(rp.blocked_rm_accesses(s), s == slot ? 2u : 0u)
        << "window " << s;
  }
}

TEST_F(Misuse, RmRegisterAccessWhileDecoupledIsBlocked) {
  for (u32 slot = 0; slot < kIsoSlots; ++slot) {
    rm_register_access_while_decoupled(slot);
  }
}

TEST_F(Misuse, UnmappedCpuAccessGetsErrorNotHang) {
  ScopedLogLevel quiet(LogLevel::kOff);
  const u64 errors_before = soc.cpu().bus_errors();
  (void)soc.cpu().load32_uncached(0x7000'0000);  // hole in the map
  EXPECT_EQ(soc.cpu().bus_errors(), errors_before + 1);
}

TEST_F(Misuse, PlicClaimWithNothingPendingReturnsZero) {
  const u32 src = soc.cpu().load32_uncached(
      MemoryMap::kPlic.base + irq::Plic::kClaimComplete);
  EXPECT_EQ(src, 0u);
}

TEST_F(Misuse, BackToBackReconfigurationsAreStable) {
  // Ten consecutive swaps; every one must land cleanly.
  for (int i = 0; i < 10; ++i) {
    const u32 rm = (i % 3) + 1;
    const auto pbit = bitstream::generate_partial_bitstream(
        soc.device(), soc.rp0(), {rm, "m"});
    soc.ddr().poke(MemoryMap::kPbitStagingBase, pbit);
    driver::ReconfigModule m{"", rm, MemoryMap::kPbitStagingBase,
                             static_cast<u32>(pbit.size())};
    ASSERT_EQ(drv.init_reconfig_process(m, driver::DmaMode::kInterrupt),
              Status::kOk)
        << "iteration " << i;
    const auto st = soc.config_memory().partition_state(soc.rp0_handle());
    ASSERT_TRUE(st.loaded);
    ASSERT_EQ(st.rm_id, rm);
  }
  EXPECT_FALSE(soc.icap().crc_error());
}

// ---------------------------------------------------------------------------
// CPU buffer transfers: alignment edge cases
// ---------------------------------------------------------------------------

class BufferAlignment : public ::testing::TestWithParam<std::tuple<u32, u32>> {
};

TEST_P(BufferAlignment, ReadWriteBufferRoundtrip) {
  const auto [offset, len] = GetParam();
  ArianeSoc soc((SocConfig()));
  SplitMix64 rng(offset * 1000 + len);
  std::vector<u8> data(len);
  for (auto& b : data) b = rng.next_byte();

  const Addr base = MemoryMap::kDdr.base + 0x5000 + offset;
  soc.cpu().write_buffer(base, data);
  std::vector<u8> back(len, 0xEE);
  soc.cpu().read_buffer(base, back);
  EXPECT_EQ(back, data);

  // And the bytes really are in DDR where they belong.
  std::vector<u8> direct(len);
  soc.ddr().peek(base, direct);
  EXPECT_EQ(direct, data);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BufferAlignment,
    ::testing::Combine(::testing::Values(0u, 1u, 3u, 7u),
                       ::testing::Values(1u, 7u, 8u, 65u, 513u)));

}  // namespace
}  // namespace rvcap
