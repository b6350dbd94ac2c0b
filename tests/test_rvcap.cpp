// RV-CAP controller components: DMA engine, RP control, AXIS2ICAP, and
// the full controller datapath (DDR -> DMA -> switch -> ICAP).
#include <gtest/gtest.h>

#include "bitstream/generator.hpp"
#include "common/bytes.hpp"
#include "common/log.hpp"
#include "common/units.hpp"
#include "cpu/cpu.hpp"
#include "hwicap/hwicap.hpp"
#include "mem/ddr.hpp"
#include "rvcap/controller.hpp"
#include "sim/simulator.hpp"
#include "testutil.hpp"

namespace rvcap {
namespace {

using fabric::case_study_partition;
using fabric::DeviceGeometry;
using rvcap_ctrl::AxiDma;
using rvcap_ctrl::Axis2Icap;
using rvcap_ctrl::RvCapController;

// ---------------------------------------------------------------------------
// DMA engine standalone (directly driving its lite port)
// ---------------------------------------------------------------------------

struct DmaFixture : ::testing::Test {
  DmaFixture() : ddr("ddr"), dma("dma"), plic("plic", 2) {
    xbar.emplace("memxbar");
    xbar->add_manager(&dma.mem_port());
    xbar->add_subordinate(axi::AddrRange{0, 1 << 24}, &ddr.port());
    s.add(&*xbar);
    s.add(&ddr);
    s.add(&dma);
    s.add(&plic);
    dma.set_mm2s_irq(irq::IrqLine(&plic, 1));
    dma.set_s2mm_irq(irq::IrqLine(&plic, 2));
  }

  void reg_write(Addr a, u32 v) {
    dma.port().aw.push(axi::LiteAw{a});
    dma.port().w.push(axi::LiteW{v, 0xF});
    ASSERT_TRUE(s.run_until([&] { return dma.port().b.can_pop(); }, 10000));
    dma.port().b.pop();
  }
  u32 reg_read(Addr a) {
    dma.port().ar.push(axi::LiteAr{a});
    EXPECT_TRUE(s.run_until([&] { return dma.port().r.can_pop(); }, 10000));
    return dma.port().r.pop()->data;
  }

  sim::Simulator s;
  mem::DdrController ddr;
  AxiDma dma;
  irq::Plic plic;
  std::optional<axi::AxiCrossbar> xbar;
};

TEST_F(DmaFixture, Mm2sStreamsBufferFromDdr) {
  for (u32 i = 0; i < 64; ++i) ddr.poke64(0x1000 + 8 * i, 0xAB00 + i);
  reg_write(AxiDma::kMm2sCr, AxiDma::kCrRunStop);
  reg_write(AxiDma::kMm2sSa, 0x1000);
  reg_write(AxiDma::kMm2sLength, 64 * 8);

  std::vector<u64> got;
  bool saw_last = false;
  ASSERT_TRUE(s.run_until(
      [&] {
        while (dma.mm2s_stream().can_pop()) {
          const axi::AxisBeat b = *dma.mm2s_stream().pop();
          got.push_back(b.data);
          saw_last = b.last;
        }
        return got.size() == 64;
      },
      100000));
  EXPECT_TRUE(saw_last);
  for (u32 i = 0; i < 64; ++i) EXPECT_EQ(got[i], 0xAB00 + i);
  EXPECT_TRUE(reg_read(AxiDma::kMm2sSr) & AxiDma::kSrIocIrq);
}

TEST_F(DmaFixture, Mm2sRespectsBurstLimit) {
  // 100 beats with max burst 16 -> at least 7 AR bursts; we just check
  // the transfer completes and streams the exact beat count.
  reg_write(AxiDma::kMm2sCr, AxiDma::kCrRunStop);
  reg_write(AxiDma::kMm2sSa, 0);
  reg_write(AxiDma::kMm2sLength, 100 * 8);
  u32 beats = 0;
  ASSERT_TRUE(s.run_until(
      [&] {
        while (dma.mm2s_stream().can_pop()) {
          dma.mm2s_stream().pop();
          ++beats;
        }
        return dma.mm2s_idle() && beats == 100;
      },
      100000));
}

TEST_F(DmaFixture, Mm2sLengthIgnoredWhileHalted) {
  ScopedLogLevel quiet(LogLevel::kError);
  reg_write(AxiDma::kMm2sSa, 0x1000);
  reg_write(AxiDma::kMm2sLength, 64);  // CR.RS not set
  s.run_cycles(100);
  EXPECT_TRUE(dma.mm2s_idle());
  EXPECT_TRUE(dma.mm2s_stream().empty());
}

TEST_F(DmaFixture, Mm2sInterruptGatedByIrqEn) {
  reg_write(AxiDma::kMm2sCr, AxiDma::kCrRunStop);  // no IOC_IrqEn
  reg_write(AxiDma::kMm2sSa, 0);
  reg_write(AxiDma::kMm2sLength, 8);
  ASSERT_TRUE(s.run_until(
      [&] {
        while (dma.mm2s_stream().can_pop()) dma.mm2s_stream().pop();
        return dma.mm2s_idle();
      },
      100000));
  s.run_cycles(4);
  EXPECT_FALSE(plic.eip()) << "IRQ must stay low without IOC_IrqEn";

  // Enable and re-run in interrupt ("non-blocking") mode.
  reg_write(AxiDma::kMm2sSr, AxiDma::kSrIocIrq);  // clear sticky bit
  reg_write(AxiDma::kMm2sCr, AxiDma::kCrRunStop | AxiDma::kCrIocIrqEn);
  reg_write(AxiDma::kMm2sLength, 8);
  plic.port().aw.push(axi::LiteAw{irq::Plic::kEnableBase});
  plic.port().w.push(axi::LiteW{1u << 1, 0xF});
  ASSERT_TRUE(s.run_until(
      [&] {
        while (dma.mm2s_stream().can_pop()) dma.mm2s_stream().pop();
        return plic.eip();
      },
      100000));
  // W1C clears the interrupt.
  reg_write(AxiDma::kMm2sSr, AxiDma::kSrIocIrq);
  s.run_cycles(4);
  EXPECT_FALSE((reg_read(AxiDma::kMm2sSr) & AxiDma::kSrIocIrq));
}

TEST_F(DmaFixture, S2mmWritesStreamToDdr) {
  reg_write(AxiDma::kS2mmCr, AxiDma::kCrRunStop);
  reg_write(AxiDma::kS2mmDa, 0x4000);
  reg_write(AxiDma::kS2mmLength, 40 * 8);
  u32 fed = 0;
  ASSERT_TRUE(s.run_until(
      [&] {
        if (fed < 40 &&
            dma.s2mm_stream().push(
                axi::AxisBeat{0xCC00u + fed, 0xFF, fed == 39})) {
          ++fed;
        }
        return dma.s2mm_idle() && fed == 40 &&
               (reg_read(AxiDma::kS2mmSr) & AxiDma::kSrIocIrq);
      },
      200000));
  for (u32 i = 0; i < 40; ++i) {
    EXPECT_EQ(ddr.peek64(0x4000 + 8 * i), 0xCC00u + i) << i;
  }
}

TEST_F(DmaFixture, ResetClearsEngineState) {
  reg_write(AxiDma::kMm2sCr, AxiDma::kCrRunStop);
  reg_write(AxiDma::kMm2sSa, 0);
  reg_write(AxiDma::kMm2sLength, 512 * 8);
  s.run_cycles(10);
  reg_write(AxiDma::kMm2sCr, AxiDma::kCrReset);
  EXPECT_TRUE(dma.mm2s_idle());
  EXPECT_TRUE(reg_read(AxiDma::kMm2sSr) & AxiDma::kSrHalted);
}

// ---------------------------------------------------------------------------
// Axis2Icap byte ordering
// ---------------------------------------------------------------------------

TEST(Axis2IcapTest, SplitsBeatIntoTwoBigEndianWords) {
  sim::Simulator s;
  axi::AxisFifo in(4);
  sim::Fifo<u32> out(4);
  Axis2Icap conv("conv", in, out);
  s.add(&conv);
  // DDR bytes AA 99 55 66 | 20 00 00 00 (sync word then NOP, as stored
  // in the little-endian memory).
  in.push(axi::AxisBeat{0x00000020'66559'9AAULL, 0xFF, true});
  s.run_cycles(4);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(*out.pop(), 0xAA995566u);
  EXPECT_EQ(*out.pop(), 0x20000000u);
}

TEST(Axis2IcapTest, HalfBeatEmitsOneWord) {
  sim::Simulator s;
  axi::AxisFifo in(4);
  sim::Fifo<u32> out(4);
  Axis2Icap conv("conv", in, out);
  s.add(&conv);
  in.push(axi::AxisBeat{0x44332211, 0x0F, true});  // only low half valid
  s.run_cycles(4);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(*out.pop(), 0x11223344u);
  EXPECT_EQ(conv.words_emitted(), 1u);
}

TEST(Axis2IcapTest, EmitsOneWordPerCycle) {
  sim::Simulator s;
  axi::AxisFifo in(16);
  sim::Fifo<u32> out(1024);
  Axis2Icap conv("conv", in, out);
  s.add(&conv);
  for (u32 i = 0; i < 16; ++i) in.push(axi::AxisBeat{i, 0xFF, false});
  const Cycles t0 = s.now();
  ASSERT_TRUE(s.run_until([&] { return out.size() == 32; }, 1000));
  EXPECT_GE(s.now() - t0, 32u);  // one 32-bit word per cycle maximum
}

TEST(Axis2IcapTest, IdleOnceItsOutputDrains) {
  // busy() reads the input and the buffered half-beat, never the ICAP
  // port. Only the pop that reopens a full port wakes the converter,
  // so a busy() that read the port would leave a stale busy sleeper
  // once the port drains, and run_until_idle() would never return.
  sim::Simulator s;
  axi::AxisFifo in(4);
  sim::Fifo<u32> out(2);
  Axis2Icap conv("conv", in, out);
  s.add(&conv);
  in.push(axi::AxisBeat{0x2222222211111111ULL, 0xFF, false});
  in.push(axi::AxisBeat{0x4444444433333333ULL, 0xFF, true});
  u32 drained = 0;
  for (int i = 0; i < 40 && drained < 4; ++i) {
    s.run_cycles(2);
    if (out.pop().has_value()) ++drained;  // one word per two cycles
  }
  ASSERT_EQ(drained, 4u);
  EXPECT_TRUE(s.run_until_idle(10));
}

// ---------------------------------------------------------------------------
// Full controller datapath
// ---------------------------------------------------------------------------

struct ControllerFixture : ::testing::Test {
  static constexpr Addr kDdrBase = 0x8000'0000;

  ControllerFixture()
      : dev(DeviceGeometry::kintex7_325t()),
        rp(case_study_partition(dev)),
        cfg(dev),
        icap("icap", cfg),
        ddr("ddr"),
        ctrl(icap, ddr.port(), axi::AddrRange{kDdrBase, 1u << 30}) {
    handle = cfg.register_partition(rp);
    s.add(&ddr);
    s.add(&icap);
    ctrl.register_components(s);
    main_xbar.emplace("main_xbar");
    main_xbar->add_manager(&cpu.port());
    main_xbar->add_subordinate(axi::AddrRange{kDdrBase, 1u << 30},
                               &ctrl.main_bus_ddr_port());
    cpu.add_register_window(axi::AddrRange{0x4100'0000, 0x1000}, &ctrl.dma(),
                            cpu::CpuContext::kDirectHops, *main_xbar);
    cpu.add_register_window(axi::AddrRange{0x4200'0000, 0x1000},
                            &ctrl.rp_control(), cpu::CpuContext::kDirectHops,
                            *main_xbar);
    s.add(&*main_xbar);
  }

  void mmio32(Addr a, u32 v) { cpu.store32_uncached(a, v); }

  DeviceGeometry dev;
  fabric::Partition rp;
  fabric::ConfigMemory cfg;
  icap::Icap icap;
  mem::DdrController ddr;
  RvCapController ctrl;
  sim::Simulator s;
  cpu::CpuContext cpu{s};
  std::optional<axi::AxiCrossbar> main_xbar;
  usize handle = 0;
};

TEST_F(ControllerFixture, ReconfiguresPartitionNear400MBps) {
  const auto pbit =
      bitstream::generate_partial_bitstream(dev, rp, {3, "median"});
  ddr.poke(kDdrBase + 0x10000, pbit);

  // Listing 1 flow: decouple, select ICAP, start DMA.
  mmio32(0x4200'0000 + rvcap_ctrl::RpControl::kControl,
         rvcap_ctrl::RpControl::kCtlDecouple |
             rvcap_ctrl::RpControl::kCtlSelectIcap);
  mmio32(0x4100'0000 + AxiDma::kMm2sCr, AxiDma::kCrRunStop);
  mmio32(0x4100'0000 + AxiDma::kMm2sSa, 0x10000 + kDdrBase);
  mmio32(0x4100'0000 + AxiDma::kMm2sSaMsb, 0);
  const Cycles t0 = s.now();
  mmio32(0x4100'0000 + AxiDma::kMm2sLength,
         static_cast<u32>(pbit.size()));
  ASSERT_TRUE(s.run_until(
      [&] { return icap.words_consumed() == pbit.size() / 4; }, 1'000'000));
  const Cycles dt = s.now() - t0;
  EXPECT_EQ(icap.desync_count(), 1u);

  EXPECT_FALSE(icap.crc_error());
  const auto st = cfg.partition_state(handle);
  EXPECT_TRUE(st.loaded);
  EXPECT_EQ(st.rm_id, 3u);

  const double mbps = throughput_mbps(pbit.size(), dt);
  // The controller must sit just below the 400 MB/s ICAP ceiling
  // (paper: 398.1 MB/s max, 394 MB/s at this size incl. overheads).
  EXPECT_GT(mbps, 390.0);
  EXPECT_LT(mbps, 400.0);
}

TEST_F(ControllerFixture, AccelerationModeUntouchedByIcapPath) {
  // Without select_ICAP, the DMA stream goes to the RM (and is dropped
  // by the decoupled isolator if decoupled) — ICAP sees nothing.
  mmio32(0x4200'0000 + rvcap_ctrl::RpControl::kControl, 0);  // coupled
  ddr.poke64(kDdrBase, 0x1111);
  mmio32(0x4100'0000 + AxiDma::kMm2sCr, AxiDma::kCrRunStop);
  mmio32(0x4100'0000 + AxiDma::kMm2sSa, static_cast<u32>(kDdrBase));
  mmio32(0x4100'0000 + AxiDma::kMm2sLength, 8);
  s.run_cycles(200);
  EXPECT_EQ(icap.words_consumed(), 0u);
  // The beat ends up at the RM attachment point.
  EXPECT_TRUE(ctrl.rm_input().can_pop());
}

TEST_F(ControllerFixture, DecoupledStreamIsDroppedNotDelivered) {
  mmio32(0x4200'0000 + rvcap_ctrl::RpControl::kControl,
         rvcap_ctrl::RpControl::kCtlDecouple);  // decoupled, accel route
  ddr.poke64(kDdrBase, 0x2222);
  mmio32(0x4100'0000 + AxiDma::kMm2sCr, AxiDma::kCrRunStop);
  mmio32(0x4100'0000 + AxiDma::kMm2sSa, static_cast<u32>(kDdrBase));
  mmio32(0x4100'0000 + AxiDma::kMm2sLength, 8);
  s.run_cycles(300);
  EXPECT_FALSE(ctrl.rm_input().can_pop());
  EXPECT_EQ(ctrl.isolator().dropped_beats(), 1u);
}

TEST_F(ControllerFixture, RpStatusReflectsControl) {
  mmio32(0x4200'0000 + rvcap_ctrl::RpControl::kControl,
         rvcap_ctrl::RpControl::kCtlDecouple);
  EXPECT_TRUE(ctrl.rp_control().decoupled());
  EXPECT_FALSE(ctrl.rp_control().icap_selected());
  mmio32(0x4200'0000 + rvcap_ctrl::RpControl::kControl,
         rvcap_ctrl::RpControl::kCtlSelectIcap);
  EXPECT_FALSE(ctrl.rp_control().decoupled());
  EXPECT_TRUE(ctrl.rp_control().icap_selected());
}

// ---------------------------------------------------------------------------
// AXI_HWICAP baseline
// ---------------------------------------------------------------------------

struct HwicapFixture : ::testing::Test {
  HwicapFixture()
      : dev(DeviceGeometry::kintex7_325t()),
        rp(case_study_partition(dev)),
        cfg(dev),
        icap("icap", cfg),
        hw("hwicap", icap, 1024) {
    handle = cfg.register_partition(rp);
    s.add(&icap);
    s.add(&hw);
  }

  void reg_write(Addr a, u32 v) {
    hw.port().aw.push(axi::LiteAw{a});
    hw.port().w.push(axi::LiteW{v, 0xF});
    ASSERT_TRUE(s.run_until([&] { return hw.port().b.can_pop(); }, 100000));
    hw.port().b.pop();
  }
  u32 reg_read(Addr a) {
    hw.port().ar.push(axi::LiteAr{a});
    EXPECT_TRUE(s.run_until([&] { return hw.port().r.can_pop(); }, 100000));
    return hw.port().r.pop()->data;
  }

  DeviceGeometry dev;
  fabric::Partition rp;
  fabric::ConfigMemory cfg;
  icap::Icap icap;
  hwicap::HwIcap hw;
  sim::Simulator s;
  usize handle = 0;
};

TEST_F(HwicapFixture, VacancyTracksFifoDepth) {
  EXPECT_EQ(reg_read(hwicap::HwIcap::kWfv), 1024u);
  reg_write(hwicap::HwIcap::kWf, 0x12345678);
  EXPECT_EQ(reg_read(hwicap::HwIcap::kWfv), 1023u);
}

TEST_F(HwicapFixture, CrWriteDrainsFifoToIcap) {
  reg_write(hwicap::HwIcap::kWf, bitstream::kSyncWord);
  reg_write(hwicap::HwIcap::kWf, bitstream::kNop);
  reg_write(hwicap::HwIcap::kCr, hwicap::HwIcap::kCrWrite);
  ASSERT_TRUE(s.run_until(
      [&] { return reg_read(hwicap::HwIcap::kSr) & hwicap::HwIcap::kSrDone; },
      100000));
  ASSERT_TRUE(s.run_until_idle(1000));  // let the ICAP drain its port
  EXPECT_EQ(icap.words_consumed(), 2u);
  EXPECT_TRUE(icap.synced());
}

TEST_F(HwicapFixture, FullBitstreamLoadsThroughKeyhole) {
  const auto pbit =
      bitstream::generate_partial_bitstream(dev, rp, {7, "sobel"});
  // Chunked fill-and-flush exactly like Listing 2.
  usize i = 0;
  while (i < pbit.size()) {
    u32 vacancy = reg_read(hwicap::HwIcap::kWfv);
    while (vacancy > 0 && i < pbit.size()) {
      reg_write(hwicap::HwIcap::kWf,
                load_be32(std::span<const u8>(pbit).subspan(i, 4)));
      i += 4;
      --vacancy;
    }
    reg_write(hwicap::HwIcap::kCr, hwicap::HwIcap::kCrWrite);
    ASSERT_TRUE(s.run_until(
        [&] {
          return reg_read(hwicap::HwIcap::kSr) & hwicap::HwIcap::kSrDone;
        },
        1'000'000));
  }
  EXPECT_FALSE(icap.crc_error());
  const auto st = cfg.partition_state(handle);
  EXPECT_TRUE(st.loaded);
  EXPECT_EQ(st.rm_id, 7u);
}

TEST_F(HwicapFixture, SwResetClearsFifo) {
  reg_write(hwicap::HwIcap::kWf, 1);
  reg_write(hwicap::HwIcap::kWf, 2);
  reg_write(hwicap::HwIcap::kCr, hwicap::HwIcap::kCrSwReset);
  EXPECT_EQ(reg_read(hwicap::HwIcap::kWfv), 1024u);
  EXPECT_EQ(icap.words_consumed(), 0u);
}

TEST_F(HwicapFixture, ResizedFifoDepthIsConfigurable) {
  hwicap::HwIcap small("hw64", icap, 64);  // vendor default
  EXPECT_EQ(small.write_fifo_depth(), 64u);
  EXPECT_EQ(hw.write_fifo_depth(), 1024u);  // paper's resized FIFO
}

}  // namespace
}  // namespace rvcap
