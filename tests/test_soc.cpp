// Full-SoC integration: the paper's driver flows end to end on the
// assembled platform (Fig. 1 + Fig. 2).
#include <gtest/gtest.h>

#include "accel/rm_slot.hpp"
#include "bitstream/generator.hpp"
#include "common/log.hpp"
#include "common/units.hpp"
#include "driver/console.hpp"
#include "driver/hwicap_driver.hpp"
#include "driver/rvcap_driver.hpp"
#include "driver/spi_sd.hpp"
#include "soc/ariane_soc.hpp"
#include "storage/fat32.hpp"

namespace rvcap {
namespace {

using accel::FilterKind;
using driver::DmaMode;
using driver::ReconfigModule;
using soc::ArianeSoc;
using soc::MemoryMap;
using soc::SocConfig;

std::vector<u8> case_pbit(ArianeSoc& soc, u32 rm_id) {
  return bitstream::generate_partial_bitstream(
      soc.device(), soc.rp0(), {rm_id, std::string(to_string(
                                           accel::rm_id_to_kind(rm_id)))});
}

/// Stage a bitstream in DDR via the backdoor (the paper also measures
/// with pre-staged bitstreams; SD loading is timed separately).
ReconfigModule stage(ArianeSoc& soc, u32 rm_id, Addr addr) {
  const auto pbit = case_pbit(soc, rm_id);
  soc.ddr().poke(addr, pbit);
  return ReconfigModule{"", rm_id, addr, static_cast<u32>(pbit.size())};
}

struct RvCapSocFixture : ::testing::Test {
  RvCapSocFixture() : soc(SocConfig{}), drv(soc.cpu(), soc.plic()) {}
  ArianeSoc soc;
  driver::RvCapDriver drv;
};

TEST_F(RvCapSocFixture, ReconfigurationMatchesPaperHeadlineNumbers) {
  const ReconfigModule m = stage(soc, accel::kRmIdMedian, 0x8810'0000);
  ASSERT_EQ(drv.init_reconfig_process(m, DmaMode::kInterrupt), Status::kOk);

  const auto st = soc.config_memory().partition_state(soc.rp0_handle());
  EXPECT_TRUE(st.loaded);
  EXPECT_EQ(st.rm_id, accel::kRmIdMedian);

  const auto& t = drv.last_timing();
  // Paper §IV-B: T_d = 18 us, T_r = 1651 us (650892-byte bitstream).
  EXPECT_NEAR(t.decision_us(), 18.0, 3.0);
  EXPECT_NEAR(t.reconfig_us(), 1651.0, 30.0);
  const double mbps = m.pbit_size / t.reconfig_us();
  EXPECT_GT(mbps, 390.0);
  EXPECT_LT(mbps, 400.0);
}

TEST_F(RvCapSocFixture, BlockingAndInterruptModesAgree) {
  const ReconfigModule m = stage(soc, accel::kRmIdSobel, 0x8810'0000);
  ASSERT_EQ(drv.init_reconfig_process(m, DmaMode::kBlocking), Status::kOk);
  const double tr_blocking = drv.last_timing().reconfig_us();
  ASSERT_EQ(drv.init_reconfig_process(m, DmaMode::kInterrupt), Status::kOk);
  const double tr_irq = drv.last_timing().reconfig_us();
  // Both bounded by the ICAP; polling costs slightly more CPU but the
  // measured T_r must agree within ~2%.
  EXPECT_NEAR(tr_blocking, tr_irq, tr_irq * 0.02);
}

TEST_F(RvCapSocFixture, ModuleSwapFlow) {
  const ReconfigModule sobel = stage(soc, accel::kRmIdSobel, 0x8810'0000);
  const ReconfigModule median = stage(soc, accel::kRmIdMedian, 0x8820'0000);
  const ReconfigModule gauss = stage(soc, accel::kRmIdGaussian, 0x8830'0000);
  for (const auto* m : {&sobel, &median, &gauss}) {
    ASSERT_EQ(drv.init_reconfig_process(*m, DmaMode::kInterrupt),
              Status::kOk);
    soc.sim().run_cycles(4);  // let the slot pick up the new module
    EXPECT_EQ(soc.rm_slot().active_rm(), m->rm_id);
  }
  EXPECT_EQ(soc.rm_slot().activations(), 3u);
}

TEST_F(RvCapSocFixture, AccelerationModeBitExactVsGolden) {
  // Configure the Sobel RM, then stream a 512x512 image through it.
  const ReconfigModule m = stage(soc, accel::kRmIdSobel, 0x8810'0000);
  ASSERT_EQ(drv.init_reconfig_process(m, DmaMode::kInterrupt), Status::kOk);

  const accel::Image img = accel::make_test_image(512, 512, 99);
  soc.ddr().poke(MemoryMap::kImageInBase, img.pixels);

  const u64 t0 = soc.sim().now();
  ASSERT_EQ(drv.run_accelerator(MemoryMap::kImageInBase,
                                static_cast<u32>(img.pixels.size()),
                                MemoryMap::kImageOutBase,
                                static_cast<u32>(img.pixels.size()),
                                DmaMode::kInterrupt),
            Status::kOk);
  const double tc_us = cycles_to_us(soc.sim().now() - t0);

  std::vector<u8> out(img.pixels.size());
  soc.ddr().peek(MemoryMap::kImageOutBase, out);
  const accel::Image golden = accel::apply_golden(FilterKind::kSobel, img);
  EXPECT_EQ(out, golden.pixels) << "hardware output must be bit-exact";
  // Table IV: Sobel T_c = 588 us.
  EXPECT_NEAR(tc_us, 588.0, 25.0);
}

TEST_F(RvCapSocFixture, ComputeTimesOrderedAcrossFilters) {
  std::map<u32, double> tc;
  const accel::Image img = accel::make_test_image(512, 512, 7);
  soc.ddr().poke(MemoryMap::kImageInBase, img.pixels);
  for (u32 rm : {accel::kRmIdSobel, accel::kRmIdMedian,
                 accel::kRmIdGaussian}) {
    const ReconfigModule m = stage(soc, rm, 0x8810'0000);
    ASSERT_EQ(drv.init_reconfig_process(m, DmaMode::kInterrupt),
              Status::kOk);
    const u64 t0 = soc.sim().now();
    ASSERT_EQ(drv.run_accelerator(MemoryMap::kImageInBase, 512 * 512,
                                  MemoryMap::kImageOutBase, 512 * 512,
                                  DmaMode::kInterrupt),
              Status::kOk);
    tc[rm] = cycles_to_us(soc.sim().now() - t0);
  }
  // Table IV ordering: Sobel < Median < Gaussian.
  EXPECT_LT(tc[accel::kRmIdSobel], tc[accel::kRmIdMedian]);
  EXPECT_LT(tc[accel::kRmIdMedian], tc[accel::kRmIdGaussian]);
}

TEST_F(RvCapSocFixture, RmRegistersReachActiveModule) {
  const ReconfigModule m = stage(soc, accel::kRmIdGaussian, 0x8810'0000);
  ASSERT_EQ(drv.init_reconfig_process(m, DmaMode::kInterrupt), Status::kOk);
  soc.sim().run_cycles(4);
  EXPECT_EQ(drv.rm_reg_read(3), static_cast<u32>(FilterKind::kGaussian));
  EXPECT_EQ(drv.rm_reg_read(15), accel::kRmIdGaussian);
  drv.rm_reg_write(0, 256);  // width
  drv.rm_reg_write(1, 128);  // height
  EXPECT_EQ(drv.rm_reg_read(0), 256u);
  EXPECT_EQ(drv.rm_reg_read(1), 128u);
}

TEST_F(RvCapSocFixture, CorruptBitstreamDoesNotActivateModule) {
  ScopedLogLevel quiet(LogLevel::kError);
  auto pbit = case_pbit(soc, accel::kRmIdSobel);
  pbit[100'000] ^= 0x40;
  soc.ddr().poke(0x8810'0000, pbit);
  const ReconfigModule m{"", accel::kRmIdSobel, 0x8810'0000,
                         static_cast<u32>(pbit.size())};
  ASSERT_EQ(drv.init_reconfig_process(m, DmaMode::kInterrupt), Status::kOk);
  EXPECT_TRUE(soc.icap().crc_error());
  EXPECT_FALSE(soc.config_memory().partition_state(soc.rp0_handle()).loaded);
  soc.sim().run_cycles(4);
  EXPECT_EQ(soc.rm_slot().active_rm(), 0u);
}

TEST_F(RvCapSocFixture, UartConsoleCollectsDriverMessages) {
  driver::uart_puts(soc.cpu(), "reconfiguration successful\n");
  EXPECT_EQ(soc.uart().output(), "reconfiguration successful\n");
}

TEST(RvCapDriverCompletion, IgnoresIocLeftByAnEarlierJob) {
  // A load started by hand and never acknowledged leaves IOC set in
  // MM2S_SR. The driver's next load must wait for its own completion
  // (IOC together with Idle) before it re-routes the stream switch.
  using rvcap_ctrl::AxiDma;
  const Addr dma = MemoryMap::kDmaCtrl.base;
  for (const DmaMode mode : {DmaMode::kBlocking, DmaMode::kInterrupt}) {
    ArianeSoc soc((SocConfig{}));
    driver::RvCapDriver drv(soc.cpu(), soc.plic());
    const ReconfigModule sobel = stage(soc, accel::kRmIdSobel, 0x8810'0000);
    const ReconfigModule median = stage(soc, accel::kRmIdMedian, 0x8900'0000);
    drv.decouple_accel(true);
    drv.select_ICAP(true);
    cpu::CpuContext& cpu = soc.cpu();
    cpu.store32_uncached(dma + AxiDma::kMm2sCr, AxiDma::kCrRunStop);
    cpu.store32_uncached(dma + AxiDma::kMm2sSa,
                         static_cast<u32>(sobel.start_address));
    cpu.store32_uncached(dma + AxiDma::kMm2sSaMsb, 0);
    cpu.store32_uncached(dma + AxiDma::kMm2sLength, sobel.pbit_size);
    ASSERT_TRUE(soc.sim().run_until_idle(1'000'000));
    ASSERT_NE(cpu.load32_uncached(dma + AxiDma::kMm2sSr) & AxiDma::kSrIocIrq,
              0u);

    ASSERT_EQ(drv.init_reconfig_process(median, mode), Status::kOk);
    const obs::CounterRegistry& reg = soc.sim().obs().counters();
    EXPECT_EQ(reg.counter_value(reg.counter_index("rvcap.w5.beats")), 0u)
        << "beats streamed into RP0 while the bitstream was still loading";
    const auto st = soc.config_memory().partition_state(soc.rp0_handle());
    EXPECT_TRUE(st.loaded);
    EXPECT_EQ(st.rm_id, accel::kRmIdMedian);
    EXPECT_NEAR(drv.last_timing().reconfig_us(), 1630.9, 30.0);
  }
}

TEST(RvCapDriverCompletion, S2mmIgnoresIocLeftByAnEarlierJob) {
  // A Sobel job run by hand and never acknowledged leaves IOC set in
  // S2MM_SR. A blocking run_accelerator must wait for its own job (IOC
  // together with Idle) before it returns.
  using rvcap_ctrl::AxiDma;
  const Addr dma = MemoryMap::kDmaCtrl.base;
  constexpr u32 kBytes = 8 * 512;  // 8 rows of 512 pixels
  ArianeSoc soc((SocConfig{}));
  driver::RvCapDriver drv(soc.cpu(), soc.plic());
  const ReconfigModule sobel = stage(soc, accel::kRmIdSobel, 0x8810'0000);
  ASSERT_EQ(drv.init_reconfig_process(sobel, DmaMode::kInterrupt),
            Status::kOk);
  drv.rm_reg_write(1, 8);  // height
  const accel::Image first = accel::make_test_image(512, 8, 3);
  const accel::Image second = accel::make_test_image(512, 8, 4);
  soc.ddr().poke(MemoryMap::kImageInBase, first.pixels);
  soc.ddr().poke(MemoryMap::kImageInBase + kBytes, second.pixels);

  cpu::CpuContext& cpu = soc.cpu();
  cpu.store32_uncached(dma + AxiDma::kS2mmCr, AxiDma::kCrRunStop);
  cpu.store32_uncached(dma + AxiDma::kS2mmDa,
                       static_cast<u32>(MemoryMap::kImageOutBase));
  cpu.store32_uncached(dma + AxiDma::kS2mmDaMsb, 0);
  cpu.store32_uncached(dma + AxiDma::kS2mmLength, kBytes);
  cpu.store32_uncached(dma + AxiDma::kMm2sCr, AxiDma::kCrRunStop);
  cpu.store32_uncached(dma + AxiDma::kMm2sSa,
                       static_cast<u32>(MemoryMap::kImageInBase));
  cpu.store32_uncached(dma + AxiDma::kMm2sSaMsb, 0);
  cpu.store32_uncached(dma + AxiDma::kMm2sLength, kBytes);
  ASSERT_TRUE(soc.sim().run_until_idle(1'000'000));
  ASSERT_NE(cpu.load32_uncached(dma + AxiDma::kS2mmSr) & AxiDma::kSrIocIrq,
            0u);

  const Addr out_at = MemoryMap::kImageOutBase + kBytes;
  ASSERT_EQ(drv.run_accelerator(MemoryMap::kImageInBase + kBytes, kBytes,
                                out_at, kBytes, DmaMode::kBlocking),
            Status::kOk);
  EXPECT_TRUE(soc.rvcap().dma().s2mm_idle());
  const obs::CounterRegistry& reg = soc.sim().obs().counters();
  EXPECT_EQ(reg.counter_value(reg.counter_index("rvcap.dma.s2mm_bytes")),
            2u * kBytes);
  std::vector<u8> out(kBytes);
  soc.ddr().peek(out_at, out);
  EXPECT_EQ(out, accel::apply_golden(FilterKind::kSobel, second).pixels);
}

TEST_F(RvCapSocFixture, ClintTimerMeasuresSimTime) {
  driver::TimerDriver timer(soc.cpu());
  const u64 a = timer.read_mtime();
  soc.sim().run_cycles(20'000);  // 1000 CLINT ticks
  const u64 b = timer.read_mtime();
  // The reads themselves cost some cycles; allow slack.
  EXPECT_NEAR(static_cast<double>(b - a), 1000.0, 40.0);
}

// ---------------------------------------------------------------------------
// HWICAP deployment (both controllers instantiated; vendor path driven)
// ---------------------------------------------------------------------------

struct HwicapSocFixture : ::testing::Test {
  static SocConfig config() {
    SocConfig c;
    c.with_hwicap = true;
    return c;
  }
  HwicapSocFixture() : soc(config()), hw_drv(soc.cpu(), 16) {}
  ArianeSoc soc;
  driver::HwIcapDriver hw_drv;
};

TEST_F(HwicapSocFixture, Unrolled16TransferMatchesPaperThroughput) {
  const ReconfigModule m = stage(soc, accel::kRmIdSobel, 0x8810'0000);
  ASSERT_EQ(hw_drv.init_reconfig_process(m), Status::kOk);
  EXPECT_TRUE(
      soc.config_memory().partition_state(soc.rp0_handle()).loaded);
  const double mbps = m.pbit_size / hw_drv.last_timing().reconfig_us();
  // Paper §IV-B: 8.23 MB/s with the 16-unrolled loop.
  EXPECT_NEAR(mbps, 8.23, 0.8);
}

TEST_F(HwicapSocFixture, UnrollOneIsRoughlyTwiceSlower) {
  const ReconfigModule m = stage(soc, accel::kRmIdSobel, 0x8810'0000);
  hw_drv.set_unroll(1);
  ASSERT_EQ(hw_drv.init_reconfig_process(m), Status::kOk);
  const double mbps1 = m.pbit_size / hw_drv.last_timing().reconfig_us();
  // Paper: 4.16 MB/s without unrolling.
  EXPECT_NEAR(mbps1, 4.16, 0.6);
}

TEST_F(HwicapSocFixture, HigherUnrollGainsLessThan5Percent) {
  const ReconfigModule m = stage(soc, accel::kRmIdSobel, 0x8810'0000);
  hw_drv.set_unroll(16);
  ASSERT_EQ(hw_drv.init_reconfig_process(m), Status::kOk);
  const double mbps16 = m.pbit_size / hw_drv.last_timing().reconfig_us();
  hw_drv.set_unroll(64);
  ASSERT_EQ(hw_drv.init_reconfig_process(m), Status::kOk);
  const double mbps64 = m.pbit_size / hw_drv.last_timing().reconfig_us();
  EXPECT_LT((mbps64 - mbps16) / mbps16, 0.05);  // §IV-B: "< 5%"
}

// ---------------------------------------------------------------------------
// SD card + FAT32 + init_RModules (the timed software loading path)
// ---------------------------------------------------------------------------

TEST(SdLoadingPath, InitRModulesLoadsBitstreamFromSdToDdr) {
  ArianeSoc soc((SocConfig()));
  driver::RvCapDriver drv(soc.cpu(), soc.plic());

  // Host-side: format the card and store a small module's bitstream
  // (a single-CLB-column partition keeps the timed SPI transfer short).
  const auto small = fabric::Partition("RP_SMALL", {{0, 2}});
  const usize small_handle = soc.add_partition(small);
  const auto pbit = bitstream::generate_partial_bitstream(
      soc.device(), small, {9, "tiny"});
  storage::MemBlockIo host_io(soc.sd_card());
  ASSERT_EQ(storage::fat32_format(host_io), Status::kOk);
  {
    storage::Fat32Volume host_vol(host_io);
    ASSERT_EQ(host_vol.mount(), Status::kOk);
    ASSERT_EQ(host_vol.write_file("TINY.PB", pbit), Status::kOk);
  }

  // Target-side: SD init + mount + init_RModules through the CPU model.
  driver::SpiSdDriver sd(soc.cpu());
  ASSERT_EQ(sd.init_card(), Status::kOk);
  driver::CpuBlockIo io(sd, soc.sd_card().block_count());
  storage::Fat32Volume vol(io);
  ASSERT_EQ(vol.mount(), Status::kOk);

  ReconfigModule mods[] = {{"TINY.PB", 9, 0, 0}};
  ASSERT_EQ(drv.init_RModules(mods, vol), Status::kOk);
  EXPECT_EQ(mods[0].pbit_size, pbit.size());
  EXPECT_EQ(mods[0].start_address, MemoryMap::kPbitStagingBase);

  // The staged copy must be byte-identical.
  std::vector<u8> staged(pbit.size());
  soc.ddr().peek(mods[0].start_address, staged);
  EXPECT_EQ(staged, pbit);

  // And it must actually reconfigure the small partition.
  ASSERT_EQ(drv.init_reconfig_process(mods[0], DmaMode::kInterrupt),
            Status::kOk);
  const auto st = soc.config_memory().partition_state(small_handle);
  EXPECT_TRUE(st.loaded);
  EXPECT_EQ(st.rm_id, 9u);
}

}  // namespace
}  // namespace rvcap
