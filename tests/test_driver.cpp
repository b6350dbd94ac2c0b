// Driver-layer units not covered by the integration suites: timer
// consistency dance, SPI/SD driver error paths, console, and the
// Listing-1/-2 API surface details.
#include <gtest/gtest.h>

#include "accel/rm_slot.hpp"
#include "bitstream/generator.hpp"
#include "driver/console.hpp"
#include "driver/hwicap_driver.hpp"
#include "driver/rvcap_driver.hpp"
#include "driver/spi_sd.hpp"
#include "driver/timer.hpp"
#include "soc/ariane_soc.hpp"
#include "storage/fat32.hpp"

namespace rvcap {
namespace {

using soc::ArianeSoc;
using soc::MemoryMap;
using soc::SocConfig;

struct DriverFixture : ::testing::Test {
  DriverFixture() : soc(SocConfig{}) {}
  ArianeSoc soc;
};

TEST_F(DriverFixture, TimerTicksToMicroseconds) {
  EXPECT_DOUBLE_EQ(driver::TimerDriver::ticks_to_us(5), 1.0);
  EXPECT_DOUBLE_EQ(driver::TimerDriver::ticks_to_us(5'000'000), 1e6);
}

TEST_F(DriverFixture, TimerReadsAreMonotonic) {
  driver::TimerDriver timer(soc.cpu());
  u64 prev = timer.read_mtime();
  for (int i = 0; i < 20; ++i) {
    soc.sim().run_cycles(100);
    const u64 now = timer.read_mtime();
    EXPECT_GE(now, prev);
    prev = now;
  }
}

TEST_F(DriverFixture, ConsoleWritesArriveInOrder) {
  driver::uart_puts(soc.cpu(), "abc");
  driver::uart_puts(soc.cpu(), "def");
  EXPECT_EQ(soc.uart().output(), "abcdef");
  soc.uart().clear_output();
  EXPECT_TRUE(soc.uart().output().empty());
}

TEST_F(DriverFixture, SpiSdBlockIoBeforeInitFails) {
  driver::SpiSdDriver sd(soc.cpu());
  std::array<u8, storage::kBlockSize> buf{};
  EXPECT_EQ(sd.read_block(0, buf), Status::kIoError);
  EXPECT_EQ(sd.write_block(0, buf), Status::kIoError);
  EXPECT_FALSE(sd.initialized());
}

TEST_F(DriverFixture, SpiSdWrongBufferSizeRejected) {
  driver::SpiSdDriver sd(soc.cpu());
  ASSERT_EQ(sd.init_card(), Status::kOk);
  std::array<u8, 100> wrong{};
  EXPECT_EQ(sd.read_block(0, wrong), Status::kInvalidArgument);
}

TEST_F(DriverFixture, SpiSdBlockRoundtripThroughCpu) {
  driver::SpiSdDriver sd(soc.cpu());
  ASSERT_EQ(sd.init_card(), Status::kOk);
  std::array<u8, storage::kBlockSize> block{};
  for (usize i = 0; i < block.size(); ++i) block[i] = static_cast<u8>(i * 3);
  ASSERT_EQ(sd.write_block(77, block), Status::kOk);
  std::array<u8, storage::kBlockSize> back{};
  ASSERT_EQ(sd.read_block(77, back), Status::kOk);
  EXPECT_EQ(back, block);
  // And the card's backing store agrees.
  std::array<u8, storage::kBlockSize> direct{};
  soc.sd_card().backdoor_read(77, direct);
  EXPECT_EQ(direct, block);
}

TEST_F(DriverFixture, SpiTransferAccruesSimulatedTime) {
  driver::SpiSdDriver sd(soc.cpu());
  ASSERT_EQ(sd.init_card(), Status::kOk);
  std::array<u8, storage::kBlockSize> block{};
  const Cycles t0 = soc.sim().now();
  ASSERT_EQ(sd.read_block(0, block), Status::kOk);
  const Cycles dt = soc.sim().now() - t0;
  // >= 518 byte exchanges * 32 wire cycles each.
  EXPECT_GT(dt, 518u * 32u);
}

TEST_F(DriverFixture, InitRModulesMissingFileFails) {
  driver::RvCapDriver drv(soc.cpu(), soc.plic());
  storage::MemBlockIo host_io(soc.sd_card());
  ASSERT_EQ(storage::fat32_format(host_io), Status::kOk);
  driver::SpiSdDriver sd(soc.cpu());
  ASSERT_EQ(sd.init_card(), Status::kOk);
  driver::CpuBlockIo io(sd, soc.sd_card().block_count());
  storage::Fat32Volume vol(io);
  ASSERT_EQ(vol.mount(), Status::kOk);
  driver::ReconfigModule mods[] = {{"GHOST.PB", 1, 0, 0}};
  EXPECT_EQ(drv.init_RModules(mods, vol), Status::kNotFound);
}

TEST_F(DriverFixture, SelectLinesReflectInStatus) {
  driver::RvCapDriver drv(soc.cpu(), soc.plic());
  const Addr status = MemoryMap::kRpCtrl.base +
                      rvcap_ctrl::RpControl::kStatus;
  drv.decouple_accel(true);
  EXPECT_TRUE(soc.cpu().load32_uncached(status) &
              rvcap_ctrl::RpControl::kStDecoupled);
  drv.select_ICAP(true);
  EXPECT_TRUE(soc.cpu().load32_uncached(status) &
              rvcap_ctrl::RpControl::kStIcapSelected);
  drv.select_decompress(true);
  EXPECT_TRUE(soc.cpu().load32_uncached(status) &
              rvcap_ctrl::RpControl::kStDecompress);
  drv.select_decompress(false);
  drv.select_ICAP(false);
  drv.decouple_accel(false);
  const u32 st = soc.cpu().load32_uncached(status);
  EXPECT_FALSE(st & (rvcap_ctrl::RpControl::kStDecoupled |
                     rvcap_ctrl::RpControl::kStIcapSelected |
                     rvcap_ctrl::RpControl::kStDecompress));
}

TEST(HwIcapDriverUnit, UnrollAccessors) {
  ArianeSoc soc((SocConfig()));
  driver::HwIcapDriver drv(soc.cpu(), 16);
  EXPECT_EQ(drv.unroll(), 16u);
  drv.set_unroll(0);  // clamped to 1
  EXPECT_EQ(drv.unroll(), 1u);
  drv.set_unroll(64);
  EXPECT_EQ(drv.unroll(), 64u);
}

TEST(HwIcapDriverUnit, InitIcapResetsCore) {
  SocConfig cfg;
  cfg.with_hwicap = true;
  ArianeSoc soc(cfg);
  driver::HwIcapDriver drv(soc.cpu(), 16);
  // Push junk into the write FIFO, then init must clear it.
  soc.cpu().store32_uncached(MemoryMap::kHwicap.base + hwicap::HwIcap::kWf,
                             0x123);
  ASSERT_EQ(drv.init_icap(), Status::kOk);
  EXPECT_EQ(soc.cpu().load32_uncached(MemoryMap::kHwicap.base +
                                      hwicap::HwIcap::kWfv),
            soc.hwicap().write_fifo_depth());
}

TEST(HwIcapDriverUnit, WordsWrittenCountsEveryWordTheIcapReceives) {
  SocConfig cfg;
  cfg.with_hwicap = true;
  ArianeSoc soc(cfg);
  driver::HwIcapDriver drv(soc.cpu(), 16);
  const auto pbit = bitstream::generate_partial_bitstream(
      soc.device(), soc.rp0(), {accel::kRmIdSobel, "sobel"});
  const Addr staging = MemoryMap::kPbitStagingBase;
  soc.ddr().poke(staging, pbit);
  const u64 before = soc.icap().words_consumed();
  ASSERT_EQ(drv.init_reconfig_process({"", accel::kRmIdSobel, staging,
                                       static_cast<u32>(pbit.size())}),
            Status::kOk);
  const u64 received = soc.icap().words_consumed() - before;
  EXPECT_EQ(received, pbit.size() / 4);
  EXPECT_EQ(soc.hwicap().words_written(), received);
  auto& counters = soc.sim().obs().counters();
  EXPECT_EQ(counters.counter_value(counters.counter_index("hwicap.words_written")),
            received);
}

TEST(ReconfigModuleStruct, DefaultsAreEmpty) {
  const driver::ReconfigModule m;
  EXPECT_TRUE(m.pbit_name.empty());
  EXPECT_EQ(m.rm_id, 0u);
  EXPECT_EQ(m.start_address, 0u);
  EXPECT_EQ(m.pbit_size, 0u);
}

}  // namespace
}  // namespace rvcap
