// Cross-feature integration: determinism of the whole stack, and
// compositions of the extension features (relocate + compress +
// readback + scrub) that no single-feature suite exercises together.
#include <gtest/gtest.h>

#include "bitstream/compress.hpp"
#include "bitstream/generator.hpp"
#include "bitstream/relocate.hpp"
#include "common/bytes.hpp"
#include "driver/frame_check.hpp"
#include "soc/ariane_soc.hpp"

namespace rvcap {
namespace {

using driver::DmaMode;
using soc::ArianeSoc;
using soc::MemoryMap;
using soc::SocConfig;

driver::ReconfigModule stage(ArianeSoc& soc, std::span<const u8> pbit,
                             u32 rm_id, Addr addr) {
  soc.ddr().poke(addr, pbit);
  return driver::ReconfigModule{"", rm_id, addr,
                                static_cast<u32>(pbit.size())};
}

TEST(Determinism, TwoFreshSocsProduceIdenticalTimings) {
  // The entire stack is deterministic: same inputs, same cycle counts.
  std::vector<u64> td, tr, end_cycle;
  for (int run = 0; run < 2; ++run) {
    ArianeSoc soc((SocConfig()));
    driver::RvCapDriver drv(soc.cpu(), soc.plic());
    const auto pbit = bitstream::generate_partial_bitstream(
        soc.device(), soc.rp0(), {accel::kRmIdSobel, "s"});
    const auto m = stage(soc, pbit, accel::kRmIdSobel, 0x8800'0000);
    ASSERT_EQ(drv.init_reconfig_process(m, DmaMode::kInterrupt),
              Status::kOk);
    td.push_back(drv.last_timing().decision_ticks);
    tr.push_back(drv.last_timing().reconfig_ticks);
    end_cycle.push_back(soc.sim().now());
  }
  EXPECT_EQ(td[0], td[1]);
  EXPECT_EQ(tr[0], tr[1]);
  EXPECT_EQ(end_cycle[0], end_cycle[1]);
}

TEST(Determinism, GeneratedBitstreamsAreStable) {
  const auto dev = fabric::DeviceGeometry::kintex7_325t();
  const auto rp = fabric::case_study_partition(dev);
  const auto a = bitstream::generate_partial_bitstream(dev, rp, {1, "x"});
  const auto b = bitstream::generate_partial_bitstream(dev, rp, {1, "x"});
  EXPECT_EQ(a, b);
}

TEST(Combos, CompressedRelocatedBitstreamLoads) {
  ArianeSoc soc((SocConfig()));
  driver::RvCapDriver drv(soc.cpu(), soc.plic());

  // Build for RP0, relocate to the same window in row 0, compress.
  std::vector<fabric::Partition::ColumnRef> cols;
  const u32 start = soc.device().accel_window_start();
  for (u32 c = start; c < start + 13; ++c) cols.push_back({0, c});
  const fabric::Partition alt("RP_R0", cols);
  const usize h_alt = soc.add_partition(alt);

  const auto pbit = bitstream::generate_partial_bitstream(
      soc.device(), soc.rp0(), {accel::kRmIdGaussian, "g"},
      bitstream::FrameFill::kSparse);
  std::vector<u8> moved, packed;
  ASSERT_EQ(bitstream::relocate_bitstream(soc.device(), soc.rp0(), alt,
                                          pbit, &moved),
            Status::kOk);
  ASSERT_EQ(bitstream::compress_bitstream(moved, &packed), Status::kOk);
  EXPECT_LT(packed.size(), moved.size() / 3);

  const auto m = stage(soc, packed, accel::kRmIdGaussian, 0x8800'0000);
  ASSERT_EQ(drv.init_reconfig_process_compressed(m, DmaMode::kInterrupt),
            Status::kOk);
  ASSERT_TRUE(soc.sim().run_until_idle(2'000'000));

  const auto st = soc.config_memory().partition_state(h_alt);
  EXPECT_TRUE(st.loaded);
  EXPECT_EQ(st.rm_id, accel::kRmIdGaussian);
  EXPECT_FALSE(soc.icap().crc_error());
}

TEST(Combos, ReadbackOfRelocatedPartitionMatchesOriginalPayload) {
  ArianeSoc soc((SocConfig()));
  driver::RvCapDriver drv(soc.cpu(), soc.plic());

  std::vector<fabric::Partition::ColumnRef> cols;
  const u32 start = soc.device().accel_window_start();
  for (u32 c = start; c < start + 13; ++c) cols.push_back({5, c});
  const fabric::Partition alt("RP_R5", cols);
  soc.add_partition(alt);

  const auto pbit = bitstream::generate_partial_bitstream(
      soc.device(), soc.rp0(), {accel::kRmIdMedian, "m"});
  // Load the ORIGINAL into RP0 and the RELOCATED copy into row 5.
  const auto m0 = stage(soc, pbit, accel::kRmIdMedian, 0x8800'0000);
  ASSERT_EQ(drv.init_reconfig_process(m0, DmaMode::kInterrupt), Status::kOk);
  std::vector<u8> moved;
  ASSERT_EQ(bitstream::relocate_bitstream(soc.device(), soc.rp0(), alt,
                                          pbit, &moved),
            Status::kOk);
  const auto m5 = stage(soc, moved, accel::kRmIdMedian, 0x8900'0000);
  ASSERT_EQ(drv.init_reconfig_process(m5, DmaMode::kInterrupt), Status::kOk);

  // Read both partitions back: identical frame payloads.
  u32 w0 = 0, w5 = 0;
  ASSERT_EQ(drv.readback_partition(soc.device(), soc.rp0(), 0x8C00'0000,
                                   0x8D00'0000, &w0),
            Status::kOk);
  ASSERT_EQ(drv.readback_partition(soc.device(), alt, 0x8C00'0000,
                                   0x8E00'0000, &w5),
            Status::kOk);
  ASSERT_EQ(w0, w5);
  std::vector<u8> a(usize{w0} * 4), b(usize{w5} * 4);
  soc.ddr().peek(0x8D00'0000, a);
  soc.ddr().peek(0x8E00'0000, b);
  EXPECT_EQ(a, b) << "relocation must not alter the configured logic";
}

TEST(Combos, ScrubRelocatedPartition) {
  ArianeSoc soc((SocConfig()));
  driver::RvCapDriver drv(soc.cpu(), soc.plic());

  std::vector<fabric::Partition::ColumnRef> cols;
  const u32 start = soc.device().accel_window_start();
  for (u32 c = start; c < start + 13; ++c) cols.push_back({6, c});
  const fabric::Partition alt("RP_R6", cols);
  soc.add_partition(alt);

  const auto pbit = bitstream::generate_partial_bitstream(
      soc.device(), soc.rp0(), {accel::kRmIdSobel, "s"});
  std::vector<u8> moved;
  ASSERT_EQ(bitstream::relocate_bitstream(soc.device(), soc.rp0(), alt,
                                          pbit, &moved),
            Status::kOk);
  const auto m = stage(soc, moved, accel::kRmIdSobel, 0x8800'0000);
  ASSERT_EQ(drv.init_reconfig_process(m, DmaMode::kInterrupt), Status::kOk);

  const auto verify = [&] {
    return driver::verify_partition(drv, soc.config_memory(), alt,
                                    0x8D00'0000);
  };
  EXPECT_EQ(verify(), Status::kOk);
  // Inject, detect, reload and verify again on the relocated partition.
  ASSERT_TRUE(
      soc.config_memory().inject_upset(alt.frame_addrs(soc.device())[7], 3, 3));
  ASSERT_EQ(verify(), Status::kCrcError);
  ASSERT_EQ(drv.init_reconfig_process(m, DmaMode::kInterrupt), Status::kOk);
  EXPECT_EQ(verify(), Status::kOk);
}

}  // namespace
}  // namespace rvcap
