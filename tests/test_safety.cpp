// Relocation and scrubbing: the safe-DPR extension suite.
#include <gtest/gtest.h>

#include "bitstream/generator.hpp"
#include "bitstream/parser.hpp"
#include "bitstream/relocate.hpp"
#include "driver/frame_check.hpp"
#include "soc/ariane_soc.hpp"

namespace rvcap {
namespace {

using bitstream::partitions_compatible;
using bitstream::relocate_bitstream;
using driver::DmaMode;
using driver::verify_partition;
using fabric::Partition;
using soc::ArianeSoc;
using soc::MemoryMap;
using soc::SocConfig;

// ---------------------------------------------------------------------------
// Relocation
// ---------------------------------------------------------------------------

struct RelocFixture : ::testing::Test {
  RelocFixture() : soc(SocConfig{}), drv(soc.cpu(), soc.plic()) {}
  ArianeSoc soc;
  driver::RvCapDriver drv;
};

TEST_F(RelocFixture, CompatibilityRules) {
  const auto& dev = soc.device();
  const Partition a("a", {{0, 2}, {0, 3}});       // CLB CLB
  const Partition b("b", {{4, 10}, {4, 11}});     // CLB CLB, other row
  const Partition c("c", {{0, 2}});               // one CLB
  const Partition d("d", {{0, 2}, {0, 4}});       // CLB CLB, gap
  const Partition e("e", {{0, 2}, {0, 26}});      // CLB BRAM
  EXPECT_TRUE(partitions_compatible(dev, a, b));
  EXPECT_TRUE(partitions_compatible(dev, b, a));
  EXPECT_FALSE(partitions_compatible(dev, a, c));  // size mismatch
  EXPECT_FALSE(partitions_compatible(dev, a, d));  // contiguity mismatch
  EXPECT_FALSE(partitions_compatible(dev, a, e));  // type mismatch
}

TEST_F(RelocFixture, RelocatedBitstreamIsStructurallyValid) {
  const auto& dev = soc.device();
  const Partition from("from", {{0, 2}, {0, 3}});
  const Partition to("to", {{4, 10}, {4, 11}});
  const auto pbit =
      bitstream::generate_partial_bitstream(dev, from, {9, "m"});
  std::vector<u8> moved;
  ASSERT_EQ(relocate_bitstream(dev, from, to, pbit, &moved), Status::kOk);
  EXPECT_EQ(moved.size(), pbit.size());

  bitstream::ParsedBitstream parsed;
  ASSERT_EQ(bitstream::parse_bitstream(moved, &parsed), Status::kOk);
  EXPECT_TRUE(parsed.crc_ok) << "CRC checkpoints must be recomputed";
  ASSERT_EQ(parsed.sections.size(), 1u);
  EXPECT_EQ(parsed.sections[0].start, (fabric::FrameAddr{4, 10, 0}));
}

TEST_F(RelocFixture, RelocatedModuleActivatesInTargetPartition) {
  const auto& dev = soc.device();
  // The case-study window exists at every row: relocate RP0's module
  // from row 3 to the same columns in row 1.
  std::vector<Partition::ColumnRef> cols;
  for (u32 c = 37; c <= 49; ++c) cols.push_back({1, c});
  const Partition rp_alt("RP_ALT", cols);
  const usize h_alt = soc.add_partition(rp_alt);

  const auto pbit = bitstream::generate_partial_bitstream(
      dev, soc.rp0(), {accel::kRmIdMedian, "median"});
  std::vector<u8> moved;
  ASSERT_EQ(relocate_bitstream(dev, soc.rp0(), rp_alt, pbit, &moved),
            Status::kOk);

  soc.ddr().poke(MemoryMap::kPbitStagingBase, moved);
  driver::ReconfigModule m{"", accel::kRmIdMedian,
                           MemoryMap::kPbitStagingBase,
                           static_cast<u32>(moved.size())};
  ASSERT_EQ(drv.init_reconfig_process(m, DmaMode::kInterrupt), Status::kOk);

  EXPECT_FALSE(soc.icap().crc_error());
  const auto st_alt = soc.config_memory().partition_state(h_alt);
  EXPECT_TRUE(st_alt.loaded);
  EXPECT_EQ(st_alt.rm_id, accel::kRmIdMedian);
  // RP0 itself is untouched.
  EXPECT_FALSE(
      soc.config_memory().partition_state(soc.rp0_handle()).loaded);
}

TEST_F(RelocFixture, IncompatibleRelocationRejected) {
  const auto& dev = soc.device();
  const Partition from("from", {{0, 2}, {0, 3}});
  const Partition bad("bad", {{0, 2}});
  const auto pbit =
      bitstream::generate_partial_bitstream(dev, from, {9, "m"});
  std::vector<u8> out;
  EXPECT_EQ(relocate_bitstream(dev, from, bad, pbit, &out),
            Status::kInvalidArgument);
}

TEST_F(RelocFixture, MalformedInputRejected) {
  const auto& dev = soc.device();
  const Partition a("a", {{0, 2}}), b("b", {{1, 2}});
  std::vector<u8> out;
  const u8 junk[] = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(relocate_bitstream(dev, a, b, junk, &out),
            Status::kProtocolError);
}

// ---------------------------------------------------------------------------
// Scrubbing: the one-shot frame-ECC partition verify
// ---------------------------------------------------------------------------

struct ScrubFixture : ::testing::Test {
  ScrubFixture() : soc(SocConfig{}), drv(soc.cpu(), soc.plic()) {}

  driver::ReconfigModule load(u32 rm_id) {
    const auto pbit = bitstream::generate_partial_bitstream(
        soc.device(), soc.rp0(), {rm_id, "m"});
    soc.ddr().poke(MemoryMap::kPbitStagingBase, pbit);
    driver::ReconfigModule m{"", rm_id, MemoryMap::kPbitStagingBase,
                             static_cast<u32>(pbit.size())};
    EXPECT_EQ(drv.init_reconfig_process(m, DmaMode::kInterrupt),
              Status::kOk);
    return m;
  }

  /// Read RP0 back and check every frame against its recorded ECC.
  Status verify() {
    return verify_partition(drv, soc.config_memory(), soc.rp0(), 0x8D00'0000);
  }

  ArianeSoc soc;
  driver::RvCapDriver drv;
};

TEST_F(ScrubFixture, CleanPartitionScrubsClean) {
  load(accel::kRmIdSobel);
  const u64 words0 = soc.icap().words_read_back();
  EXPECT_EQ(verify(), Status::kOk);
  EXPECT_EQ(soc.icap().words_read_back() - words0,
            u64{soc.rp0().frame_count(soc.device())} * fabric::kFrameWords);
}

TEST_F(ScrubFixture, DetectsInjectedUpset) {
  load(accel::kRmIdMedian);
  // Flip one configuration bit deep inside the partition.
  const auto addrs = soc.rp0().frame_addrs(soc.device());
  ASSERT_TRUE(soc.config_memory().inject_upset(addrs[400], 77, 13));
  EXPECT_EQ(verify(), Status::kCrcError);
  // The functional model keeps the module loaded (an SEU is silent) —
  // which is exactly why scrubbing is needed.
  EXPECT_TRUE(soc.config_memory().partition_state(soc.rp0_handle()).loaded);
}

TEST_F(ScrubFixture, RepairRestoresPartition) {
  const auto m = load(accel::kRmIdGaussian);
  const auto addrs = soc.rp0().frame_addrs(soc.device());
  ASSERT_TRUE(soc.config_memory().inject_upset(addrs[10], 5, 31));

  // Detect, reload the module, verify again.
  ASSERT_EQ(verify(), Status::kCrcError);
  ASSERT_EQ(drv.init_reconfig_process(m, DmaMode::kInterrupt), Status::kOk);
  EXPECT_EQ(verify(), Status::kOk);
  const auto st = soc.config_memory().partition_state(soc.rp0_handle());
  EXPECT_TRUE(st.loaded);
  EXPECT_EQ(st.rm_id, accel::kRmIdGaussian);
}

TEST_F(ScrubFixture, RepairSkippedWhenClean) {
  load(accel::kRmIdSobel);
  const u64 written = soc.config_memory().frames_written();
  // A clean verify calls for no reload, and the readback itself
  // writes no frame.
  ASSERT_EQ(verify(), Status::kOk);
  EXPECT_EQ(soc.config_memory().frames_written(), written);
}

TEST_F(ScrubFixture, UpsetInjectionBoundsChecked) {
  load(accel::kRmIdSobel);
  const auto addrs = soc.rp0().frame_addrs(soc.device());
  EXPECT_FALSE(soc.config_memory().inject_upset(
      fabric::FrameAddr{60, 0, 0}, 0, 0));              // invalid frame
  EXPECT_FALSE(soc.config_memory().inject_upset(addrs[0], 999, 0));
  EXPECT_FALSE(soc.config_memory().inject_upset(addrs[0], 0, 40));
}

}  // namespace
}  // namespace rvcap
