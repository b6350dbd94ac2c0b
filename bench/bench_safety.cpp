// Extension study: safe-DPR services — configuration readback
// throughput, scrub-cycle cost, SEU detection/repair, and bitstream
// relocation across compatible partitions.
#include "bench_util.hpp"
#include "bitstream/relocate.hpp"
#include "driver/frame_check.hpp"

using namespace rvcap;

int main() {
  bench::print_header(
      "EXTENSION: safe DPR — readback, scrubbing, relocation");

  soc::ArianeSoc soc((soc::SocConfig()));
  driver::RvCapDriver drv(soc.cpu(), soc.plic());
  const auto verify = [&] {
    return driver::verify_partition(drv, soc.config_memory(), soc.rp0(),
                                    0x8D00'0000);
  };

  // Load the Sobel module into RP0.
  const auto rec = bench::run_rvcap_reconfig(soc, drv, accel::kRmIdSobel);
  std::printf("\nmodule load: T_r = %.1f us (%.1f MB/s)\n", rec.tr_us,
              rec.mbps);

  // ---- readback throughput --------------------------------------------
  Cycles t0 = soc.sim().now();
  u32 got = 0;
  if (!ok(drv.readback_partition(soc.device(), soc.rp0(), 0x8C00'0000,
                                 0x8D00'0000, &got))) {
    return 1;
  }
  const Cycles rb_cycles = soc.sim().now() - t0;
  std::printf("partition readback: %u words in %.1f us = %.1f MB/s "
              "(same DMA path as configuration; the 400 MB/s port bound\n"
              "applies to reads too)\n",
              got, cycles_to_us(rb_cycles),
              throughput_mbps(u64{got} * 4, rb_cycles));

  // ---- scrub cycle cost -------------------------------------------------
  t0 = soc.sim().now();
  if (!ok(verify())) return 1;
  const Cycles scrub_cycles = soc.sim().now() - t0;
  std::printf("\nscrub cycle (readback + frame-ECC check): %.1f us per "
              "%u-frame partition\n",
              cycles_to_us(scrub_cycles),
              soc.rp0().frame_count(soc.device()));

  // ---- SEU detection + repair -------------------------------------------
  const auto addrs = soc.rp0().frame_addrs(soc.device());
  soc.config_memory().inject_upset(addrs[123], 45, 7);
  driver::ReconfigModule m{"", accel::kRmIdSobel,
                           soc::MemoryMap::kPbitStagingBase, rec.pbit_bytes};
  t0 = soc.sim().now();
  const bool detected = verify() == Status::kCrcError;
  const bool repaired =
      detected &&
      ok(drv.init_reconfig_process(m, driver::DmaMode::kInterrupt)) &&
      ok(verify());
  const Cycles repair_cycles = soc.sim().now() - t0;
  std::printf("SEU injected -> detected %s, repaired %s in %.1f us "
              "(verify + full-partition reload + verify)\n",
              detected ? "OK" : "FAILED", repaired ? "OK" : "FAILED",
              cycles_to_us(repair_cycles));

  // ---- relocation ---------------------------------------------------------
  std::vector<fabric::Partition::ColumnRef> cols;
  for (u32 c = 37; c <= 49; ++c) cols.push_back({1, c});
  const fabric::Partition rp_alt("RP_ALT", cols);
  const usize h_alt = soc.add_partition(rp_alt);
  const auto pbit = bitstream::generate_partial_bitstream(
      soc.device(), soc.rp0(), {accel::kRmIdMedian, "median"});
  std::vector<u8> moved;
  t0 = soc.sim().now();
  if (!ok(bitstream::relocate_bitstream(soc.device(), soc.rp0(), rp_alt,
                                        pbit, &moved))) {
    return 1;
  }
  soc.ddr().poke(soc::MemoryMap::kPbitStagingBase, moved);
  driver::ReconfigModule mm{"", accel::kRmIdMedian,
                            soc::MemoryMap::kPbitStagingBase,
                            static_cast<u32>(moved.size())};
  if (!ok(drv.init_reconfig_process(mm, driver::DmaMode::kInterrupt))) {
    return 1;
  }
  const bool reloc_ok =
      soc.config_memory().partition_state(h_alt).loaded &&
      soc.config_memory().partition_state(h_alt).rm_id ==
          accel::kRmIdMedian;
  std::printf("\nrelocation: Median module retargeted RP0(row3) -> "
              "RP_ALT(row1), loaded: %s (T_r = %.1f us)\n",
              reloc_ok ? "OK" : "FAILED",
              drv.last_timing().reconfig_us());

  bench::print_footnote();
  return (repaired && reloc_ok) ? 0 : 1;
}
