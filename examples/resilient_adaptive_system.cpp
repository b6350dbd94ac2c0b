// Resilient adaptive system: the extension features working together.
//
// A mission-style loop on the RISC-V SoC:
//   * the DPR manager owns three named filter modules (staged in DDR),
//     activating whichever the "mission phase" requests and skipping
//     reconfiguration when it is already loaded;
//   * every processed frame is verified bit-exact against golden
//     software;
//   * a frame-ECC verify reads the partition's configuration memory
//     back; an injected SEU is detected and repaired by a forced
//     reload through the manager;
//   * one module is also relocated to a spare partition, demonstrating
//     bitstream retargeting.
#include <cstdio>

#include "bitstream/generator.hpp"
#include "bitstream/relocate.hpp"
#include "common/units.hpp"
#include "driver/dpr_manager.hpp"
#include "driver/frame_check.hpp"
#include "soc/ariane_soc.hpp"

using namespace rvcap;

int main() {
  soc::ArianeSoc soc((soc::SocConfig()));
  driver::RvCapDriver drv(soc.cpu(), soc.plic());
  driver::DprManager mgr(drv, soc.config_memory(), soc.rp0_handle(),
                         nullptr);
  const auto verify = [&] {
    return driver::verify_partition(drv, soc.config_memory(), soc.rp0(),
                                    0x8D00'0000);
  };

  // Stage all modules and register them with the manager.
  struct ModInfo {
    const char* name;
    u32 rm_id;
    Addr addr;
    u32 size;
  };
  ModInfo mods[] = {{"sobel", accel::kRmIdSobel, 0x8800'0000, 0},
                    {"median", accel::kRmIdMedian, 0x8880'0000, 0},
                    {"gaussian", accel::kRmIdGaussian, 0x8900'0000, 0}};
  for (auto& m : mods) {
    const auto pbit = bitstream::generate_partial_bitstream(
        soc.device(), soc.rp0(), {m.rm_id, m.name});
    m.size = static_cast<u32>(pbit.size());
    soc.ddr().poke(m.addr, pbit);
    if (!ok(mgr.register_staged(m.name, m.rm_id, m.addr, m.size))) return 1;
  }

  const accel::Image img = accel::make_test_image(512, 512, 7);
  soc.ddr().poke(soc::MemoryMap::kImageInBase, img.pixels);

  // Mission plan: phases reuse modules, so the manager's already-active
  // shortcut should fire on repeats.
  const char* plan[] = {"sobel", "sobel", "median", "median",
                        "median", "gaussian", "sobel"};
  bool all_exact = true;
  std::printf("%5s %-10s %-12s %s\n", "phase", "module", "action",
              "frame check");
  for (usize phase = 0; phase < std::size(plan); ++phase) {
    const u64 reconfigs_before = mgr.stats().reconfigurations;
    if (!ok(mgr.activate(plan[phase]))) return 1;
    const bool swapped = mgr.stats().reconfigurations != reconfigs_before;

    if (!ok(drv.run_accelerator(soc::MemoryMap::kImageInBase, 512 * 512,
                                soc::MemoryMap::kImageOutBase, 512 * 512,
                                driver::DmaMode::kInterrupt))) {
      return 1;
    }
    std::vector<u8> out(512 * 512);
    soc.ddr().peek(soc::MemoryMap::kImageOutBase, out);
    const auto golden = accel::apply_golden(
        accel::rm_id_to_kind(soc.rm_slot().active_rm()), img);
    const bool exact = out == golden.pixels;
    all_exact &= exact;
    std::printf("%5zu %-10s %-12s %s\n", phase, plan[phase],
                swapped ? "reconfigured" : "kept", exact ? "exact" : "BAD");

    // Radiation event mid-mission: phase 3 takes an SEU.
    if (phase == 3) {
      const auto addrs = soc.rp0().frame_addrs(soc.device());
      soc.config_memory().inject_upset(addrs[200], 101, 19);
      const bool detected = verify() == Status::kCrcError;
      const bool repaired =
          detected &&
          ok(mgr.activate(plan[phase], driver::DmaMode::kInterrupt,
                          /*force=*/true)) &&
          ok(verify());
      std::printf("      [scrub] SEU injected -> %s\n",
                  repaired ? "detected & repaired" : "FAILED");
      if (!repaired) return 1;
    }
  }

  // Relocation finale: move the Gaussian module to a spare partition.
  std::vector<fabric::Partition::ColumnRef> cols;
  for (u32 c = 37; c <= 49; ++c) cols.push_back({5, c});
  const fabric::Partition spare("RP_SPARE", cols);
  const usize h_spare = soc.add_partition(spare);
  const auto pbit = bitstream::generate_partial_bitstream(
      soc.device(), soc.rp0(), {accel::kRmIdGaussian, "gaussian"});
  std::vector<u8> moved;
  if (!ok(bitstream::relocate_bitstream(soc.device(), soc.rp0(), spare,
                                        pbit, &moved))) {
    return 1;
  }
  soc.ddr().poke(0x8A00'0000, moved);
  driver::ReconfigModule rm{"gaussian@spare", accel::kRmIdGaussian,
                            0x8A00'0000, static_cast<u32>(moved.size())};
  if (!ok(drv.init_reconfig_process(rm, driver::DmaMode::kInterrupt))) {
    return 1;
  }
  const bool spare_loaded =
      soc.config_memory().partition_state(h_spare).loaded;
  std::printf("\nrelocated Gaussian into %s: %s\n", spare.name().c_str(),
              spare_loaded ? "loaded" : "FAILED");

  std::printf("manager: %llu requests, %llu reconfigs, %llu skips; total "
              "T_r %.2f ms; frames %s\n",
              static_cast<unsigned long long>(
                  mgr.stats().activation_requests),
              static_cast<unsigned long long>(mgr.stats().reconfigurations),
              static_cast<unsigned long long>(
                  mgr.stats().already_active_hits),
              mgr.total_reconfig_us() / 1000.0,
              all_exact ? "all bit-exact" : "BROKEN");
  return (all_exact && spare_loaded) ? 0 : 1;
}
