// AXI_HWICAP driver — Listing 2 of the paper, with the §IV-B software
// optimization: the keyhole-register store loop is unrolled because
// Ariane cannot speculate past non-cacheable accesses, so each loop
// iteration otherwise stalls the pipeline on the conditional branch.
#pragma once

#include <span>

#include "cpu/cpu.hpp"
#include "driver/reconfig_module.hpp"
#include "driver/timer.hpp"
#include "fabric/geometry.hpp"
#include "soc/memory_map.hpp"

namespace rvcap::driver {

class HwIcapDriver {
 public:
  struct Timing {
    u64 reconfig_ticks = 0;  // decouple -> recouple, CLINT ticks (§IV-B)
    double reconfig_us() const { return TimerDriver::ticks_to_us(reconfig_ticks); }
  };

  HwIcapDriver(cpu::CpuContext& cpu, u32 unroll_factor = 16,
               Addr hwicap_base = soc::MemoryMap::kHwicap.base,
               Addr rp_base = soc::MemoryMap::kRpCtrl.base,
               Addr clint_base = soc::MemoryMap::kClint.base);

  /// Loop-unroll factor of the FIFO store loop (1 = the naive driver).
  void set_unroll(u32 u) { unroll_ = (u == 0) ? 1 : u; }
  u32 unroll() const { return unroll_; }

  /// Reset the core and disable the global interrupt (Listing 2's
  /// init_icap()).
  Status init_icap();

  /// Full Listing-2 flow: decouple -> init -> transfer -> recouple,
  /// measured as the paper does ("from decoupling the RP till it is
  /// coupled again"). `hold_decoupled` skips the final recouple for the
  /// verified-activation recovery flow. `slot` picks the RP-control
  /// window the decouple steps write (the partition `m` targets).
  Status init_reconfig_process(const ReconfigModule& m,
                               bool hold_decoupled = false, u32 slot = 0);

  /// Keyhole transfer only (the fill/flush loop).
  Status reconfigure_RP(Addr data, u32 pbit_size);

  void decouple_accel(bool decouple, u32 slot = 0);

  /// Configuration readback through the core's read FIFO: write the
  /// command sequence into the keyhole, set SZ, trigger CR.Read, then
  /// drain RF — all software-paced uncached accesses, like the write
  /// path.
  Status readback(const fabric::FrameAddr& start, std::span<u32> out);

  const Timing& last_timing() const { return timing_; }

 private:
  u32 read_fifo_vacancy();
  Status icap_done(u32 flushed_words);  // poll SR until the flush completes

  cpu::CpuContext& cpu_;
  u32 unroll_;
  Addr base_;
  Addr rp_base_;
  TimerDriver timer_;
  Timing timing_;
};

}  // namespace rvcap::driver
