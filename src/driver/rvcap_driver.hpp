// RV-CAP driver APIs — Listing 1 of the paper, with CLINT-timed
// decision (T_d) and reconfiguration (T_r) phases.
#pragma once

#include <span>
#include <vector>

#include "cpu/cpu.hpp"
#include "driver/primitives.hpp"
#include "driver/reconfig_module.hpp"
#include "driver/timer.hpp"
#include "fabric/geometry.hpp"
#include "irq/plic.hpp"
#include "rvcap/dma.hpp"
#include "rvcap/rp_control.hpp"
#include "soc/memory_map.hpp"
#include "storage/fat32.hpp"

namespace rvcap::driver {

/// Set or clear `bit` of slot `slot`'s RP-control register behind
/// `rp_base` with one uncached load and one store. Every routing step
/// of both drivers (decouple, select_ICAP, decompress, abort) is this
/// read-modify-write.
void write_rp_control(cpu::CpuContext& cpu, Addr rp_base, u32 slot, u32 bit,
                      bool set);

class RvCapDriver {
 public:
  struct Timing {
    u64 decision_ticks = 0;  // T_d in CLINT (5 MHz) ticks
    u64 reconfig_ticks = 0;  // T_r in CLINT ticks
    double decision_us() const { return TimerDriver::ticks_to_us(decision_ticks); }
    double reconfig_us() const { return TimerDriver::ticks_to_us(reconfig_ticks); }
  };

  /// Every poll and WFI bound is derived from the transfer size:
  /// expected beats x a slack factor plus a fixed floor, so a 4 KiB
  /// blanking pass times out orders of magnitude sooner than a 650 KiB
  /// RM image. A non-zero `irq_wait_cycles` replaces the derived WFI
  /// bound (tests shrink it so timeout paths complete in milliseconds).
  struct Timeouts {
    u64 irq_wait_cycles = 0;
  };

  void set_timeouts(const Timeouts& t) { timeouts_ = t; }
  const Timeouts& timeouts() const { return timeouts_; }

  RvCapDriver(cpu::CpuContext& cpu, irq::Plic& plic,
              Addr dma_base = soc::MemoryMap::kDmaCtrl.base,
              Addr rp_base = soc::MemoryMap::kRpCtrl.base,
              Addr plic_base = soc::MemoryMap::kPlic.base,
              Addr clint_base = soc::MemoryMap::kClint.base,
              Addr perf_base = soc::MemoryMap::kPerfRegs.base);

  /// Step 1 (Listing 1): read each module's pbit size from the FAT32
  /// volume and load the bitstream from the SD card to its DDR staging
  /// address. Fills start_address/pbit_size of each descriptor.
  Status init_RModules(std::span<ReconfigModule> modules,
                       storage::Fat32Volume& volume,
                       Addr staging_base = soc::MemoryMap::kPbitStagingBase);

  /// Full Listing-1 reconfiguration: decouple -> select ICAP ->
  /// reconfigure_RP -> recouple, measuring T_d and T_r via the CLINT.
  /// `hold_decoupled` skips the final recouple: the safe-DPR recovery
  /// flow keeps the RP isolated until the configuration is verified.
  Status init_reconfig_process(const ReconfigModule& m, DmaMode mode,
                               bool hold_decoupled = false);

  /// Individual steps (exposed for tests and ablations).
  void decouple_accel(bool decouple);
  void select_ICAP(bool select);
  void select_decompress(bool enable);
  Status reconfigure_RP(Addr data, u32 pbit_size, DmaMode mode);

  // ---- multi-slot addressing ----
  /// Aim every RP-control access (decouple, status probes, RM
  /// registers) at slot `slot`'s register window (slot 0 by default);
  /// the binding persists until the next bind_slot().
  void bind_slot(u32 slot) {
    bound_slot_ = slot;
    slot_offset_ = u64{slot} * rvcap_ctrl::RpControl::kSlotStride;
  }
  /// Route the acceleration stream pair to `slot`'s RM port (the
  /// global kRmSelect register; independent of the window binding).
  void select_rm_slot(u32 slot);

  /// Listing-1 flow for an RVZ0-compressed bitstream (RT-ICAP-style
  /// extension): enables the inline decompressor for the transfer.
  /// `m.pbit_size` is the COMPRESSED byte count.
  Status init_reconfig_process_compressed(const ReconfigModule& m,
                                          DmaMode mode,
                                          bool hold_decoupled = false);

  // ---- failure cleanup (the recovery state machine's ops) ----
  /// Soft-reset both DMA channels, dropping any wedged or errored job.
  void dma_reset();
  /// Pulse the RP-control abort bit: flush the stream datapath and
  /// desync the ICAP.
  void icap_abort();
  /// Full cleanup after a failed transfer: DMA reset, a settle window
  /// that drains in-flight DDR read beats, then the datapath abort.
  /// Leaves decouple/select_ICAP routing bits untouched.
  void cleanup_after_failure();

  /// Acceleration mode: stream `in_bytes` from `src` through the RM and
  /// write `out_bytes` back to `dst` (Fig. 2 datapath, select_ICAP=0).
  Status run_accelerator(Addr src, u32 in_bytes, Addr dst, u32 out_bytes,
                         DmaMode mode);

  /// Configuration-memory readback (§III-C: the ICAP path also reads):
  /// stream a readback command sequence via MM2S, capture `words` FDRO
  /// words via S2MM into `dst`. `words` must be even (the ICAP2AXIS
  /// block packs word pairs into 64-bit beats).
  Status readback(const fabric::FrameAddr& start, u32 words,
                  Addr cmd_staging, Addr dst,
                  DmaMode mode = DmaMode::kInterrupt,
                  bool hold_decoupled = false);

  /// Single-frame rewrite (scrub repair): stream a minimal WCFG pass
  /// writing `words` (exactly one frame) at `fa` — no RCRC, no CRC
  /// check, so a repair cannot invalidate an unrelated pass. Wraps the
  /// transfer in the usual decouple/select_ICAP routing.
  Status write_frame(const fabric::FrameAddr& fa, std::span<const u32> words,
                     Addr cmd_staging, DmaMode mode = DmaMode::kInterrupt,
                     bool hold_decoupled = false);

  /// Read back every frame of a partition (one pass per contiguous
  /// column range); on return *words_read holds the total word count
  /// landed at `dst`. The basis of safe-DPR verification flows.
  Status readback_partition(const fabric::DeviceGeometry& dev,
                            const fabric::Partition& part, Addr cmd_staging,
                            Addr dst, u32* words_read,
                            DmaMode mode = DmaMode::kInterrupt,
                            bool hold_decoupled = false);

  /// Snapshot the in-flight MM2S transfer: beat counter, status
  /// register, RP-control status, CLINT timestamp. Three uncached reads
  /// plus the mtime dance — cheap enough to poll from a watchdog.
  TransferProgress probe_mm2s();

  /// Install a StallWatchdog fencing (and possibly aborting) every
  /// MM2S wait; nullptr detaches. Its trip hook runs inside the wait
  /// loop, so it must not start transfers itself.
  void set_watchdog(StallWatchdog* w) { watchdog_ = w; }
  StallWatchdog* watchdog() const { return watchdog_; }

  /// Write an RM control register through the RP control interface.
  void rm_reg_write(u32 index, u32 value);
  u32 rm_reg_read(u32 index);

  const Timing& last_timing() const { return timing_; }

  /// Current CLINT mtime (exposed so services can timestamp events).
  u64 mtime() { return timer_.read_mtime(); }

  // ---- PerfRegs window (soc::PerfRegs MMIO; firmware-style access) ----
  /// Select the counter index the next perf_read() returns. Indices
  /// wrap modulo perf_count(), so a free-running scan is safe.
  void perf_select(u32 index);
  /// Read the selected counter's latched 64-bit value (LO then HI).
  u64 perf_read();
  /// Number of counters registered behind the window.
  u32 perf_count();

  /// The CPU context driver services run on (scrub service, manager).
  cpu::CpuContext& cpu_context() { return cpu_; }

  /// Calibrated software cost of the RM-selection phase (descriptor
  /// lookup, FAT32 metadata checks, API entry) in instruction bundles;
  /// together with the six MMIO accesses of the decision phase this
  /// reproduces the paper's T_d = 18 us.
  static constexpr u64 kDecisionInstructions = 1350;

 private:
  /// The MM2S job, split where the transfer starts: arm_mm2s() writes
  /// CR and the source address, start_mm2s() writes LENGTH, which kicks
  /// off the read (init_reconfig_process reads the CLINT in between).
  void arm_mm2s(Addr src, u32 cr);
  void start_mm2s(u32 bytes);
  /// Stream `in_bytes` from `src` out through MM2S and capture
  /// `out_bytes` at `dst` through S2MM; completes on the S2MM side.
  Status stream_job(Addr src, u32 in_bytes, Addr dst, u32 out_bytes,
                    DmaMode mode);
  Status wait_mm2s_done(DmaMode mode, u64 bytes);
  Status wait_s2mm_done(DmaMode mode, u64 bytes);
  /// WFI bound for a transfer of `bytes` (interrupt mode).
  u64 irq_bound(u64 bytes) const;
  /// RP-control register address within the bound slot's window.
  Addr rp_addr(Addr off) const { return rp_base_ + slot_offset_ + off; }

  cpu::CpuContext& cpu_;
  irq::Plic& plic_;
  Addr dma_base_;
  Addr rp_base_;
  Addr slot_offset_ = 0;
  u32 bound_slot_ = 0;
  Addr plic_base_;
  Addr perf_base_;
  TimerDriver timer_;
  Timing timing_;
  Timeouts timeouts_;
  StallWatchdog* watchdog_ = nullptr;
};

}  // namespace rvcap::driver
