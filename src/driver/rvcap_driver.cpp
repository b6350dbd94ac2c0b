#include "driver/rvcap_driver.hpp"

#include "bitstream/readback.hpp"

#include <algorithm>
#include <vector>

#include "common/bytes.hpp"
#include "common/log.hpp"
#include "soc/memory_map.hpp"
#include "soc/perf_regs.hpp"

namespace rvcap::driver {

using rvcap_ctrl::AxiDma;
using rvcap_ctrl::RpControl;

namespace {

// Size-derived wait bounds (beats = 64-bit bus beats). Each blocking
// poll iteration costs a full uncached-read round trip — many core
// cycles — while the engine moves about a beat per cycle, so even a
// few iterations per beat is generous.
constexpr u64 kPollItersFloor = 20'000;  // setup, DDR warmup
constexpr u64 kMm2sItersPerBeat = 8;
constexpr u64 kS2mmItersPerBeat = 64;  // readback trickles out of FDRO
constexpr u64 kIrqCyclesFloor = 4'000'000;
constexpr u64 kIrqCyclesPerBeat = 512;
constexpr u32 kDrainPollIters = 4'000'000;  // decompressor drain poll

u64 beats(u64 bytes) { return (bytes + 7) / 8; }

u32 poll_bound(u64 bytes, u64 iters_per_beat) {
  const u64 v = kPollItersFloor + beats(bytes) * iters_per_beat;
  return v > 0xFFFF'FFFFull ? 0xFFFF'FFFFu : static_cast<u32>(v);
}

// MM2S CR of a configuration transfer: run, plus the completion and
// error interrupts in interrupt mode.
u32 config_cr(DmaMode mode) {
  return mode == DmaMode::kInterrupt
             ? AxiDma::kCrRunStop | AxiDma::kCrIocIrqEn | AxiDma::kCrErrIrqEn
             : AxiDma::kCrRunStop;
}

}  // namespace

void write_rp_control(cpu::CpuContext& cpu, Addr rp_base, u32 slot, u32 bit,
                      bool set) {
  const Addr ctl = rp_base + u64{slot} * RpControl::kSlotStride +
                   RpControl::kControl;
  const u32 cur = cpu.load32_uncached(ctl);
  cpu.store32_uncached(ctl, set ? (cur | bit) : (cur & ~bit));
}

RvCapDriver::RvCapDriver(cpu::CpuContext& cpu, irq::Plic& plic,
                         Addr dma_base, Addr rp_base, Addr plic_base,
                         Addr clint_base, Addr perf_base)
    : cpu_(cpu), plic_(plic), dma_base_(dma_base), rp_base_(rp_base),
      plic_base_(plic_base), perf_base_(perf_base), timer_(cpu, clint_base) {
  // Enable the DMA completion sources at the PLIC (priority 1).
  cpu_.store32_uncached(plic_base_ + irq::Plic::kEnableBase,
                        (1u << soc::IrqMap::kDmaMm2s) |
                            (1u << soc::IrqMap::kDmaS2mm));
}

Status RvCapDriver::init_RModules(std::span<ReconfigModule> modules,
                                  storage::Fat32Volume& volume,
                                  Addr staging_base) {
  cpu_.spend_call_overhead();
  Addr next = staging_base;
  std::vector<u8> chunk(4096);
  for (ReconfigModule& m : modules) {
    u32 size = 0;
    if (auto st = volume.file_size(m.pbit_name, &size); !ok(st)) return st;
    m.pbit_size = size;
    m.start_address = next;
    m.crc32 = 0;
    // Stream SD -> DDR in cluster-sized chunks, accumulating the image
    // CRC so the staged copy can be verified before any ICAP transfer.
    u32 off = 0;
    while (off < size) {
      const u32 n = std::min<u32>(static_cast<u32>(chunk.size()), size - off);
      if (auto st = volume.read_file_range(
              m.pbit_name, off, std::span(chunk).first(n));
          !ok(st)) {
        return st;
      }
      m.crc32 = crc32(std::span<const u8>(chunk).first(n), m.crc32);
      cpu_.write_buffer(m.start_address + off, std::span(chunk).first(n));
      off += n;
    }
    next += (u64{size} + 63) & ~u64{63};  // 64-byte-aligned staging slots
  }
  return Status::kOk;
}

void RvCapDriver::decouple_accel(bool decouple) {
  write_rp_control(cpu_, rp_base_, bound_slot_, RpControl::kCtlDecouple,
                   decouple);
}

void RvCapDriver::select_ICAP(bool select) {
  write_rp_control(cpu_, rp_base_, bound_slot_, RpControl::kCtlSelectIcap,
                   select);
}

void RvCapDriver::select_rm_slot(u32 slot) {
  cpu_.store32_uncached(rp_addr(RpControl::kRmSelect), slot);
}

void RvCapDriver::select_decompress(bool enable) {
  write_rp_control(cpu_, rp_base_, bound_slot_, RpControl::kCtlDecompress,
                   enable);
}

Status RvCapDriver::init_reconfig_process_compressed(const ReconfigModule& m,
                                                     DmaMode mode,
                                                     bool hold_decoupled) {
  const u64 t0 = timer_.read_mtime();
  cpu_.spend_call_overhead();
  cpu_.spend_instructions(kDecisionInstructions);
  decouple_accel(true);
  select_ICAP(true);
  select_decompress(true);
  const u64 t1 = timer_.read_mtime();
  Status st = reconfigure_RP(m.start_address, m.pbit_size, mode);
  // The DMA finishes when the *compressed* stream has been fetched; the
  // decompressor keeps expanding into the ICAP. Wait for the drain
  // before touching any route (the kStDraining status bit).
  if (ok(st)) {
    bool drained = false;
    for (u32 i = 0; i < kDrainPollIters; ++i) {
      if (!(cpu_.load32_uncached(rp_addr(RpControl::kStatus)) &
            RpControl::kStDraining)) {
        drained = true;
        break;
      }
    }
    if (!drained) st = Status::kTimeout;
    // A couple more reads' worth of time lets the AXIS2ICAP/ICAP FIFOs
    // (a handful of words) empty.
    (void)cpu_.load32_uncached(rp_addr(RpControl::kStatus));
    (void)cpu_.load32_uncached(rp_addr(RpControl::kStatus));
  }
  const u64 t2 = timer_.read_mtime();
  select_decompress(false);
  select_ICAP(false);
  if (!hold_decoupled) decouple_accel(false);
  timing_.decision_ticks = t1 - t0;
  timing_.reconfig_ticks = t2 - t1;
  return st;
}

Status RvCapDriver::reconfigure_RP(Addr data, u32 pbit_size, DmaMode mode) {
  arm_mm2s(data, config_cr(mode));
  start_mm2s(pbit_size);
  return wait_mm2s_done(mode, pbit_size);
}

void RvCapDriver::arm_mm2s(Addr src, u32 cr) {
  // dma_start(): the CR run bit (+ irq enables), then the source.
  cpu_.store32_uncached(dma_base_ + AxiDma::kMm2sCr, cr);
  cpu_.store32_uncached(dma_base_ + AxiDma::kMm2sSa, static_cast<u32>(src));
  cpu_.store32_uncached(dma_base_ + AxiDma::kMm2sSaMsb,
                        static_cast<u32>(src >> 32));
}

void RvCapDriver::start_mm2s(u32 bytes) {
  // dma_write_stream(): the LENGTH write kicks off the read.
  cpu_.store32_uncached(dma_base_ + AxiDma::kMm2sLength, bytes);
}

u64 RvCapDriver::irq_bound(u64 bytes) const {
  if (timeouts_.irq_wait_cycles != 0) return timeouts_.irq_wait_cycles;
  return kIrqCyclesFloor + beats(bytes) * kIrqCyclesPerBeat;
}

TransferProgress RvCapDriver::probe_mm2s() {
  TransferProgress p;
  p.beats = cpu_.load32_uncached(dma_base_ + AxiDma::kMm2sBeats);
  p.status = cpu_.load32_uncached(dma_base_ + AxiDma::kMm2sSr);
  p.rp_status = cpu_.load32_uncached(rp_addr(RpControl::kStatus));
  p.mtime = timer_.read_mtime();
  return p;
}

Status RvCapDriver::wait_mm2s_done(DmaMode mode, u64 bytes) {
  if (watchdog_ != nullptr) watchdog_->start(beats(bytes));
  if (mode == DmaMode::kInterrupt) {
    u64 budget = irq_bound(bytes);
    while (true) {
      // With a watchdog installed, sleep in watchdog-interval slices and
      // probe progress between them; otherwise one WFI for the bound.
      const u64 slice =
          watchdog_ != nullptr
              ? std::min<u64>(budget, StallWatchdog::kPollIntervalCycles)
              : budget;
      const u32 src = cpu_.wait_for_irq(
          plic_, plic_base_ + irq::Plic::kClaimComplete, slice);
      if (src != 0) {
        // Acknowledge at the DMA (W1C) and complete at the PLIC.
        u32 sr = cpu_.load32_uncached(dma_base_ + AxiDma::kMm2sSr);
        cpu_.store32_uncached(dma_base_ + AxiDma::kMm2sSr,
                              AxiDma::kSrIocIrq | AxiDma::kSrErrIrq);
        cpu_.complete_irq(plic_base_ + irq::Plic::kClaimComplete, src);
        if (sr & AxiDma::kSrErrMask) return Status::kIoError;
        // IOC without Idle was left by an earlier job: this one is still
        // running. If it finished before the acknowledge, Idle shows it;
        // otherwise its own IOC raises the line again.
        if ((sr & AxiDma::kSrIdle) == 0) {
          sr = cpu_.load32_uncached(dma_base_ + AxiDma::kMm2sSr);
        }
        if (sr & AxiDma::kSrIdle) return Status::kOk;
        continue;
      }
      budget -= slice;
      if (watchdog_ != nullptr && !watchdog_->poll(probe_mm2s())) {
        return Status::kHang;
      }
      if (budget == 0) return Status::kTimeout;
    }
  }
  // Blocking: poll the status register's IOC bit.
  const u32 bound = poll_bound(bytes, kMm2sItersPerBeat);
  Cycles next_probe = cpu_.now() + StallWatchdog::kPollIntervalCycles;
  for (u32 i = 0; i < bound; ++i) {
    const u32 sr = cpu_.load32_uncached(dma_base_ + AxiDma::kMm2sSr);
    if (sr & AxiDma::kSrErrMask) {
      cpu_.store32_uncached(dma_base_ + AxiDma::kMm2sSr, AxiDma::kSrErrIrq);
      return Status::kIoError;
    }
    // The completing tick sets IOC and Idle together; IOC alone was
    // left by an earlier, unacknowledged job.
    if ((sr & (AxiDma::kSrIocIrq | AxiDma::kSrIdle)) ==
        (AxiDma::kSrIocIrq | AxiDma::kSrIdle)) {
      cpu_.store32_uncached(dma_base_ + AxiDma::kMm2sSr, AxiDma::kSrIocIrq);
      return Status::kOk;
    }
    if (watchdog_ != nullptr && cpu_.now() >= next_probe) {
      if (!watchdog_->poll(probe_mm2s())) return Status::kHang;
      next_probe = cpu_.now() + StallWatchdog::kPollIntervalCycles;
    }
  }
  return Status::kTimeout;
}

Status RvCapDriver::init_reconfig_process(const ReconfigModule& m,
                                          DmaMode mode,
                                          bool hold_decoupled) {
  // ---- decision phase (T_d): select the RM, prepare the fetch ----
  const u64 t0 = timer_.read_mtime();
  cpu_.spend_call_overhead();
  cpu_.spend_instructions(kDecisionInstructions);  // RM-table lookup etc.
  decouple_accel(true);
  select_ICAP(true);
  arm_mm2s(m.start_address, config_cr(mode));
  const u64 t1 = timer_.read_mtime();

  // ---- reconfiguration phase (T_r): transfer begins at LENGTH write.
  start_mm2s(m.pbit_size);
  const Status st = wait_mm2s_done(mode, m.pbit_size);
  const u64 t2 = timer_.read_mtime();

  select_ICAP(false);
  // Recouple the RP (end of Listing 1) — unless the caller is running
  // the verified-activation flow and keeps the RP isolated until the
  // new configuration checks out.
  if (!hold_decoupled) decouple_accel(false);

  timing_.decision_ticks = t1 - t0;
  timing_.reconfig_ticks = t2 - t1;
  return st;
}

void RvCapDriver::dma_reset() {
  cpu_.store32_uncached(dma_base_ + AxiDma::kMm2sCr, AxiDma::kCrReset);
  cpu_.store32_uncached(dma_base_ + AxiDma::kS2mmCr, AxiDma::kCrReset);
}

void RvCapDriver::icap_abort() {
  write_rp_control(cpu_, rp_base_, bound_slot_, RpControl::kCtlIcapAbort,
                   true);
}

void RvCapDriver::cleanup_after_failure() {
  cpu_.spend_call_overhead();
  dma_reset();
  // Settle window: each status read advances simulated time, letting
  // the reset engine discard read bursts that were still in flight
  // toward the DDR when the transfer died.
  for (int i = 0; i < 16; ++i) {
    (void)cpu_.load32_uncached(dma_base_ + AxiDma::kMm2sSr);
  }
  icap_abort();
}

Status RvCapDriver::run_accelerator(Addr src, u32 in_bytes, Addr dst,
                                    u32 out_bytes, DmaMode mode) {
  cpu_.spend_call_overhead();
  // Acceleration mode: coupled RP, stream switch toward the RM.
  select_ICAP(false);
  decouple_accel(false);
  return stream_job(src, in_bytes, dst, out_bytes, mode);
}

Status RvCapDriver::stream_job(Addr src, u32 in_bytes, Addr dst,
                               u32 out_bytes, DmaMode mode) {
  // S2MM first so the write channel is ready for the returning stream.
  u32 cr = AxiDma::kCrRunStop;
  if (mode == DmaMode::kInterrupt) cr |= AxiDma::kCrIocIrqEn;
  cpu_.store32_uncached(dma_base_ + AxiDma::kS2mmCr, cr);
  cpu_.store32_uncached(dma_base_ + AxiDma::kS2mmDa, static_cast<u32>(dst));
  cpu_.store32_uncached(dma_base_ + AxiDma::kS2mmDaMsb,
                        static_cast<u32>(dst >> 32));
  cpu_.store32_uncached(dma_base_ + AxiDma::kS2mmLength, out_bytes);
  // MM2S feeds the stream; completion is signalled by S2MM alone.
  arm_mm2s(src, AxiDma::kCrRunStop);
  start_mm2s(in_bytes);
  const Status st = wait_s2mm_done(mode, out_bytes);
  // Clear the MM2S completion flag as well.
  cpu_.store32_uncached(dma_base_ + AxiDma::kMm2sSr, AxiDma::kSrIocIrq);
  return st;
}

Status RvCapDriver::wait_s2mm_done(DmaMode mode, u64 bytes) {
  if (mode == DmaMode::kInterrupt) {
    while (true) {
      const u32 src = cpu_.wait_for_irq(plic_, plic_base_ +
                                                  irq::Plic::kClaimComplete,
                                        irq_bound(bytes));
      if (src == 0) return Status::kTimeout;
      const bool s2mm = (src == soc::IrqMap::kDmaS2mm);
      if (s2mm) {
        cpu_.store32_uncached(dma_base_ + AxiDma::kS2mmSr,
                              AxiDma::kSrIocIrq);
      }
      cpu_.complete_irq(plic_base_ + irq::Plic::kClaimComplete, src);
      if (s2mm) return Status::kOk;
    }
  }
  const u32 bound = poll_bound(bytes, kS2mmItersPerBeat);
  for (u32 i = 0; i < bound; ++i) {
    const u32 sr = cpu_.load32_uncached(dma_base_ + AxiDma::kS2mmSr);
    // As in wait_mm2s_done: IOC without Idle is an earlier job's.
    if ((sr & (AxiDma::kSrIocIrq | AxiDma::kSrIdle)) ==
        (AxiDma::kSrIocIrq | AxiDma::kSrIdle)) {
      cpu_.store32_uncached(dma_base_ + AxiDma::kS2mmSr, AxiDma::kSrIocIrq);
      return Status::kOk;
    }
  }
  return Status::kTimeout;
}

Status RvCapDriver::readback(const fabric::FrameAddr& start, u32 words,
                             Addr cmd_staging, Addr dst, DmaMode mode,
                             bool hold_decoupled) {
  if (words == 0 || words % 2 != 0) return Status::kInvalidArgument;
  cpu_.spend_call_overhead();

  // Stage the command sequence in DDR.
  const std::vector<u8> cmd = bitstream::build_readback_bytes(start, words);
  cpu_.write_buffer(cmd_staging, cmd);

  decouple_accel(true);
  select_ICAP(true);

  // Capture `words` FDRO words while MM2S streams the command sequence
  // into the port.
  const Status st = stream_job(cmd_staging, static_cast<u32>(cmd.size()), dst,
                               words * 4, mode);
  select_ICAP(false);
  if (!hold_decoupled) decouple_accel(false);
  return st;
}

Status RvCapDriver::write_frame(const fabric::FrameAddr& fa,
                                std::span<const u32> words, Addr cmd_staging,
                                DmaMode mode, bool hold_decoupled) {
  if (words.size() != fabric::kFrameWords) return Status::kInvalidArgument;
  cpu_.spend_call_overhead();

  const std::vector<u8> cmd = bitstream::build_frame_write_bytes(fa, words);
  cpu_.write_buffer(cmd_staging, cmd);

  decouple_accel(true);
  select_ICAP(true);
  const Status st =
      reconfigure_RP(cmd_staging, static_cast<u32>(cmd.size()), mode);
  select_ICAP(false);
  if (!hold_decoupled) decouple_accel(false);
  return st;
}

Status RvCapDriver::readback_partition(const fabric::DeviceGeometry& dev,
                                       const fabric::Partition& part,
                                       Addr cmd_staging, Addr dst,
                                       u32* words_read, DmaMode mode,
                                       bool hold_decoupled) {
  *words_read = 0;
  const auto& cols = part.columns();
  usize i = 0;
  while (i < cols.size()) {
    usize j = i + 1;
    u32 frames = dev.frames_in_column(cols[i].column);
    while (j < cols.size() && cols[j].row == cols[j - 1].row &&
           cols[j].column == cols[j - 1].column + 1) {
      frames += dev.frames_in_column(cols[j].column);
      ++j;
    }
    const u32 words = frames * fabric::kFrameWords;
    const fabric::FrameAddr start{cols[i].row, cols[i].column, 0};
    if (auto st = readback(start, words, cmd_staging,
                           dst + u64{*words_read} * 4, mode, hold_decoupled);
        !ok(st)) {
      return st;
    }
    *words_read += words;
    i = j;
  }
  return Status::kOk;
}

void RvCapDriver::rm_reg_write(u32 index, u32 value) {
  cpu_.store32_uncached(rp_addr(RpControl::kRmRegBase) + 4 * index, value);
}

u32 RvCapDriver::rm_reg_read(u32 index) {
  return cpu_.load32_uncached(rp_addr(RpControl::kRmRegBase) + 4 * index);
}

void RvCapDriver::perf_select(u32 index) {
  cpu_.store32_uncached(perf_base_ + soc::PerfRegs::kSelect, index);
}

u64 RvCapDriver::perf_read() {
  // LO latches the full 64-bit value; HI returns the latched half, so
  // the pair is tear-free even while the counter keeps moving.
  const u32 lo = cpu_.load32_uncached(perf_base_ + soc::PerfRegs::kValueLo);
  const u32 hi = cpu_.load32_uncached(perf_base_ + soc::PerfRegs::kValueHi);
  return (u64{hi} << 32) | lo;
}

u32 RvCapDriver::perf_count() {
  return cpu_.load32_uncached(perf_base_ + soc::PerfRegs::kCount);
}

}  // namespace rvcap::driver
