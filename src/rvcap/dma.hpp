// Xilinx-AXI-DMA-style engine (direct register mode) — Fig. 2
// component 1.
//
// Master on the DDR side (64-bit AXI, max burst 16 as configured in
// §IV-A), AXI-Stream on the datapath side, AXI4-Lite control port for
// the CPU. MM2S fetches the partial bitstream (or accelerator input)
// from DDR and streams it out; S2MM writes the accelerator output
// stream back. Completion raises IOC interrupts toward the PLIC,
// enabling the paper's non-blocking reconfiguration mode.
#pragma once

#include <optional>

#include "axi/lite_slave.hpp"
#include "irq/plic.hpp"
#include "obs/counters.hpp"
#include "sim/fault_injector.hpp"

namespace rvcap::rvcap_ctrl {

class AxiDma : public axi::AxiLiteSlave {
 public:
  // Register offsets (Xilinx AXI DMA direct register mode).
  static constexpr Addr kMm2sCr = 0x00;
  static constexpr Addr kMm2sSr = 0x04;
  static constexpr Addr kMm2sSa = 0x18;
  static constexpr Addr kMm2sSaMsb = 0x1C;
  /// Read-only beat counter for the in-flight MM2S job (vendor cores
  /// expose the same through the transferred-bytes field): the progress
  /// probe the watchdog uses to tell "slow" from "wedged".
  static constexpr Addr kMm2sBeats = 0x24;
  static constexpr Addr kMm2sLength = 0x28;
  static constexpr Addr kS2mmCr = 0x30;
  static constexpr Addr kS2mmSr = 0x34;
  static constexpr Addr kS2mmDa = 0x48;
  static constexpr Addr kS2mmDaMsb = 0x4C;
  static constexpr Addr kS2mmLength = 0x58;

  static constexpr u32 kCrRunStop = 1u << 0;
  static constexpr u32 kCrReset = 1u << 2;
  static constexpr u32 kCrIocIrqEn = 1u << 12;
  static constexpr u32 kCrErrIrqEn = 1u << 14;
  static constexpr u32 kSrHalted = 1u << 0;
  static constexpr u32 kSrIdle = 1u << 1;
  static constexpr u32 kSrDmaIntErr = 1u << 4;
  static constexpr u32 kSrDmaSlvErr = 1u << 5;
  static constexpr u32 kSrDmaDecErr = 1u << 6;
  static constexpr u32 kSrIocIrq = 1u << 12;
  static constexpr u32 kSrErrIrq = 1u << 14;
  static constexpr u32 kSrErrMask = kSrDmaIntErr | kSrDmaSlvErr | kSrDmaDecErr;

  struct Config {
    u32 max_burst_beats = 16;  // §IV-A: "maximum AXI burst size ... 16"
    u32 max_outstanding = 2;   // pipelined reads toward the MIG
  };

  AxiDma(std::string name, const Config& cfg);
  explicit AxiDma(std::string name) : AxiDma(std::move(name), Config{}) {}

  /// Memory-side manager link (connect to the additional crossbar).
  axi::AxiPort& mem_port() { return mem_; }
  /// Datapath: MM2S output / S2MM input streams.
  axi::AxisFifo& mm2s_stream() { return mm2s_out_; }
  axi::AxisFifo& s2mm_stream() { return s2mm_in_; }

  void set_mm2s_irq(irq::IrqLine line) { mm2s_irq_ = line; }
  void set_s2mm_irq(irq::IrqLine line) { s2mm_irq_ = line; }

  /// Optional fault injection (sites: dma.mm2s.slverr, dma.mm2s.stall,
  /// dma.mm2s.early_ioc). Faults are planned when a job starts and
  /// cleared by soft reset (kCrReset).
  void set_fault_injector(sim::FaultInjector* fi) { fault_ = fi; }

  bool mm2s_idle() const { return !mm2s_job_.has_value(); }
  bool s2mm_idle() const { return !s2mm_job_.has_value(); }

  void on_register(obs::Observability& o) override;

 protected:
  u32 read_reg(Addr addr) override;
  void write_reg(Addr addr, u32 value) override;
  bool device_tick() override;
  bool device_ready() const override;
  bool device_busy() const override;

 private:
  struct Mm2sJob {
    u64 addr;
    u64 bytes_left_to_request;
    u64 beats_left_to_stream;
  };
  struct S2mmJob {
    u64 addr;
    u64 bytes_left;       // stream bytes still to accept
    u32 bursts_in_flight = 0;
    u32 beats_buffered = 0;  // beats accepted but burst not yet issued
  };

  bool tick_mm2s();
  bool tick_s2mm();
  /// The S2MM buffer holds a full burst, or the job's final one.
  bool flush_due() const;
  void update_irqs();

  Config cfg_;
  axi::AxiPort mem_;
  axi::AxisFifo mm2s_out_{8};
  axi::AxisFifo s2mm_in_{8};

  // MM2S state.
  u32 mm2s_cr_ = 0;
  u32 mm2s_sr_ = kSrHalted;
  u64 mm2s_sa_ = 0;
  std::optional<Mm2sJob> mm2s_job_;
  u64 mm2s_job_bytes_ = 0;        // descriptor size, for the done event
  Cycles mm2s_start_cycle_ = 0;
  u64 mm2s_bytes_total_ = 0;      // lifetime bytes moved (obs counter)
  u32 mm2s_bursts_outstanding_ = 0;
  u64 mm2s_done_count_ = 0;
  u64 mm2s_beats_streamed_ = 0;   // beats moved for the current job
  u64 mm2s_fault_beat_ = 0;       // injected SLVERR at this beat (1-based)
  u64 mm2s_early_ioc_beat_ = 0;   // injected premature completion (1-based)
  bool mm2s_stalled_ = false;     // injected wedge

  // S2MM state.
  u32 s2mm_cr_ = 0;
  u32 s2mm_sr_ = kSrHalted;
  u64 s2mm_da_ = 0;
  std::optional<S2mmJob> s2mm_job_;
  std::vector<axi::AxiW> s2mm_buf_;  // the burst being collected
  u64 s2mm_job_bytes_ = 0;
  Cycles s2mm_start_cycle_ = 0;
  u64 s2mm_bytes_total_ = 0;

  irq::IrqLine mm2s_irq_;
  irq::IrqLine s2mm_irq_;
  sim::FaultInjector* fault_ = nullptr;
  obs::Histogram* mm2s_latency_ = nullptr;  // job cycles, per descriptor
  obs::Histogram* s2mm_latency_ = nullptr;
};

}  // namespace rvcap::rvcap_ctrl
