// AXI_HWICAP model — the vendor DPR controller baseline (§III-C).
//
// Xilinx's AXI_HWICAP (PG134) exposes the ICAP through an AXI4-Lite
// register file with a software-filled write FIFO: the CPU writes
// 32-bit configuration words into the keyhole WF register, triggers CR
// write, and polls the done bit. Per the paper, the reproduction
// resizes the internal write FIFO from the default 64 to 1024 words
// "to improve the time transfer".
//
// Throughput of this path is limited by the CPU's uncached register
// stores, not the ICAP: that is the mechanism behind the 8.23 MB/s
// (16-unrolled) vs 398.1 MB/s contrast of Table I.
#pragma once

#include "axi/lite_slave.hpp"
#include "icap/icap.hpp"

namespace rvcap::hwicap {

class HwIcap : public axi::AxiLiteSlave {
 public:
  // PG134 register offsets.
  static constexpr Addr kGier = 0x01C;
  static constexpr Addr kIsr = 0x020;
  static constexpr Addr kIer = 0x028;
  static constexpr Addr kWf = 0x100;   // keyhole write FIFO
  static constexpr Addr kRf = 0x104;
  static constexpr Addr kSz = 0x108;
  static constexpr Addr kCr = 0x10C;
  static constexpr Addr kSr = 0x110;
  static constexpr Addr kWfv = 0x114;  // write FIFO vacancy
  static constexpr Addr kRfo = 0x118;

  static constexpr u32 kCrWrite = 1u << 0;
  static constexpr u32 kCrRead = 1u << 1;
  static constexpr u32 kCrFifoClear = 1u << 2;
  static constexpr u32 kCrSwReset = 1u << 3;
  static constexpr u32 kSrDone = 1u << 0;
  static constexpr u32 kIsrDone = 1u << 0;

  HwIcap(std::string name, icap::Icap& icap, u32 write_fifo_depth = 1024,
         u32 read_fifo_depth = 256);

  u32 write_fifo_depth() const { return fifo_.capacity(); }
  u64 words_written() const { return words_written_; }
  bool transfer_active() const { return writing_ || read_left_ > 0; }

  void on_register(obs::Observability& o) override;

 protected:
  u32 read_reg(Addr addr) override;
  void write_reg(Addr addr, u32 value) override;
  bool device_tick() override;
  bool device_ready() const override;
  bool device_busy() const override;

 private:
  icap::Icap& icap_;
  sim::Fifo<u32> fifo_;
  sim::Fifo<u32> rfifo_;
  bool writing_ = false;     // CR.Write asserted, FIFO draining to ICAP
  u32 sz_ = 0;               // words to read on CR.Read
  u32 read_left_ = 0;        // readback words still to capture
  bool gier_ = false;
  u32 ier_ = 0;
  u32 isr_ = 0;
  u64 words_written_ = 0;
  u64 dropped_words_ = 0;
};

}  // namespace rvcap::hwicap
