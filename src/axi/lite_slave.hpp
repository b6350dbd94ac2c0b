// Helper base for memory-mapped AXI4-Lite register blocks.
//
// CLINT, PLIC, SPI controller, the RV-CAP DMA register file, the RP
// control interface, and the AXI_HWICAP all derive from this: they only
// implement read_reg()/write_reg() on word offsets, and the base class
// handles the channel handshakes with a configurable response latency
// (register blocks in the real SoC answer in 1-2 cycles).
#pragma once

#include <deque>

#include "axi/types.hpp"
#include "sim/component.hpp"

namespace rvcap::axi {

class AxiLiteSlave : public sim::Component {
 public:
  AxiLiteSlave(std::string name, u32 response_latency = 1);

  AxiLitePort& port() { return port_; }
  /// Cycles from a request reaching the port to the tick serving it.
  u32 latency() const { return latency_; }

  /// Timed register calls (cpu::CpuContext): queue `halves` 32-bit
  /// reads of consecutive registers from `addr` into the idle port, the
  /// first as if it had reached the port latency() cycles ago, so the
  /// tick of the current cycle serves it. post_write() does the same
  /// for one 32-bit write of `data`.
  void post_read(Addr addr, u8 halves);
  void post_write(Addr addr, u32 data);

  bool tick() override;
  bool busy() const override;

 protected:
  /// Offset is relative to the device base (the crossbar routes by
  /// window, devices see full addresses; subclasses mask as needed).
  virtual u32 read_reg(Addr addr) = 0;
  virtual void write_reg(Addr addr, u32 value) = 0;

  /// Subclasses override to advance internal state each cycle and
  /// return whether it changed. The default does nothing.
  virtual bool device_tick() { return false; }
  /// Whether the device can progress next cycle without a new event;
  /// asked after a tick that changed device state or served a
  /// register access. The default is a register file with no device
  /// work: a device that overrides device_tick() overrides this too.
  virtual bool device_ready() const { return false; }
  /// Device-internal work only: the port's request channels are
  /// covered by busy().
  virtual bool device_busy() const { return false; }

 private:
  bool port_ready() const;

  AxiLitePort port_;
  u32 latency_;
  u32 read_wait_ = 0;   // cycles remaining before the head AR is served
  u32 write_wait_ = 0;
};

}  // namespace rvcap::axi
