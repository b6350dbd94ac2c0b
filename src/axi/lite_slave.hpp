// Helper base for memory-mapped AXI4-Lite register blocks.
//
// CLINT, PLIC, SPI controller, the RV-CAP DMA register file, the RP
// control interface, and the AXI_HWICAP all derive from this: they only
// implement read_reg()/write_reg() on word offsets, and the base class
// serves each request at the head of its port in the tick of the cycle
// it is there. The CPU's timed register calls (cpu::CpuContext) post
// the requests, or in a quiet cycle have the device serve them in
// place, and wait out the converter chain's hops themselves.
#pragma once

#include "axi/types.hpp"
#include "sim/component.hpp"

namespace rvcap::axi {

class AxiLiteSlave : public sim::Component {
 public:
  explicit AxiLiteSlave(std::string name);

  AxiLitePort& port() { return port_; }

  /// Timed register calls: queue a 32-bit read of `addr`, or a 32-bit
  /// write of `data`, into the idle port, for the tick of the current
  /// cycle to serve.
  void post_read(Addr addr);
  void post_write(Addr addr, u32 data);

  /// Serve a 32-bit read of `addr` into `data`, or a write of `data`,
  /// now, and return whether the device can progress next cycle. tick()
  /// serves the request at the head of the port with these; a timed
  /// register call in a quiet cycle calls them in place of that tick
  /// (Simulator::serve_in_place).
  bool serve_read(Addr addr, u32& data);
  bool serve_write(Addr addr, u32 data);

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
};

}  // namespace rvcap::axi
