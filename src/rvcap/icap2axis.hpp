// ICAP2AXIS converter — the readback mirror of AXIS2ICAP.
//
// Packs pairs of 32-bit FDRO readback words into 64-bit AXI-Stream
// beats toward the DMA's S2MM channel (byte order reversed back to the
// little-endian bus convention, undoing AXIS2ICAP's swap), enabling
// RV-CAP to *read* the configuration memory at DMA rate.
#pragma once

#include "axi/stream_switch.hpp"
#include "axi/types.hpp"
#include "sim/component.hpp"

namespace rvcap::rvcap_ctrl {

class Icap2Axis : public sim::Component {
 public:
  Icap2Axis(std::string name, sim::Fifo<u32>& icap_read_port,
            axi::AxisFifo& out);

  /// Only capture from the (shared) ICAP read port while the stream
  /// switch routes the ICAP — otherwise another controller (e.g. the
  /// AXI_HWICAP's read FIFO) owns the readback data. Registers for
  /// select-change wakeups so an un-gating reopens the pipeline.
  void set_gate(axi::AxisSwitch* sw) {
    gate_ = sw;
    if (sw != nullptr) sw->watch_select(this);
  }

  bool tick() override;
  bool busy() const override;

 private:
  bool ready() const;

  static u32 bswap(u32 v) {
    return (v >> 24) | ((v >> 8) & 0xFF00) | ((v << 8) & 0xFF0000) |
           (v << 24);
  }

  sim::Fifo<u32>& in_;
  axi::AxisFifo& out_;
  const axi::AxisSwitch* gate_ = nullptr;
  bool have_low_ = false;
  u32 low_word_ = 0;
};

}  // namespace rvcap::rvcap_ctrl
