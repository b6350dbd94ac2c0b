// AXI data-width converter, 64-bit upstream -> 32-bit downstream.
//
// Fig. 2 component 2 / §III-C: the Ariane SoC bus is 64-bit while the
// Xilinx DMA control port and the AXI_HWICAP are 32-bit, so a width
// converter sits in front of them. Data lanes are addressed (AXI
// convention): a 32-bit access at an addr with bit 2 set travels in bits
// [63:32] upstream and in the single 32-bit lane downstream.
//
// Only single-beat transactions traverse this component in the SoC (CPU
// MMIO to control registers); bursts are rejected with SLVERR, which is
// also what a real converter configured without burst splitting does.
#pragma once

#include <deque>

#include "axi/types.hpp"
#include "sim/component.hpp"

namespace rvcap::axi {

class WidthConverter64To32 : public sim::Component {
 public:
  explicit WidthConverter64To32(std::string name);

  /// Link facing the 64-bit bus (this component is the subordinate).
  AxiPort& upstream() { return up_; }
  /// Link facing the 32-bit device (this component is the manager).
  AxiPort& downstream() { return down_; }

  bool tick() override;
  bool busy() const override;

 private:
  struct PendingRead {
    Addr addr;
    u8 halves_left;   // 1 for a 32-bit access, 2 for a 64-bit access
    u8 halves_total;
    u64 assembled = 0;
    Resp worst = Resp::kOkay;
  };
  struct PendingWrite {
    u8 halves_left;
    Resp worst = Resp::kOkay;
  };

  static u8 write_halves(const AxiW& w);
  bool ready() const;

  AxiPort up_;
  AxiPort down_;
  std::deque<PendingRead> reads_;
  std::deque<PendingWrite> writes_;
  bool aw_taken_ = false;  // AW consumed, waiting for the W beat
  AxiAw cur_aw_{};
};

}  // namespace rvcap::axi
