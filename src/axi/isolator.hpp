// AXI isolation interface ("PR decoupler") between a reconfigurable
// partition and the static region (Fig. 1).
//
// While a partial bitstream is being written, the RP's logic toggles
// arbitrarily; the isolator clamps its interfaces so glitches cannot
// propagate into the static SoC. Decoupled stream traffic is dropped
// (the fabric drives constants on the static side) and this is counted,
// so tests can assert that reconfiguration without decoupling leaks
// beats while the paper's documented flow does not.
#pragma once

#include "axi/types.hpp"
#include "sim/component.hpp"

namespace rvcap::axi {

class AxisIsolator : public sim::Component {
 public:
  explicit AxisIsolator(std::string name);

  void set_decoupled(bool d) {
    decoupled_ = d;
    wake();  // mode change can unblock parked beats
  }
  bool decoupled() const { return decoupled_; }

  /// static-region side -> RP side
  AxisFifo& in_to_rp() { return in_to_rp_; }
  AxisFifo& out_to_rp() { return out_to_rp_; }
  /// RP side -> static-region side
  AxisFifo& in_from_rp() { return in_from_rp_; }
  AxisFifo& out_from_rp() { return out_from_rp_; }

  u64 dropped_beats() const { return dropped_; }

  bool tick() override;
  bool busy() const override;

 private:
  /// Move (or, decoupled, drop) one beat in -> out.
  bool pass(AxisFifo& in, AxisFifo& out);

  bool decoupled_ = false;
  u64 dropped_ = 0;
  AxisFifo in_to_rp_{4};     // accepts beats from the static side
  AxisFifo out_to_rp_{4};    // delivers beats into the RP
  AxisFifo in_from_rp_{4};   // accepts beats from the RP
  AxisFifo out_from_rp_{4};  // delivers beats to the static side
};

}  // namespace rvcap::axi
