// AXI4 -> AXI4-Lite protocol converter (Fig. 2 component 2, §III-C).
//
// Sits after the width converter, so the upstream side already carries
// 32-bit single-beat transactions; the bridge strips burst semantics and
// drives an AXI4-Lite subordinate port. Each direction adds one cycle of
// latency, matching a registered Xilinx protocol-converter instance.
#pragma once

#include "axi/types.hpp"
#include "sim/component.hpp"

namespace rvcap::axi {

class AxiToLiteBridge : public sim::Component {
 public:
  explicit AxiToLiteBridge(std::string name);

  AxiPort& upstream() { return up_; }
  AxiLitePort& downstream() { return down_; }

  bool tick() override;
  bool busy() const override;

 private:
  bool ready() const;

  AxiPort up_;
  AxiLitePort down_;
  bool aw_taken_ = false;
  LiteAw cur_aw_{};
};

}  // namespace rvcap::axi
