// AXI4-Lite demux: routes one upstream lite link to N peripheral ports
// by address window (the "peripheral bus" behind a width/protocol
// converter chain).
#pragma once

#include <deque>
#include <vector>

#include "axi/types.hpp"
#include "sim/component.hpp"

namespace rvcap::axi {

class LiteBus : public sim::Component {
 public:
  explicit LiteBus(std::string name);

  AxiLitePort& upstream() { return up_; }
  void add_device(const AddrRange& range, AxiLitePort* port);

  bool tick() override;
  bool busy() const override;

  u64 decode_errors() const { return decode_errors_; }

 private:
  std::optional<usize> decode(Addr a) const;
  bool ready() const;

  AxiLitePort up_;
  std::vector<AddrRange> ranges_;
  std::vector<AxiLitePort*> devs_;
  std::deque<usize> read_route_;   // device index per outstanding read
  std::deque<usize> write_route_;  // device index per outstanding write
  static constexpr usize kErrDev = ~usize{0};
  u64 decode_errors_ = 0;
};

}  // namespace rvcap::axi
