// AXIS2ICAP converter (Fig. 2 component 5).
//
// "Responsible for converting a 64-bit data word fetched from the DDR
// memory into two 32-bit data words, which are written in order to the
// ICAP data port. Besides, the valid stream signal is inverted and
// connected to the ICAP [CSIB] port. The R/W select input port is
// permanently set to zero [write]." (§III-B)
//
// One 32-bit word leaves per cycle, so a saturated 64-bit stream is
// consumed at one beat per two cycles — exactly the ICAP's 400 MB/s.
// Byte lanes are reordered from the little-endian bus to the
// big-endian configuration word order (the block's bit-swap function).
#pragma once

#include "axi/types.hpp"
#include "sim/component.hpp"

namespace rvcap::rvcap_ctrl {

class Axis2Icap : public sim::Component {
 public:
  Axis2Icap(std::string name, axi::AxisFifo& in, sim::Fifo<u32>& icap_port);

  bool tick() override;
  bool busy() const override;

  u64 words_emitted() const { return words_; }

  /// Abort support: drop the buffered half-beat so the next transfer
  /// starts on a fresh 64-bit boundary.
  void reset_stream() {
    have_high_ = false;
    high_word_ = 0;
    wake();
  }

 private:
  bool ready() const;

  static u32 bswap(u32 v) {
    return (v >> 24) | ((v >> 8) & 0xFF00) | ((v << 8) & 0xFF0000) |
           (v << 24);
  }

  axi::AxisFifo& in_;
  sim::Fifo<u32>& out_;
  bool have_high_ = false;
  u32 high_word_ = 0;
  u64 words_ = 0;
};

}  // namespace rvcap::rvcap_ctrl
