// Streaming bitstream decompressor (RT-ICAP-style extension).
//
// Sits between the AXI-Stream switch's ICAP route and the AXIS2ICAP
// converter. In passthrough mode it is a plain wire; with decompression
// enabled (RP-control register bit) it decodes the RVZ0 zero-run /
// literal-run format so the word stream entering the ICAP is identical
// to the uncompressed bitstream. Expansion emits at most one 64-bit
// beat per cycle — the ICAP stays the throughput bound, so compression
// saves storage and DDR fetch bandwidth rather than reconfiguration
// time (quantified in bench_compression).
#pragma once

#include "axi/types.hpp"
#include "bitstream/compress.hpp"
#include "sim/component.hpp"

namespace rvcap::rvcap_ctrl {

class Decompressor : public sim::Component {
 public:
  Decompressor(std::string name, axi::AxisFifo& in, axi::AxisFifo& out);

  void set_enabled(bool e);
  bool enabled() const { return enabled_; }

  bool tick() override;
  bool busy() const override;

  bool format_error() const { return format_error_; }

  /// Abort support: drop buffered half-beats and return the decoder to
  /// its initial state (next stream starts at the magic word again).
  void reset_stream() {
    have_pending_in_ = false;
    pending_in_ = 0;
    saw_last_in_ = false;
    have_pending_out_ = false;
    pending_out_ = 0;
    state_ = State::kMagic;
    run_left_ = 0;
    format_error_ = false;
    wake();
  }

 private:
  static u32 bswap(u32 v) {
    return (v >> 24) | ((v >> 8) & 0xFF00) | ((v << 8) & 0xFF0000) |
           (v << 24);
  }

  /// Pull the next logical (config-byte-order) word from the input
  /// stream; false when no input is available this cycle.
  bool next_input_word(u32* w);
  /// Queue one logical output word; emits a beat every second word.
  void emit_word(u32 w);
  /// One cycle of the enabled decoder.
  void decode();
  bool flush_due() const;
  bool ready() const;

  axi::AxisFifo& in_;
  axi::AxisFifo& out_;
  bool enabled_ = false;

  // Input unpacking: one buffered half-beat.
  bool have_pending_in_ = false;
  u32 pending_in_ = 0;
  bool saw_last_in_ = false;  // the DMA marked the final input beat

  // Output packing.
  bool have_pending_out_ = false;
  u32 pending_out_ = 0;

  // Decoder state.
  enum class State { kMagic, kHeader, kLiteral, kZeros };
  State state_ = State::kMagic;
  u32 run_left_ = 0;
  bool format_error_ = false;
};

}  // namespace rvcap::rvcap_ctrl
