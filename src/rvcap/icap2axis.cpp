#include "rvcap/icap2axis.hpp"

namespace rvcap::rvcap_ctrl {

Icap2Axis::Icap2Axis(std::string name, sim::Fifo<u32>& icap_read_port,
                     axi::AxisFifo& out)
    : Component(std::move(name)), in_(icap_read_port), out_(out) {
  in_.watch_as_consumer(this);
  out_.watch_as_producer(this);
}

bool Icap2Axis::tick() {
  // One 32-bit word per cycle from the port; a beat leaves every two.
  if (!ready()) return false;
  if (!have_low_) {
    low_word_ = bswap(*in_.pop());
    have_low_ = true;
    return ready();
  }
  const u32 high = bswap(*in_.pop());
  out_.push(axi::AxisBeat{(u64{high} << 32) | low_word_, 0xFF, false});
  have_low_ = false;
  return ready();
}

bool Icap2Axis::ready() const {
  if (gate_ != nullptr && !gate_->select_icap()) return false;
  // The high word waits in the port until the output has space.
  return in_.can_pop() && (!have_low_ || out_.can_push());
}

bool Icap2Axis::busy() const {
  if (gate_ != nullptr && !gate_->select_icap()) return have_low_;
  return have_low_ || in_.can_pop();
}

}  // namespace rvcap::rvcap_ctrl
