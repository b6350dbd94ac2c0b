#include "rvcap/axis2icap.hpp"

namespace rvcap::rvcap_ctrl {

Axis2Icap::Axis2Icap(std::string name, axi::AxisFifo& in,
                     sim::Fifo<u32>& icap_port)
    : Component(std::move(name)), in_(in), out_(icap_port) {
  in_.watch_as_consumer(this);
  out_.watch_as_producer(this);
}

bool Axis2Icap::tick() {
  if (!ready()) return false;  // nothing to emit, or ICAP back-pressure
  if (have_high_) {
    out_.push(high_word_);
    ++words_;
    have_high_ = false;
    return ready();
  }
  const axi::AxisBeat* b = in_.front();
  const u32 lo = static_cast<u32>(b->data & 0xFFFFFFFF);
  const u32 hi = static_cast<u32>(b->data >> 32);
  const bool hi_valid = (b->keep & 0xF0) != 0;
  out_.push(bswap(lo));
  ++words_;
  if (hi_valid) {
    high_word_ = bswap(hi);
    have_high_ = true;
  }
  in_.pop();
  return ready();
}

bool Axis2Icap::ready() const {
  return out_.can_push() && (have_high_ || in_.can_pop());
}

bool Axis2Icap::busy() const { return have_high_ || in_.can_pop(); }

}  // namespace rvcap::rvcap_ctrl
