#include "axi/isolator.hpp"

namespace rvcap::axi {

AxisIsolator::AxisIsolator(std::string name) : Component(std::move(name)) {
  in_to_rp_.watch_as_consumer(this);
  out_to_rp_.watch_as_producer(this);
  in_from_rp_.watch_as_consumer(this);
  out_from_rp_.watch_as_producer(this);
}

namespace {

/// Whether one direction can move (or drop) a beat.
bool can_pass(const AxisFifo& in, const AxisFifo& out, bool decoupled) {
  return in.can_pop() && (decoupled || out.can_push());
}

}  // namespace

bool AxisIsolator::pass(AxisFifo& in, AxisFifo& out) {
  if (!can_pass(in, out, decoupled_)) return false;
  if (decoupled_) {
    in.pop();
    ++dropped_;
  } else {
    out.push(*in.pop());
  }
  return true;
}

bool AxisIsolator::tick() {
  pass(in_to_rp_, out_to_rp_);
  pass(in_from_rp_, out_from_rp_);
  return can_pass(in_to_rp_, out_to_rp_, decoupled_) ||
         can_pass(in_from_rp_, out_from_rp_, decoupled_);
}

bool AxisIsolator::busy() const {
  return in_to_rp_.can_pop() || in_from_rp_.can_pop();
}

}  // namespace rvcap::axi
