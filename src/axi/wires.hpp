// Channel movers ("wires") joining ports owned by different components.
//
// Every component owns its own FIFO ports; where two owned ports face
// each other, a wire shuttles beats across at one per channel per
// cycle, like a registered link. Wires are the explicit interconnect
// glue of the SoC assembly. A wire consumes the channels that flow
// through it and produces into their far ends, so it wakes the cycle a
// beat lands on its input side or a full output reopens.
#pragma once

#include "axi/types.hpp"
#include "obs/observability.hpp"
#include "sim/component.hpp"

namespace rvcap::axi {

namespace detail {

template <typename T>
bool can_move(const sim::Fifo<T>& from, const sim::Fifo<T>& to) {
  return from.can_pop() && to.can_push();
}

/// Move one beat from -> to when both ends allow it.
template <typename T>
bool move_one(sim::Fifo<T>& from, sim::Fifo<T>& to) {
  if (!can_move(from, to)) return false;
  to.push(*from.pop());
  return true;
}

}  // namespace detail

/// AXI-Stream link: from -> to.
class AxisWire : public sim::Component {
 public:
  AxisWire(std::string name, AxisFifo& from, AxisFifo& to)
      : Component(std::move(name)), from_(from), to_(to) {
    from_.watch_as_consumer(this);
    to_.watch_as_producer(this);
  }

  bool tick() override {
    if (detail::can_move(from_, to_)) {
      const AxisBeat b = *from_.pop();
      to_.push(b);
      ++beats_;
      RVCAP_TRACE(trace_sink(), obs::EventKind::kAxisBeat, trace_src(),
                  sim_now(), b.data & 0xFFFFFFFF, b.last ? 1 : 0);
    }
    return detail::can_move(from_, to_);
  }
  bool busy() const override { return from_.can_pop(); }

  void on_register(obs::Observability& o) override {
    o.counters().register_fn(std::string(name()) + ".beats",
                             [this] { return beats_; });
  }

 private:
  AxisFifo& from_;
  AxisFifo& to_;
  u64 beats_ = 0;
};

/// Full AXI link between a manager-facing port a and a
/// subordinate-facing port b: requests flow a->b, responses b->a.
class AxiWire : public sim::Component {
 public:
  AxiWire(std::string name, AxiPort& a, AxiPort& b)
      : Component(std::move(name)), a_(a), b_(b) {
    a_.watch_subordinate(this);
    b_.watch_manager(this);
  }

  bool tick() override {
    detail::move_one(a_.ar, b_.ar);
    detail::move_one(a_.aw, b_.aw);
    detail::move_one(a_.w, b_.w);
    detail::move_one(b_.r, a_.r);
    detail::move_one(b_.b, a_.b);
    return detail::can_move(a_.ar, b_.ar) ||
           detail::can_move(a_.aw, b_.aw) || detail::can_move(a_.w, b_.w) ||
           detail::can_move(b_.r, a_.r) || detail::can_move(b_.b, a_.b);
  }
  bool busy() const override {
    return a_.has_request() || b_.r.can_pop() || b_.b.can_pop();
  }

 private:
  AxiPort& a_;
  AxiPort& b_;
};

}  // namespace rvcap::axi
