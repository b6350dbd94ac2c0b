#include "axi/stream_switch.hpp"

namespace rvcap::axi {

AxisSwitch::AxisSwitch(std::string name, u32 num_rm_ports)
    : Component(std::move(name)) {
  from_dma_.watch_as_consumer(this);
  to_icap_.watch_as_producer(this);
  if (num_rm_ports == 0) num_rm_ports = 1;
  for (u32 p = 0; p < num_rm_ports; ++p) {
    to_rm_.emplace_back(4).watch_as_producer(this);
    from_rm_.emplace_back(4).watch_as_consumer(this);
  }
  from_icap_.watch_as_consumer(this);
  to_dma_.watch_as_producer(this);
}

bool AxisSwitch::tick() {
  // One beat per cycle on each path. The return path carries the
  // selected RM's output in acceleration mode; in reconfiguration mode
  // it carries ICAP readback data and the RM outputs are parked (a slot
  // is being swapped anyway).
  AxisFifo& sink = select_icap_ ? to_icap_ : to_rm_[rm_select_];
  AxisFifo& source = select_icap_ ? from_icap_ : from_rm_[rm_select_];
  if (from_dma_.can_pop() && sink.can_push()) sink.push(*from_dma_.pop());
  if (source.can_pop() && to_dma_.can_push()) to_dma_.push(*source.pop());
  return (from_dma_.can_pop() && sink.can_push()) ||
         (source.can_pop() && to_dma_.can_push());
}

bool AxisSwitch::busy() const {
  return from_dma_.can_pop() ||
         (!select_icap_ && from_rm_[rm_select_].can_pop()) ||
         (select_icap_ && from_icap_.can_pop());
}

}  // namespace rvcap::axi
