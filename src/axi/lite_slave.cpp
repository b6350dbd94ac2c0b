#include "axi/lite_slave.hpp"

#include <cassert>

namespace rvcap::axi {

AxiLiteSlave::AxiLiteSlave(std::string name, u32 response_latency)
    : Component(std::move(name)), latency_(response_latency) {
  port_.watch_subordinate(this);
}

bool AxiLiteSlave::tick() {
  bool changed = device_tick();
  if (!port_.has_request()) return changed && device_ready();

  if (const LiteAr* ar = port_.ar.front()) {
    if (read_wait_ < latency_) {
      ++read_wait_;  // latency countdown
    } else if (port_.r.can_push()) {
      port_.r.push(LiteR{read_reg(ar->addr), Resp::kOkay});
      port_.ar.pop();
      read_wait_ = 0;
      changed = true;
    }
  }

  const LiteAw* aw = port_.aw.front();
  const LiteW* w = port_.w.front();
  if (aw != nullptr && w != nullptr) {
    if (write_wait_ < latency_) {
      ++write_wait_;
    } else if (port_.b.can_push()) {
      write_reg(aw->addr, w->data);
      port_.aw.pop();
      port_.w.pop();
      port_.b.push(LiteB{Resp::kOkay});
      write_wait_ = 0;
      changed = true;
    }
  }
  return port_ready() || (changed && device_ready());
}

void AxiLiteSlave::post_read(Addr addr, u8 halves) {
  assert(!port_.has_request());
  for (u8 h = 0; h < halves; ++h) port_.ar.push(LiteAr{addr + 4 * h});
  read_wait_ = latency_;
}

void AxiLiteSlave::post_write(Addr addr, u32 data) {
  assert(!port_.has_request());
  port_.aw.push(LiteAw{addr});
  port_.w.push(LiteW{data, 0xF});
  write_wait_ = latency_;
}

bool AxiLiteSlave::port_ready() const {
  if (port_.ar.can_pop() && (read_wait_ < latency_ || port_.r.can_push())) {
    return true;
  }
  return port_.aw.can_pop() && port_.w.can_pop() &&
         (write_wait_ < latency_ || port_.b.can_push());
}

bool AxiLiteSlave::busy() const {
  return port_.has_request() || device_busy();
}

}  // namespace rvcap::axi
