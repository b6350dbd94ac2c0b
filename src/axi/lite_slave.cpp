#include "axi/lite_slave.hpp"

#include <cassert>

namespace rvcap::axi {

AxiLiteSlave::AxiLiteSlave(std::string name) : Component(std::move(name)) {
  port_.watch_subordinate(this);
}

bool AxiLiteSlave::tick() {
  bool changed = device_tick();
  if (!port_.has_request()) return changed && device_ready();

  const LiteAr* ar = port_.ar.front();
  if (ar != nullptr && port_.r.can_push()) {
    port_.r.push(LiteR{read_reg(ar->addr), Resp::kOkay});
    port_.ar.pop();
    changed = true;
  }

  const LiteAw* aw = port_.aw.front();
  const LiteW* w = port_.w.front();
  if (aw != nullptr && w != nullptr && port_.b.can_push()) {
    write_reg(aw->addr, w->data);
    port_.aw.pop();
    port_.w.pop();
    port_.b.push(LiteB{Resp::kOkay});
    changed = true;
  }
  return port_ready() || (changed && device_ready());
}

void AxiLiteSlave::post_read(Addr addr) {
  assert(!port_.has_request());
  port_.ar.push(LiteAr{addr});
}

void AxiLiteSlave::post_write(Addr addr, u32 data) {
  assert(!port_.has_request());
  port_.aw.push(LiteAw{addr});
  port_.w.push(LiteW{data, 0xF});
}

bool AxiLiteSlave::port_ready() const {
  return (port_.ar.can_pop() && port_.r.can_push()) ||
         (port_.aw.can_pop() && port_.w.can_pop() && port_.b.can_push());
}

bool AxiLiteSlave::busy() const {
  return port_.has_request() || device_busy();
}

}  // namespace rvcap::axi
