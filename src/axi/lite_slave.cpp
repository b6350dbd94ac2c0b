#include "axi/lite_slave.hpp"

#include <cassert>

namespace rvcap::axi {

AxiLiteSlave::AxiLiteSlave(std::string name) : Component(std::move(name)) {
  port_.watch_subordinate(this);
}

bool AxiLiteSlave::tick() {
  const bool changed = device_tick();
  if (!port_.has_request()) return changed && device_ready();

  bool served = false;
  bool ready = false;
  const LiteAr* ar = port_.ar.front();
  if (ar != nullptr && port_.r.can_push()) {
    u32 data = 0;
    ready = serve_read(ar->addr, data);
    port_.r.push(LiteR{data, Resp::kOkay});
    port_.ar.pop();
    served = true;
  }

  const LiteAw* aw = port_.aw.front();
  const LiteW* w = port_.w.front();
  if (aw != nullptr && w != nullptr && port_.b.can_push()) {
    ready = serve_write(aw->addr, w->data);
    port_.aw.pop();
    port_.w.pop();
    port_.b.push(LiteB{Resp::kOkay});
    served = true;
  }
  if (!served) ready = changed && device_ready();
  return port_ready() || ready;
}

bool AxiLiteSlave::serve_read(Addr addr, u32& data) {
  data = read_reg(addr);
  return device_ready();
}

bool AxiLiteSlave::serve_write(Addr addr, u32 data) {
  write_reg(addr, data);
  return device_ready();
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
