#include "axi/lite_bridge.hpp"

namespace rvcap::axi {

AxiToLiteBridge::AxiToLiteBridge(std::string name)
    : Component(std::move(name)) {
  up_.watch_subordinate(this);
  down_.watch_manager(this);
}

bool AxiToLiteBridge::tick() {
  // Read request.
  if (const AxiAr* ar = up_.ar.front()) {
    if (ar->len != 0) {
      if (up_.r.can_push()) {
        up_.r.push(AxiR{0, Resp::kSlvErr, true});
        up_.ar.pop();
      }
    } else if (down_.ar.can_push()) {
      down_.ar.push(LiteAr{ar->addr});
      up_.ar.pop();
    }
  }
  // Read response.
  if (const LiteR* r = down_.r.front()) {
    if (up_.r.can_push()) {
      up_.r.push(AxiR{u64{r->data}, r->resp, true});
      down_.r.pop();
    }
  }
  // Write request: pair AW with its single W beat.
  if (!aw_taken_) {
    if (const AxiAw* aw = up_.aw.front()) {
      if (aw->len != 0) {
        if (up_.b.can_push()) {
          up_.b.push(AxiB{Resp::kSlvErr});
          up_.aw.pop();
        }
      } else {
        cur_aw_ = LiteAw{aw->addr};
        up_.aw.pop();
        aw_taken_ = true;
      }
    }
  }
  if (aw_taken_) {
    if (const AxiW* w = up_.w.front()) {
      if (down_.aw.can_push() && down_.w.can_push()) {
        down_.aw.push(cur_aw_);
        down_.w.push(LiteW{static_cast<u32>(w->data & 0xFFFFFFFFULL),
                           static_cast<u8>(w->strb & 0x0F)});
        up_.w.pop();
        aw_taken_ = false;
      }
    }
  }
  // Write response.
  if (const LiteB* b = down_.b.front()) {
    if (up_.b.can_push()) {
      up_.b.push(AxiB{b->resp});
      down_.b.pop();
    }
  }
  return ready();
}

bool AxiToLiteBridge::ready() const {
  if (const AxiAr* ar = up_.ar.front()) {
    if (ar->len != 0 ? up_.r.can_push() : down_.ar.can_push()) return true;
  }
  if (down_.r.can_pop() && up_.r.can_push()) return true;
  if (!aw_taken_) {
    if (const AxiAw* aw = up_.aw.front()) {
      if (aw->len == 0 || up_.b.can_push()) return true;
    }
  } else if (up_.w.can_pop() && down_.aw.can_push() && down_.w.can_push()) {
    return true;
  }
  return down_.b.can_pop() && up_.b.can_push();
}

bool AxiToLiteBridge::busy() const {
  return aw_taken_ || up_.has_request() || down_.r.can_pop() ||
         down_.b.can_pop();
}

}  // namespace rvcap::axi
