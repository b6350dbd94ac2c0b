#include "axi/width_converter.hpp"

namespace rvcap::axi {

namespace {
Resp worse(Resp a, Resp b) {
  return static_cast<u8>(a) >= static_cast<u8>(b) ? a : b;
}
}  // namespace

WidthConverter64To32::WidthConverter64To32(std::string name)
    : Component(std::move(name)) {
  up_.watch_subordinate(this);
  // A 64-bit access pushes both halves at once; a blocked push
  // re-declares the need of its own access.
  down_.watch_manager(this, 2);
}

bool WidthConverter64To32::tick() {
  // --- read request path: split one upstream AR into 1..2 downstream ARs.
  if (const AxiAr* ar = up_.ar.front()) {
    if (ar->len != 0) {
      if (up_.r.can_push()) {
        up_.r.push(AxiR{0, Resp::kSlvErr, true});
        up_.ar.pop();
      }
    } else {
      const u8 halves = (ar->size >= 3) ? 2 : 1;
      if (down_.ar.vacancy() >= halves) {
        const Addr base = ar->addr & ~Addr{7};
        if (halves == 2) {
          down_.ar.push(AxiAr{base, 0, 2});
          down_.ar.push(AxiAr{base + 4, 0, 2});
          reads_.push_back(PendingRead{base, 2, 2});
        } else {
          const Addr a = ar->addr & ~Addr{3};
          down_.ar.push(AxiAr{a, 0, 2});
          reads_.push_back(PendingRead{a, 1, 1});
        }
        up_.ar.pop();
      } else {
        down_.ar.watch_as_producer(this, halves);
      }
    }
  }

  // --- read response path: assemble downstream R halves into one beat.
  // The last half is popped only once its completion can be pushed.
  if (const AxiR* r = down_.r.front()) {
    PendingRead& p = reads_.front();
    const bool last = p.halves_left == 1;
    if (!last || up_.r.can_push()) {
      const u8 idx = p.halves_total - p.halves_left;  // 0 = first half
      const bool high_lane =
          (p.halves_total == 2) ? (idx == 1) : ((p.addr & 4) != 0);
      p.assembled |= (r->data & 0xFFFFFFFFULL) << (high_lane ? 32 : 0);
      p.worst = worse(p.worst, r->resp);
      down_.r.pop();
      if (last) {
        up_.r.push(AxiR{p.assembled, p.worst, true});
        reads_.pop_front();
      } else {
        --p.halves_left;
      }
    }
  }

  // --- write request path.
  if (!aw_taken_) {
    if (const AxiAw* aw = up_.aw.front()) {
      if (aw->len != 0) {
        if (up_.b.can_push()) {
          up_.b.push(AxiB{Resp::kSlvErr});
          up_.aw.pop();
        }
      } else {
        cur_aw_ = *aw;
        up_.aw.pop();
        aw_taken_ = true;
      }
    }
  }
  if (aw_taken_) {
    if (const AxiW* w = up_.w.front()) {
      const u8 halves = write_halves(*w);
      if (halves == 0) {
        // Strobe-less write: complete immediately with OKAY.
        if (up_.b.can_push()) {
          up_.b.push(AxiB{Resp::kOkay});
          up_.w.pop();
          aw_taken_ = false;
        }
      } else if (down_.aw.vacancy() >= halves && down_.w.vacancy() >= halves) {
        const Addr base = cur_aw_.addr & ~Addr{7};
        if ((w->strb & 0x0F) != 0) {
          down_.aw.push(AxiAw{base, 0, 2});
          down_.w.push(AxiW{w->data & 0xFFFFFFFFULL,
                            static_cast<u8>(w->strb & 0x0F), true});
        }
        if ((w->strb & 0xF0) != 0) {
          down_.aw.push(AxiAw{base + 4, 0, 2});
          down_.w.push(
              AxiW{(w->data >> 32) & 0xFFFFFFFFULL,
                   static_cast<u8>((w->strb >> 4) & 0x0F), true});
        }
        writes_.push_back(PendingWrite{halves});
        up_.w.pop();
        aw_taken_ = false;
      } else {
        down_.aw.watch_as_producer(this, halves);
        down_.w.watch_as_producer(this, halves);
      }
    }
  }

  // --- write response path: merge downstream Bs. The last B is popped
  // only once the completion can be pushed.
  if (const AxiB* b = down_.b.front()) {
    PendingWrite& p = writes_.front();
    if (p.halves_left > 1 || up_.b.can_push()) {
      p.worst = worse(p.worst, b->resp);
      down_.b.pop();
      if (--p.halves_left == 0) {
        up_.b.push(AxiB{p.worst});
        writes_.pop_front();
      }
    }
  }
  return ready();
}

u8 WidthConverter64To32::write_halves(const AxiW& w) {
  return static_cast<u8>(((w.strb & 0x0F) != 0) + ((w.strb & 0xF0) != 0));
}

bool WidthConverter64To32::ready() const {
  if (const AxiAr* ar = up_.ar.front()) {
    const u8 halves = (ar->size >= 3) ? 2 : 1;
    if (ar->len != 0 ? up_.r.can_push() : down_.ar.vacancy() >= halves) {
      return true;
    }
  }
  if (down_.r.can_pop() &&
      (reads_.front().halves_left > 1 || up_.r.can_push())) {
    return true;
  }
  if (!aw_taken_) {
    if (const AxiAw* aw = up_.aw.front()) {
      if (aw->len == 0 || up_.b.can_push()) return true;
    }
  } else if (const AxiW* w = up_.w.front()) {
    const u8 halves = write_halves(*w);
    if (halves == 0 ? up_.b.can_push()
                    : down_.aw.vacancy() >= halves &&
                          down_.w.vacancy() >= halves) {
      return true;
    }
  }
  return down_.b.can_pop() &&
         (writes_.front().halves_left > 1 || up_.b.can_push());
}

bool WidthConverter64To32::busy() const {
  return !reads_.empty() || !writes_.empty() || aw_taken_ ||
         up_.has_request() || down_.r.can_pop() || down_.b.can_pop();
}

}  // namespace rvcap::axi
