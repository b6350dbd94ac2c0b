#include "axi/lite_path.hpp"

#include <stdexcept>

namespace rvcap::axi {

namespace {

Resp worse(Resp a, Resp b) {
  return static_cast<u8>(a) >= static_cast<u8>(b) ? a : b;
}

u8 read_halves(const AxiAr& ar) { return ar.size >= 3 ? 2 : 1; }

u8 write_halves(const AxiW& w) {
  return static_cast<u8>(((w.strb & 0x0F) != 0) + ((w.strb & 0xF0) != 0));
}

/// Address of a write's first half: the low word unless only the high
/// lane carries strobes.
Addr write_addr(Addr aw_addr, const AxiW& w) {
  const Addr base = aw_addr & ~Addr{7};
  return (w.strb & 0x0F) != 0 ? base : base + 4;
}

/// Address of a read's first half.
Addr read_addr(const AxiAr& ar) {
  return ar.addr & (read_halves(ar) == 2 ? ~Addr{7} : ~Addr{3});
}

}  // namespace

LitePath::LitePath(std::string name, AxiLitePort& device)
    : Component(std::move(name)), hops_(kDirectHops) {
  up_.watch_subordinate(this);
  add_device(AddrRange{0, ~u64{0}}, &device);
}

LitePath::LitePath(std::string name)
    : Component(std::move(name)), hops_(kDecodedHops) {
  up_.watch_subordinate(this);
}

void LitePath::add_device(const AddrRange& range, AxiLitePort* port) {
  for (const auto& r : ranges_) {
    if (r.overlaps(range)) {
      throw std::invalid_argument("LitePath: overlapping window");
    }
  }
  ranges_.push_back(range);
  devs_.push_back(port);
}

u32 LitePath::decode(Addr a) const {
  for (usize i = 0; i < ranges_.size(); ++i) {
    if (ranges_[i].contains(a)) return static_cast<u32>(i);
  }
  return kNoDevice;
}

bool LitePath::tick() {
  // Requests first, so a response the path answers itself leaves in
  // the cycle its request arrives, as the converters answered it.
  bool ready = accept_read();
  ready |= accept_write();
  ready |= collect_read();
  ready |= collect_write();
  ready |= deliver_read();
  ready |= deliver_write();
  return ready;
}

void LitePath::answer(Queue& q, Resp resp, u8 decode_halves) {
  Pending p;
  p.resp = resp;
  // The path's own answers leave now. The decoder sees the halves one
  // cycle apart and its answer crosses the other hops - 1 stages.
  p.due = sim_now();
  if (decode_halves > 0) {
    decode_errors_ += decode_halves;
    p.due += decode_halves - 1 + hops_ - 1;
  }
  q.push(p);
}

bool LitePath::accept_read() {
  const AxiAr* ar = up_.ar.front();
  if (ar == nullptr) return false;
  if (ar->len != 0) {
    answer(reads_, Resp::kSlvErr, 0);
  } else {
    const u8 halves = read_halves(*ar);
    const Addr addr = read_addr(*ar);
    const u32 dev = decode(addr);
    if (dev == kNoDevice) {
      answer(reads_, Resp::kDecErr, halves);
    } else {
      AxiLitePort& d = *devs_[dev];
      if (d.ar.vacancy() < halves) return true;
      for (u8 h = 0; h < halves; ++h) d.ar.push(LiteAr{addr + 4 * h});
      reads_.push(Pending{ar->addr, dev, halves, halves});
    }
  }
  up_.ar.pop();
  return up_.ar.can_pop();
}

bool LitePath::accept_write() {
  if (drop_w_ > 0) {
    if (!up_.w.can_pop()) return false;
    up_.w.pop();
    --drop_w_;
    return up_.w.can_pop() || up_.aw.can_pop();
  }
  if (!aw_taken_) {
    const AxiAw* aw = up_.aw.front();
    if (aw == nullptr) return false;
    if (aw->len != 0) {
      answer(writes_, Resp::kSlvErr, 0);
      drop_w_ = u32{aw->len} + 1;
      up_.aw.pop();
      return up_.w.can_pop();
    }
    cur_aw_ = *aw;
    up_.aw.pop();
    aw_taken_ = true;
  }
  const AxiW* w = up_.w.front();
  if (w == nullptr) return false;
  const u8 halves = write_halves(*w);
  if (halves == 0) {
    answer(writes_, Resp::kOkay, 0);  // strobe-less: no-op
  } else {
    const Addr addr = write_addr(cur_aw_.addr, *w);
    const u32 dev = decode(addr);
    if (dev == kNoDevice) {
      answer(writes_, Resp::kDecErr, halves);
    } else {
      AxiLitePort& d = *devs_[dev];
      if (d.aw.vacancy() < halves || d.w.vacancy() < halves) return true;
      const Addr base = cur_aw_.addr & ~Addr{7};
      if ((w->strb & 0x0F) != 0) {
        d.aw.push(LiteAw{base});
        d.w.push(LiteW{static_cast<u32>(w->data),
                       static_cast<u8>(w->strb & 0x0F)});
      }
      if ((w->strb & 0xF0) != 0) {
        d.aw.push(LiteAw{base + 4});
        d.w.push(LiteW{static_cast<u32>(w->data >> 32),
                       static_cast<u8>(w->strb >> 4)});
      }
      writes_.push(Pending{cur_aw_.addr, dev, halves, halves});
    }
  }
  up_.w.pop();
  aw_taken_ = false;
  return up_.aw.can_pop();
}

bool LitePath::collect_read() {
  Pending* p = reads_.owing();
  if (p == nullptr) return false;
  AxiLitePort& d = *devs_[p->dev];
  const LiteR* r = d.r.front();
  if (r == nullptr) return true;
  const u8 idx = p->halves - p->owed;  // 0 = first half
  const bool high_lane = p->halves == 2 ? idx == 1 : (p->addr & 4) != 0;
  p->data |= u64{r->data} << (high_lane ? 32 : 0);
  p->resp = worse(p->resp, r->resp);
  d.r.pop();
  if (--p->owed == 0) {
    p->due = sim_now() + hops_ - 1;
    reads_.complete();
  }
  return reads_.owing() != nullptr;
}

bool LitePath::collect_write() {
  Pending* p = writes_.owing();
  if (p == nullptr) return false;
  AxiLitePort& d = *devs_[p->dev];
  const LiteB* b = d.b.front();
  if (b == nullptr) return true;
  p->resp = worse(p->resp, b->resp);
  d.b.pop();
  if (--p->owed == 0) {
    p->due = sim_now() + hops_ - 1;
    writes_.complete();
  }
  return writes_.owing() != nullptr;
}

bool LitePath::deliver_read() {
  if (reads_.done == 0) return false;
  const Pending& p = reads_.q.front();
  if (p.due <= sim_now() && up_.r.can_push()) {
    up_.r.push(AxiR{p.data, p.resp, true});
    reads_.pop();
  }
  return head_ready(reads_, up_.r.can_push());
}

bool LitePath::deliver_write() {
  if (writes_.done == 0) return false;
  const Pending& p = writes_.q.front();
  if (p.due <= sim_now() && up_.b.can_push()) {
    up_.b.push(AxiB{p.resp});
    writes_.pop();
  }
  return head_ready(writes_, up_.b.can_push());
}

bool LitePath::head_ready(const Queue& q, bool room) {
  // Without room the pop that reopens the channel wakes the path.
  if (q.done == 0 || !room) return false;
  if (q.q.front().due <= sim_now() + 1) return true;
  wake_at(q.q.front().due);
  return false;
}

bool LitePath::busy() const {
  return !reads_.q.empty() || !writes_.q.empty() || aw_taken_ ||
         drop_w_ > 0 || up_.has_request();
}

}  // namespace rvcap::axi
