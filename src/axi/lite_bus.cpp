#include "axi/lite_bus.hpp"

#include <stdexcept>

namespace rvcap::axi {

LiteBus::LiteBus(std::string name) : Component(std::move(name)) {
  up_.watch_subordinate(this);
}

void LiteBus::add_device(const AddrRange& range, AxiLitePort* port) {
  for (const auto& r : ranges_) {
    if (r.overlaps(range)) {
      throw std::invalid_argument("LiteBus: overlapping window");
    }
  }
  port->watch_manager(this);
  ranges_.push_back(range);
  devs_.push_back(port);
}

std::optional<usize> LiteBus::decode(Addr a) const {
  for (usize i = 0; i < ranges_.size(); ++i) {
    if (ranges_[i].contains(a)) return i;
  }
  return std::nullopt;
}

bool LiteBus::tick() {
  // Requests.
  if (const LiteAr* ar = up_.ar.front()) {
    if (auto d = decode(ar->addr); d.has_value()) {
      if (devs_[*d]->ar.can_push()) {
        devs_[*d]->ar.push(*ar);
        read_route_.push_back(*d);
        up_.ar.pop();
      }
    } else {
      ++decode_errors_;
      read_route_.push_back(kErrDev);
      up_.ar.pop();
    }
  }
  const LiteAw* aw = up_.aw.front();
  const LiteW* w = up_.w.front();
  if (aw != nullptr && w != nullptr) {
    if (auto d = decode(aw->addr); d.has_value()) {
      if (devs_[*d]->aw.can_push() && devs_[*d]->w.can_push()) {
        devs_[*d]->aw.push(*aw);
        devs_[*d]->w.push(*w);
        write_route_.push_back(*d);
        up_.aw.pop();
        up_.w.pop();
      }
    } else {
      ++decode_errors_;
      write_route_.push_back(kErrDev);
      up_.aw.pop();
      up_.w.pop();
    }
  }
  // Responses (in request order; every device answers in order).
  if (!read_route_.empty() && up_.r.can_push()) {
    const usize d = read_route_.front();
    if (d == kErrDev) {
      up_.r.push(LiteR{0, Resp::kDecErr});
      read_route_.pop_front();
    } else if (devs_[d]->r.can_pop()) {
      up_.r.push(*devs_[d]->r.pop());
      read_route_.pop_front();
    }
  }
  if (!write_route_.empty() && up_.b.can_push()) {
    const usize d = write_route_.front();
    if (d == kErrDev) {
      up_.b.push(LiteB{Resp::kDecErr});
      write_route_.pop_front();
    } else if (devs_[d]->b.can_pop()) {
      up_.b.push(*devs_[d]->b.pop());
      write_route_.pop_front();
    }
  }
  return ready();
}

bool LiteBus::ready() const {
  if (const LiteAr* ar = up_.ar.front()) {
    const auto d = decode(ar->addr);
    if (!d || devs_[*d]->ar.can_push()) return true;
  }
  const LiteAw* aw = up_.aw.front();
  if (aw != nullptr && up_.w.can_pop()) {
    const auto d = decode(aw->addr);
    if (!d || (devs_[*d]->aw.can_push() && devs_[*d]->w.can_push())) {
      return true;
    }
  }
  if (!read_route_.empty() && up_.r.can_push()) {
    const usize d = read_route_.front();
    if (d == kErrDev || devs_[d]->r.can_pop()) return true;
  }
  if (!write_route_.empty() && up_.b.can_push()) {
    const usize d = write_route_.front();
    if (d == kErrDev || devs_[d]->b.can_pop()) return true;
  }
  return false;
}

bool LiteBus::busy() const {
  return !read_route_.empty() || !write_route_.empty() || up_.has_request();
}

}  // namespace rvcap::axi
