#include "mem/sram.hpp"

#include <cstring>

namespace rvcap::mem {

AxiSram::AxiSram(std::string name, u64 size_bytes, Addr bus_base)
    : Component(std::move(name)), bus_base_(bus_base),
      data_(size_bytes, 0) {
  port_.watch_subordinate(this);
}

u64 AxiSram::read_beat(Addr a) const {
  a &= ~Addr{7};
  if (a + 8 > data_.size()) return 0;
  u64 v;
  std::memcpy(&v, data_.data() + a, 8);
  return v;
}

void AxiSram::write_beat(Addr a, u64 data, u8 strb) {
  a &= ~Addr{7};
  if (a + 8 > data_.size()) return;
  for (unsigned i = 0; i < 8; ++i) {
    if (strb & (1u << i)) data_[a + i] = static_cast<u8>(data >> (8 * i));
  }
}

bool AxiSram::tick() {
  if (const axi::AxiAr* ar = port_.ar.front()) {
    // Subordinates see bus addresses; translate to in-window offsets.
    reads_.push_back(
        ReadJob{(ar->addr - bus_base_) % data_.size(), u32{ar->len} + 1});
    port_.ar.pop();
  }
  if (const axi::AxiAw* aw = port_.aw.front()) {
    writes_.push_back(
        WriteJob{(aw->addr - bus_base_) % data_.size(), u32{aw->len} + 1});
    port_.aw.pop();
  }
  if (!reads_.empty() && port_.r.can_push()) {
    ReadJob& j = reads_.front();
    port_.r.push(axi::AxiR{read_beat(j.addr), axi::Resp::kOkay,
                           j.beats_left == 1});
    j.addr += 8;
    if (--j.beats_left == 0) reads_.pop_front();
  }
  if (!writes_.empty() && port_.w.can_pop()) {
    WriteJob& j = writes_.front();
    const axi::AxiW w = *port_.w.pop();
    write_beat(j.addr, w.data, w.strb);
    j.addr += 8;
    if (--j.beats_left == 0) {
      writes_.pop_front();
      ++pending_b_;
    }
  }
  if (pending_b_ > 0 && port_.b.can_push()) {
    port_.b.push(axi::AxiB{axi::Resp::kOkay});
    --pending_b_;
  }
  return port_.ar.can_pop() || port_.aw.can_pop() ||
         (!reads_.empty() && port_.r.can_push()) ||
         (!writes_.empty() && port_.w.can_pop()) ||
         (pending_b_ > 0 && port_.b.can_push());
}

bool AxiSram::busy() const {
  return !reads_.empty() || !writes_.empty() || pending_b_ > 0 ||
         port_.has_request();
}

void AxiSram::poke(Addr addr, std::span<const u8> bytes) {
  for (usize i = 0; i < bytes.size() && addr + i < data_.size(); ++i) {
    data_[addr + i] = bytes[i];
  }
}

void AxiSram::peek(Addr addr, std::span<u8> out) const {
  for (usize i = 0; i < out.size(); ++i) {
    out[i] = (addr + i < data_.size()) ? data_[addr + i] : 0;
  }
}

}  // namespace rvcap::mem
