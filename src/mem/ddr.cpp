#include "mem/ddr.hpp"

#include <cstring>

#include "common/bytes.hpp"

namespace rvcap::mem {

DdrController::DdrController(std::string name, const Config& cfg)
    : Component(std::move(name)), cfg_(cfg) {
  port_.watch(this);
}

u8* DdrController::page_for(Addr addr) {
  const u64 key = addr >> kPageShift;
  auto& p = pages_[key];
  if (!p) {
    p = std::make_unique<Page>();
    p->fill(0);
  }
  return p->data() + (addr & (kPageSize - 1));
}

const u8* DdrController::page_for(Addr addr) const {
  const auto it = pages_.find(addr >> kPageShift);
  if (it == pages_.end()) return nullptr;
  return it->second->data() + (addr & (kPageSize - 1));
}

u64 DdrController::read_beat(Addr addr) const {
  const Addr a = addr & ~Addr{7};
  const u8* p = page_for(a);
  if (p == nullptr) return 0;
  u64 v;
  std::memcpy(&v, p, 8);  // host is little-endian like the SoC
  return v;
}

void DdrController::write_beat(Addr addr, u64 data, u8 strb) {
  const Addr a = addr & ~Addr{7};
  u8* p = page_for(a);
  for (unsigned i = 0; i < 8; ++i) {
    if (strb & (1u << i)) p[i] = static_cast<u8>(data >> (8 * i));
  }
}

bool DdrController::tick() {
  bool progress = false;
  // Accept new requests (address channels are independent of the data bus).
  if (const axi::AxiAr* ar = port_.ar.front()) {
    reads_.push_back(ReadJob{ar->addr, u32{ar->len} + 1, cfg_.read_latency});
    port_.ar.pop();
    progress = true;
  }
  if (const axi::AxiAw* aw = port_.aw.front()) {
    writes_.push_back(WriteJob{aw->addr, u32{aw->len} + 1, kWriteLatency});
    port_.aw.pop();
    progress = true;
  }

  // Latency countdowns overlap across queued jobs (pipelined controller);
  // each decrement is observable state, keeping the controller awake
  // while bursts are in flight.
  for (auto& j : reads_) {
    if (j.wait > 0) {
      --j.wait;
      progress = true;
    }
  }
  for (auto& j : writes_) {
    if (j.data_done && j.wait > 0) {
      --j.wait;
      progress = true;
    }
  }

  // Full-duplex data movement: the AXI R and W channels are
  // independent, one beat each per cycle.
  if (!writes_.empty() && !writes_.front().data_done && port_.w.can_pop()) {
    WriteJob& j = writes_.front();
    const axi::AxiW w = *port_.w.pop();
    write_beat(j.addr, w.data, w.strb);
    j.addr += 8;
    ++beats_;
    progress = true;
    if (--j.beats_left == 0) j.data_done = true;
  }
  if (!reads_.empty() && reads_.front().wait == 0 && port_.r.can_push()) {
    ReadJob& j = reads_.front();
    const bool last = (j.beats_left == 1);
    port_.r.push(axi::AxiR{read_beat(j.addr), axi::Resp::kOkay, last});
    j.addr += 8;
    ++beats_;
    progress = true;
    if (--j.beats_left == 0) reads_.pop_front();
  }

  // Write responses (B channel is independent of the data bus).
  if (!writes_.empty()) {
    WriteJob& j = writes_.front();
    if (j.data_done && j.wait == 0 && port_.b.can_push()) {
      port_.b.push(axi::AxiB{axi::Resp::kOkay});
      writes_.pop_front();
      progress = true;
    }
  }
  return progress;
}

bool DdrController::busy() const {
  return !reads_.empty() || !writes_.empty() || !port_.idle();
}

void DdrController::poke(Addr addr, std::span<const u8> data) {
  for (usize i = 0; i < data.size(); ++i) *page_for(addr + i) = data[i];
}

void DdrController::peek(Addr addr, std::span<u8> out) const {
  for (usize i = 0; i < out.size(); ++i) {
    const u8* p = page_for(addr + i);
    out[i] = (p != nullptr) ? *p : 0;
  }
}

u64 DdrController::peek64(Addr addr) const { return read_beat(addr); }

void DdrController::poke64(Addr addr, u64 value) {
  write_beat(addr, value, 0xFF);
}

}  // namespace rvcap::mem
