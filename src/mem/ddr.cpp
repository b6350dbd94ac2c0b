#include "mem/ddr.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/bytes.hpp"

namespace rvcap::mem {

DdrController::DdrController(std::string name, const Config& cfg)
    : Component(std::move(name)), cfg_(cfg) {
  port_.watch_subordinate(this);
}

namespace {

/// Whether a queued job overlaps the bytes job `j` has still to move.
template <typename Jobs, typename Job>
bool overlaps(const Jobs& jobs, const Job& j) {
  const axi::AddrRange range{j.addr & ~Addr{7}, u64{j.beats_left} * 8};
  return std::any_of(jobs.begin(), jobs.end(), [&](const auto& o) {
    return range.overlaps({o.addr & ~Addr{7}, u64{o.beats_left} * 8});
  });
}

}  // namespace

u8* DdrController::page(u64 key) {
  if (key == cached_key_) return cached_page_;
  auto& p = pages_[key];
  if (!p) {
    p = std::make_unique<Page>();
    p->fill(0);
  }
  cached_key_ = key;
  cached_page_ = p->data();
  return cached_page_;
}

const u8* DdrController::find_page(u64 key) const {
  if (key == cached_key_) return cached_page_;
  const auto it = pages_.find(key);
  if (it == pages_.end()) return nullptr;
  cached_key_ = key;
  cached_page_ = it->second->data();
  return cached_page_;
}

u64 DdrController::read_beat(Addr addr) const {
  const Addr a = addr & ~Addr{7};
  const u8* p = find_page(a >> kPageShift);
  if (p == nullptr) return 0;
  u64 v;
  std::memcpy(&v, p + (a & (kPageSize - 1)), 8);  // host is little-endian
  return v;
}

void DdrController::write_beat(Addr addr, u64 data, u8 strb) {
  const Addr a = addr & ~Addr{7};
  u8* p = page(a >> kPageShift) + (a & (kPageSize - 1));
  for (unsigned i = 0; i < 8; ++i) {
    if (strb & (1u << i)) p[i] = static_cast<u8>(data >> (8 * i));
  }
}

bool DdrController::tick() {
  const Cycles now = sim_now();
  // Accept new requests (address channels are independent of the data
  // bus). A read's first beat leaves latency - 1 cycles after the accept
  // cycle; queued latencies overlap (pipelined controller).
  if (const axi::AxiAr* ar = port_.ar.front()) {
    const Cycles lat = cfg_.read_latency;
    reads_.push_back(
        ReadJob{ar->addr, u32{ar->len} + 1, now + (lat > 0 ? lat - 1 : 0)});
    port_.ar.pop();
  }
  if (const axi::AxiAw* aw = port_.aw.front()) {
    writes_.push_back(WriteJob{aw->addr, u32{aw->len} + 1});
    port_.aw.pop();
  }

  // Full-duplex data movement: the AXI R and W channels are
  // independent, one beat each per cycle.
  if (!writes_.empty() && !writes_.front().data_done && port_.w.can_pop()) {
    take_writes();
  }
  produce_reads();

  // Write responses (B channel is independent of the data bus).
  if (!writes_.empty()) {
    const WriteJob& j = writes_.front();
    if (j.data_done && j.ready_at <= now && port_.b.can_push()) {
      port_.b.push(axi::AxiB{axi::Resp::kOkay});
      writes_.pop_front();
    }
  }
  return ready();
}

void DdrController::take_writes() {
  const Cycles now = sim_now();
  WriteJob& j = writes_.front();
  const bool batch = !overlaps(reads_, j);
  Cycles c = std::max(now, j.next);
  while (j.beats_left > 0 && !port_.w.empty()) {
    const Cycles first = std::max(c, port_.w.peek()->at);
    if (first > now && !batch) {
      wake_at(first);  // beat by beat: take it at its own cycle
      break;
    }
    const usize n = port_.w.take(
        c, 1, batch ? j.beats_left : 1,
        [&](std::span<const u64> words, const axi::AxiW& w) {
          if (w.strb == 0xFF) {
            poke(j.addr & ~Addr{7},
                 {reinterpret_cast<const u8*>(words.data()), 8 * words.size()});
            j.addr += 8 * words.size();
            return;
          }
          for (const u64 d : words) {
            write_beat(j.addr, d, w.strb);
            j.addr += 8;
          }
        });
    j.next = c;
    beats_ += n;
    j.beats_left -= static_cast<u32>(n);
    if (j.beats_left == 0) {
      j.data_done = true;
      j.ready_at = c - 1 + kWriteLatency;
    }
  }
}

void DdrController::produce_reads() {
  const Cycles now = sim_now();
  while (!reads_.empty() && read_start() <= now) {
    ReadJob& j = reads_.front();
    // Batched: every beat from now, one per cycle, as one span (16 at a
    // time); beat by beat: the beat of this cycle.
    std::array<u64, 16> words;
    std::array<axi::AxiR, 16> beats;
    const u32 want = std::min<u32>(overlaps(writes_, j) ? 1 : j.beats_left, 16);
    peek(j.addr & ~Addr{7}, {reinterpret_cast<u8*>(words.data()), 8 * want});
    for (u32 k = 0; k < want; ++k) {
      beats[k] = axi::AxiR{words[k], axi::Resp::kOkay, k + 1 == j.beats_left};
    }
    const usize n = port_.r.push_beats(now, 1, {beats.data(), want});
    j.addr += 8 * n;
    r_next_ = now + n;
    beats_ += n;
    j.beats_left -= static_cast<u32>(n);
    if (j.beats_left > 0) {
      if (n > 0 && n < want) wake_at(now + n);  // the rest at its own cycle
      return;
    }
    reads_.pop_front();
  }
}

Cycles DdrController::read_start() const {
  return std::max(reads_.front().ready_at, r_next_);
}

bool DdrController::ready() {
  const Cycles next = sim_now() + 1;
  bool can = port_.ar.can_pop() || port_.aw.can_pop();
  if (!reads_.empty() && port_.r.can_push()) {
    const Cycles t = read_start();
    if (t <= next) {
      can = true;
    } else {
      wake_at(t);
    }
  }
  if (!writes_.empty()) {
    const WriteJob& j = writes_.front();
    if (!j.data_done) {
      can |= port_.w.can_pop();
    } else if (port_.b.can_push()) {
      if (j.ready_at <= next) {
        can = true;
      } else {
        wake_at(j.ready_at);
      }
    }
  }
  return can;
}

bool DdrController::busy() const {
  return !reads_.empty() || !writes_.empty() || port_.has_request();
}

void DdrController::poke(Addr addr, std::span<const u8> data) {
  usize done = 0;
  while (done < data.size()) {
    const Addr a = addr + done;
    const usize off = a & (kPageSize - 1);
    const usize n = std::min(kPageSize - off, data.size() - done);
    std::memcpy(page(a >> kPageShift) + off, data.data() + done, n);
    done += n;
  }
}

void DdrController::peek(Addr addr, std::span<u8> out) const {
  usize done = 0;
  while (done < out.size()) {
    const Addr a = addr + done;
    const usize off = a & (kPageSize - 1);
    const usize n = std::min(kPageSize - off, out.size() - done);
    if (const u8* p = find_page(a >> kPageShift)) {
      std::memcpy(out.data() + done, p + off, n);
    } else {
      std::memset(out.data() + done, 0, n);
    }
    done += n;
  }
}

u64 DdrController::peek64(Addr addr) const { return read_beat(addr); }

void DdrController::poke64(Addr addr, u64 value) {
  write_beat(addr, value, 0xFF);
}

}  // namespace rvcap::mem
