#include "cpu/cpu.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/log.hpp"

namespace rvcap::cpu {

template <typename Pred>
bool CpuContext::bus_wait(Pred&& pred, const char* what, Addr a) {
  if (sim_.run_until_event(std::forward<Pred>(pred))) return true;
  log_error("cpu: ", what, " timeout at 0x", std::hex, a);
  ++bus_timeouts_;
  return false;
}

template <typename T>
bool CpuContext::push_request(sim::Fifo<T>& ch, const T& beat, Addr a) {
  if (!bus_wait([&] { return ch.can_push(); }, "request", a)) return false;
  ch.push(beat);
  return true;
}

axi::AxiR CpuContext::blocking_read(Addr a, u8 size) {
  constexpr axi::AxiR kTimedOut{0, axi::Resp::kSlvErr, true};
  if (!push_request(port_.ar, axi::AxiAr{a, 0, size}, a)) return kTimedOut;
  ++bus_reads_;
  // A single-beat response leaves the crossbar in the cycle it moves,
  // so it is visible at the step boundary the wait lands on.
  if (!bus_wait([&] { return port_.r.can_pop(); }, "read", a)) return kTimedOut;
  const axi::AxiR r = *port_.r.pop();
  if (r.resp != axi::Resp::kOkay) ++bus_errors_;
  return r;
}

void CpuContext::blocking_write(Addr a, u64 data, u8 strb, u8 size) {
  if (!push_request(port_.aw, axi::AxiAw{a, 0, size}, a) ||
      !push_request(port_.w, axi::AxiW{data, strb, true}, a)) {
    return;
  }
  ++bus_writes_;
  if (!bus_wait([&] { return port_.b.can_pop(); }, "write", a)) return;
  if (port_.b.pop()->resp != axi::Resp::kOkay) ++bus_errors_;
}

void CpuContext::add_register_window(const axi::AddrRange& range,
                                     axi::AxiLiteSlave* device, u32 hops,
                                     axi::AxiCrossbar& bus) {
  for (const RegisterWindow& w : windows_) {
    if (device != nullptr && w.device != nullptr && w.range.overlaps(range)) {
      throw std::invalid_argument("CpuContext: overlapping register window");
    }
  }
  windows_.push_back({range, device, hops, &bus});
}

const CpuContext::RegisterWindow* CpuContext::timed_window(Addr a) const {
  const RegisterWindow* hole = nullptr;
  for (const RegisterWindow& w : windows_) {
    if (!w.range.contains(a)) continue;
    if (w.device != nullptr) return &w;
    hole = &w;
  }
  return hole;
}

bool CpuContext::serve(axi::AxiLiteSlave& d, Addr a, bool write, u32& data) {
  if (sim_.quiet()) {
    // Nothing else happens in this cycle: the device's tick would only
    // serve the request, so it serves it without the port.
    sim_.serve_in_place(d, [&] {
      return write ? d.serve_write(a, data) : d.serve_read(a, data);
    });
    return true;
  }
  axi::AxiLitePort& p = d.port();
  if (write) {
    d.post_write(a, data);
    if (!bus_wait([&] { return p.b.can_pop(); }, "write", a)) return false;
    p.b.pop();
    return true;
  }
  d.post_read(a);
  // The chain collects a response at the boundary it is visible.
  if (!bus_wait([&] { return p.r.can_pop(); }, "read", a)) return false;
  data = p.r.pop()->data;
  return true;
}

u64 CpuContext::timed_read(const RegisterWindow& w, Addr a, u8 halves) {
  // The crossbar takes the AR once the core cycles are spent.
  const Cycles start = sim_.now() + tm_.uncached_access_core_cycles;
  ++bus_reads_;
  u64 data = 0;
  if (w.device == nullptr) {
    // The decoder answers a half in the cycle it decodes it, the second
    // one cycle after the first: no device serves it.
    sim_.run_cycles(start + halves - 1 - sim_.now());
    ++bus_errors_;
  } else {
    const Addr base = a & (halves == 2 ? ~Addr{7} : ~Addr{3});
    // The chain hands the device a half when the crossbar takes the AR,
    // the second one the cycle after it collected the first; the device
    // serves it kServeCycles later.
    Cycles serve_at = start + kServeCycles;
    for (u8 h = 0; h < halves; ++h) {
      sim_.run_cycles(serve_at - sim_.now());
      u32 half = 0;
      if (!serve(*w.device, base + 4 * h, false, half)) return 0;
      data |= u64{half} << (32 * h);
      serve_at = sim_.now() + kServeCycles;
    }
  }
  timed_return(w, obs::EventKind::kAxiRead, a, start);
  return data;
}

void CpuContext::timed_write(const RegisterWindow& w, Addr a, u32 data) {
  // The crossbar takes the AW once the core cycles are spent and moves
  // the W beat next cycle, in which the chain hands the write to the
  // device, or the decoder answers a hole.
  const Cycles start = sim_.now() + tm_.uncached_access_core_cycles;
  ++bus_writes_;
  if (w.device == nullptr) {
    sim_.run_cycles(start + 1 - sim_.now());
    ++bus_errors_;
  } else {
    sim_.run_cycles(start + 1 + kServeCycles - sim_.now());
    if (!serve(*w.device, a & ~Addr{3}, true, data)) return;
  }
  timed_return(w, obs::EventKind::kAxiWrite, a, start);
}

void CpuContext::timed_return(const RegisterWindow& w, obs::EventKind kind,
                              Addr a, Cycles start) {
  // The response leaves the chain hops - 1 cycles after it collected
  // the last half, the crossbar moves it the cycle after, and the CPU
  // sees it the next. The crossbar's event is emitted in its own cycle,
  // after the events of the cycles before it.
  if (!sim_.obs().sink().enabled()) {
    sim_.run_cycles(w.hops + 1);
    return;
  }
  sim_.run_cycles(w.hops);
  w.bus->trace_timed_call(kind, a, start);
  sim_.run_cycles(1);
}

u32 CpuContext::load32_uncached(Addr a) {
  if (const RegisterWindow* w = timed_window(a)) {
    return static_cast<u32>(timed_read(*w, a, 1));
  }
  sim_.run_cycles(tm_.uncached_access_core_cycles);
  const axi::AxiR r = blocking_read(a, 2);
  return static_cast<u32>((a & 4) ? (r.data >> 32) : r.data);
}

void CpuContext::store32_uncached(Addr a, u32 v) {
  if (const RegisterWindow* w = timed_window(a)) {
    timed_write(*w, a, v);
    return;
  }
  sim_.run_cycles(tm_.uncached_access_core_cycles);
  const bool high = (a & 4) != 0;
  blocking_write(a, high ? (u64{v} << 32) : u64{v},
                 high ? 0xF0 : 0x0F, 2);
}

u64 CpuContext::load64_uncached(Addr a) {
  if (const RegisterWindow* w = timed_window(a)) return timed_read(*w, a, 2);
  sim_.run_cycles(tm_.uncached_access_core_cycles);
  return blocking_read(a, 3).data;
}

u64 CpuContext::load64(Addr a) {
  sim_.run_cycles(tm_.cached_access_core_cycles);
  return blocking_read(a, 3).data;
}

void CpuContext::store64(Addr a, u64 v) {
  sim_.run_cycles(tm_.cached_access_core_cycles);
  blocking_write(a, v, 0xFF, 3);
}

u8 CpuContext::load8(Addr a) {
  sim_.run_cycles(tm_.cached_access_core_cycles);
  const axi::AxiR r = blocking_read(a & ~Addr{7}, 3);
  return static_cast<u8>(r.data >> (8 * (a & 7)));
}

void CpuContext::store8(Addr a, u8 v) {
  sim_.run_cycles(tm_.cached_access_core_cycles);
  blocking_write(a & ~Addr{7}, u64{v} << (8 * (a & 7)),
                 static_cast<u8>(1u << (a & 7)), 3);
}

void CpuContext::read_buffer(Addr a, std::span<u8> out) {
  usize done = 0;
  while (done < out.size()) {
    const Addr base = (a + done) & ~Addr{7};
    usize skip = (a + done) & 7;  // pre-alignment bytes of beat 0
    // Burst read up to 16 beats.
    const u32 beats = static_cast<u32>(
        std::min<usize>(16, (out.size() - done + skip + 7) / 8));
    if (!push_request(port_.ar,
                      axi::AxiAr{base, static_cast<u8>(beats - 1), 3}, base)) {
      return;
    }
    ++bus_reads_;
    // Take every beat that has arrived, beat b at the cycle the per-beat
    // loop would have popped it: its stamp, or one core cycle after the
    // previous beat. A span's payload is copied out in one go.
    Cycles t = sim_.now();
    for (u32 b = 0; b < beats;) {
      if (!bus_wait([&] { return !port_.r.empty(); }, "read", base)) return;
      t = std::max(t, sim_.now());
      b += static_cast<u32>(port_.r.take(
          t, tm_.cached_access_core_cycles, beats - b,
          [&](std::span<const u64> words, const axi::AxiR& r) {
            if (r.resp != axi::Resp::kOkay) bus_errors_ += words.size();
            const usize n =
                std::min(8 * words.size() - skip, out.size() - done);
            // The host is little-endian.
            std::memcpy(out.data() + done,
                        reinterpret_cast<const u8*>(words.data()) + skip, n);
            done += n;
            skip = 0;
          }));
      sim_.run_cycles(t - sim_.now());
    }
  }
}

void CpuContext::write_buffer(Addr a, std::span<const u8> data) {
  usize done = 0;
  while (done < data.size()) {
    const Addr base = (a + done) & ~Addr{7};
    const usize lead = (a + done) & 7;
    const u32 beats = static_cast<u32>(
        std::min<usize>(16, (data.size() - done + lead + 7) / 8));
    if (!push_request(port_.aw,
                      axi::AxiAw{base, static_cast<u8>(beats - 1), 3}, base)) {
      return;
    }
    ++bus_writes_;
    std::array<axi::AxiW, 16> burst;
    for (u32 b = 0; b < beats; ++b) {
      const usize from = b == 0 ? lead : 0;
      const usize n = std::min<usize>(8 - from, data.size() - done);
      u64 word = 0;
      std::memcpy(&word, data.data() + done, n);
      burst[b] = axi::AxiW{word << (8 * from),
                           static_cast<u8>(((1u << n) - 1) << from),
                           b + 1 == beats};
      done += n;
    }
    // Beat b leaves at t, one core cycle after the previous one; the
    // beats with room sure then go as one span, and a beat that may not
    // find room is pushed the per-beat way.
    const Cycles core = tm_.cached_access_core_cycles;
    Cycles t = sim_.now();
    for (u32 b = 0; b < beats;) {
      usize k = 0;
      if (t > sim_.now()) {
        k = port_.w.push_beats(t, core, {burst.data() + b, beats - b});
      }
      if (k == 0) {
        sim_.run_cycles(t - sim_.now());
        if (!push_request(port_.w, burst[b], base)) return;
        t = sim_.now();
        k = 1;
      }
      b += static_cast<u32>(k);
      t += k * core;
    }
    sim_.run_cycles(t - sim_.now());
    if (!bus_wait([&] { return port_.b.can_pop(); }, "write", base)) return;
    if (port_.b.pop()->resp != axi::Resp::kOkay) ++bus_errors_;
  }
}

u32 CpuContext::wait_for_irq(const irq::Plic& plic, Addr plic_claim_addr,
                             Cycles timeout) {
  if (!sim_.run_until_event([&] { return plic.eip(); }, timeout)) return 0;
  sim_.run_cycles(tm_.irq_entry_cycles);
  return load32_uncached(plic_claim_addr);
}

void CpuContext::complete_irq(Addr plic_claim_addr, u32 source) {
  store32_uncached(plic_claim_addr, source);
}

}  // namespace rvcap::cpu
