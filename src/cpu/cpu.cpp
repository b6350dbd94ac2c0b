#include "cpu/cpu.hpp"

#include <algorithm>
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

u32 CpuContext::load32_uncached(Addr a) {
  sim_.run_cycles(tm_.uncached_access_core_cycles);
  const axi::AxiR r = blocking_read(a, 2);
  return static_cast<u32>((a & 4) ? (r.data >> 32) : r.data);
}

void CpuContext::store32_uncached(Addr a, u32 v) {
  sim_.run_cycles(tm_.uncached_access_core_cycles);
  const bool high = (a & 4) != 0;
  blocking_write(a, high ? (u64{v} << 32) : u64{v},
                 high ? 0xF0 : 0x0F, 2);
}

u64 CpuContext::load64_uncached(Addr a) {
  sim_.run_cycles(tm_.uncached_access_core_cycles);
  return blocking_read(a, 3).data;
}

void CpuContext::store64_uncached(Addr a, u64 v) {
  sim_.run_cycles(tm_.uncached_access_core_cycles);
  blocking_write(a, v, 0xFF, 3);
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
    const u32 avail_beats = 16;
    // Burst read up to 16 beats.
    const usize want = out.size() - done + ((a + done) & 7);
    const u32 beats =
        static_cast<u32>(std::min<usize>(avail_beats, (want + 7) / 8));
    if (!push_request(port_.ar,
                      axi::AxiAr{base, static_cast<u8>(beats - 1), 3}, base)) {
      return;
    }
    ++bus_reads_;
    for (u32 b = 0; b < beats; ++b) {
      if (!bus_wait([&] { return port_.r.can_pop(); }, "read", base)) return;
      const axi::AxiR r = *port_.r.pop();
      if (r.resp != axi::Resp::kOkay) ++bus_errors_;
      for (u32 i = 0; i < 8 && done < out.size(); ++i) {
        const Addr byte_addr = base + u64{b} * 8 + i;
        if (byte_addr < a + done) continue;  // pre-alignment bytes
        out[done++] = static_cast<u8>(r.data >> (8 * i));
      }
      sim_.run_cycles(tm_.cached_access_core_cycles);
    }
  }
}

void CpuContext::write_buffer(Addr a, std::span<const u8> data) {
  usize done = 0;
  while (done < data.size()) {
    const Addr addr = a + done;
    const Addr base = addr & ~Addr{7};
    const usize remaining = data.size() - done + (addr & 7);
    const u32 beats = static_cast<u32>(std::min<usize>(16, (remaining + 7) / 8));
    if (!push_request(port_.aw,
                      axi::AxiAw{base, static_cast<u8>(beats - 1), 3}, base)) {
      return;
    }
    ++bus_writes_;
    usize cursor = done;
    for (u32 b = 0; b < beats; ++b) {
      u64 word = 0;
      u8 strb = 0;
      for (u32 i = 0; i < 8; ++i) {
        const Addr byte_addr = base + u64{b} * 8 + i;
        if (byte_addr >= a + cursor && cursor < data.size() &&
            byte_addr == a + cursor) {
          word |= u64{data[cursor]} << (8 * i);
          strb |= static_cast<u8>(1u << i);
          ++cursor;
        }
      }
      if (!push_request(port_.w, axi::AxiW{word, strb, b + 1 == beats},
                        base)) {
        return;
      }
      sim_.run_cycles(tm_.cached_access_core_cycles);
    }
    done = cursor;
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
