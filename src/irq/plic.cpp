#include "irq/plic.hpp"

#include "obs/trace.hpp"

namespace rvcap::irq {

Plic::Plic(std::string name, u32 num_sources)
    : AxiLiteSlave(std::move(name)),
      level_(num_sources + 1, false),
      pending_(num_sources + 1, false),
      in_flight_(num_sources + 1, false),
      priority_(num_sources + 1, 1),
      enable_(num_sources + 1, false) {}

void Plic::change_level(u32 source, bool level) {
  level_[source] = level;
  RVCAP_TRACE(trace_sink(),
              level ? obs::EventKind::kIrqRaise : obs::EventKind::kIrqLower,
              trace_src(), sim_now(), source);
  wake();
}

bool Plic::device_tick() {
  // Gateways: latch pending on high level unless already in flight.
  bool latched = false;
  for (u32 s = 1; s < level_.size(); ++s) {
    if (level_[s] && !in_flight_[s] && !pending_[s]) {
      pending_[s] = true;
      latched = true;
    }
  }
  if (latched) update_best();
  return latched;
}

bool Plic::device_ready() const {
  // A gateway latches next cycle: a high line neither pending nor
  // in flight (e.g. just completed while its device still asserts it).
  for (u32 s = 1; s < level_.size(); ++s) {
    if (level_[s] && !in_flight_[s] && !pending_[s]) return true;
  }
  return false;
}

u32 Plic::scan_best() const {
  u32 best = 0;
  u32 best_prio = threshold_;
  for (u32 s = 1; s < pending_.size(); ++s) {
    if (pending_[s] && enable_[s] && priority_[s] > best_prio) {
      best = s;
      best_prio = priority_[s];
    }
  }
  return best;
}

u32 Plic::read_reg(Addr addr) {
  const Addr off = addr & 0x00FF'FFFF;
  if (off >= kPriorityBase && off < kPriorityBase + 4 * priority_.size()) {
    return priority_[off / 4];
  }
  if (off >= kPendingBase && off < kPendingBase + 0x80) {
    const u32 word = static_cast<u32>((off - kPendingBase) / 4);
    u32 v = 0;
    for (u32 b = 0; b < 32; ++b) {
      const u32 s = word * 32 + b;
      if (s < pending_.size() && pending_[s]) v |= (1u << b);
    }
    return v;
  }
  if (off >= kEnableBase && off < kEnableBase + 0x80) {
    const u32 word = static_cast<u32>((off - kEnableBase) / 4);
    u32 v = 0;
    for (u32 b = 0; b < 32; ++b) {
      const u32 s = word * 32 + b;
      if (s < enable_.size() && enable_[s]) v |= (1u << b);
    }
    return v;
  }
  if (off == kThreshold) return threshold_;
  if (off == kClaimComplete) {
    const u32 s = best_;
    if (s != 0) {
      pending_[s] = false;
      in_flight_[s] = true;
      update_best();
      RVCAP_TRACE(trace_sink(), obs::EventKind::kIrqClaim, trace_src(),
                  sim_now(), s);
    }
    return s;
  }
  return 0;
}

void Plic::write_reg(Addr addr, u32 value) {
  const Addr off = addr & 0x00FF'FFFF;
  if (off >= kPriorityBase && off < kPriorityBase + 4 * priority_.size()) {
    priority_[off / 4] = value & 0x7;
    update_best();
    return;
  }
  if (off >= kEnableBase && off < kEnableBase + 0x80) {
    const u32 word = static_cast<u32>((off - kEnableBase) / 4);
    for (u32 b = 0; b < 32; ++b) {
      const u32 s = word * 32 + b;
      if (s != 0 && s < enable_.size()) enable_[s] = (value >> b) & 1;
    }
    update_best();
    return;
  }
  if (off == kThreshold) {
    threshold_ = value & 0x7;
    update_best();
    return;
  }
  if (off == kClaimComplete) {
    if (value < in_flight_.size() && in_flight_[value]) {
      in_flight_[value] = false;
      RVCAP_TRACE(trace_sink(), obs::EventKind::kIrqComplete, trace_src(),
                  sim_now(), value);
    }
    return;
  }
}

}  // namespace rvcap::irq
