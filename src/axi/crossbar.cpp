#include "axi/crossbar.hpp"

#include <algorithm>
#include <bit>

#include "common/log.hpp"
#include "obs/observability.hpp"

namespace rvcap::axi {

AxiCrossbar::AxiCrossbar(std::string name) : Component(std::move(name)) {}

namespace {

/// Visit the set bits of `mask` in ascending order: the port order of
/// the plain loops the masks replace.
template <typename F>
void for_each_bit(u64 mask, F&& f) {
  while (mask != 0) {
    f(static_cast<usize>(std::countr_zero(mask)));
    mask &= mask - 1;
  }
}

template <typename F>
bool any_bit(u64 mask, F&& f) {
  while (mask != 0) {
    if (f(static_cast<usize>(std::countr_zero(mask)))) return true;
    mask &= mask - 1;
  }
  return false;
}

}  // namespace

usize AxiCrossbar::add_manager(AxiPort* port) {
  if (managers_.size() == 64) {
    throw std::invalid_argument("AxiCrossbar: more than 64 managers");
  }
  port->watch_subordinate(this);
  managers_.push_back(port);
  active_writes_.emplace_back();
  error_reads_.emplace_back();
  pending_error_b_.push_back(0);
  stalls_.push_back(0);
  return managers_.size() - 1;
}

void AxiCrossbar::on_register(obs::Observability& o) {
  const std::string prefix(name());
  obs::CounterRegistry& c = o.counters();
  c.register_fn(prefix + ".decode_errors", [this] { return decode_errors_; });
  for (usize m = 0; m < managers_.size(); ++m) {
    c.register_fn(prefix + ".m" + std::to_string(m) + ".stall_cycles",
                  [this, m] { return stalls_[m]; });
  }
}

void AxiCrossbar::add_subordinate(const AddrRange& range, AxiPort* port) {
  for (const auto& r : ranges_) {
    if (r.overlaps(range)) {
      throw std::invalid_argument("AxiCrossbar: overlapping address window");
    }
  }
  if (subs_.size() == 64) {
    throw std::invalid_argument("AxiCrossbar: more than 64 subordinates");
  }
  port->watch_manager(this);
  ranges_.push_back(range);
  subs_.push_back(port);
  read_routes_.emplace_back();
  write_routes_.emplace_back();
  r_next_.push_back(0);
}

std::optional<usize> AxiCrossbar::decode(Addr a) const {
  for (usize i = 0; i < ranges_.size(); ++i) {
    if (ranges_[i].contains(a)) return i;
  }
  return std::nullopt;
}

bool AxiCrossbar::tick() {
  // Response paths first so a beat freed this cycle can be refilled by
  // the subordinate next cycle (keeps the pipe full at 1 beat/cycle).
  bool progress = return_r();
  progress |= return_b();
  progress |= drain_error_reads();
  progress |= forward_w();
  progress |= arbitrate_ar();
  progress |= arbitrate_aw();
  if (progress) {
    // Contention census, gated on progress so skipped (provably no-op)
    // ticks under the scheduled kernel never desynchronise the counts:
    // a manager whose request is still unaccepted after arbitration
    // lost this cycle to another master or to subordinate back-pressure.
    for (usize m = 0; m < managers_.size(); ++m) {
      if (managers_[m]->ar.front() != nullptr ||
          (managers_[m]->aw.front() != nullptr &&
           (!active_writes_[m].has_value() || write_done(m)))) {
        ++stalls_[m];
      }
    }
  }
  return ready();
}

bool AxiCrossbar::ready() {
  if (any_bit(open_reads_, [this](usize s) {
        return subs_[s]->r.can_pop() &&
               managers_[read_routes_[s].front().manager]->r.can_push();
      })) {
    return true;
  }
  if (any_bit(open_writes_, [this](usize s) {
        return subs_[s]->b.can_pop() &&
               managers_[write_routes_[s].front().manager]->b.can_push();
      })) {
    return true;
  }
  if (any_bit(owed_errors_, [this](usize m) {
        return (pending_error_b_[m] > 0 && managers_[m]->b.can_push()) ||
               (!error_reads_[m].empty() && managers_[m]->r.can_push());
      })) {
    return true;
  }
  if (any_bit(bursts_, [this](usize m) {
        const ActiveWrite& a = *active_writes_[m];
        if (a.beats_left == 0) {
          // Every beat has moved; the burst ends at its last beat's
          // cycle, when a waiting AW may be accepted.
          if (managers_[m]->aw.can_pop()) {
            wake_at(a.next - 1);
          }
          return false;
        }
        return managers_[m]->w.can_pop() &&
               (a.to_error_sink || subs_[a.sub]->w.can_push());
      })) {
    return true;
  }
  for (usize m = 0; m < managers_.size(); ++m) {
    if (const AxiAr* ar = managers_[m]->ar.front()) {
      const auto sub = decode(ar->addr);
      if (!sub || subs_[*sub]->ar.can_push()) return true;
    }
    if (active_writes_[m].has_value() && !write_done(m)) continue;
    if (const AxiAw* aw = managers_[m]->aw.front()) {
      const auto sub = decode(aw->addr);
      if (!sub || subs_[*sub]->aw.can_push()) return true;
    }
  }
  return false;
}

bool AxiCrossbar::arbitrate_ar() {
  const usize n = managers_.size();
  for (usize k = 0; k < n; ++k) {
    const usize m = (rr_ar_ + k) % n;
    const AxiAr* ar = managers_[m]->ar.front();
    if (ar == nullptr) continue;
    auto sub = decode(ar->addr);
    if (!sub) {
      // Unmapped read: owe the manager len+1 DECERR beats.
      ++decode_errors_;
      log_warn("axi: decode error on read addr=0x", std::hex, ar->addr);
      error_reads_[m].push_back(ErrorRead{u32{ar->len} + 1});
      owed_errors_ |= u64{1} << m;
      managers_[m]->ar.pop();
      rr_ar_ = (m + 1) % n;
      return true;  // one AR accepted per cycle (shared decode stage)
    }
    if (!subs_[*sub]->ar.can_push()) continue;
    subs_[*sub]->ar.push(*ar);
    read_routes_[*sub].push_back(
        ReadRoute{m, u32{ar->len} + 1, u32{ar->len} + 1, ar->addr, sim_now()});
    open_reads_ |= u64{1} << *sub;
    managers_[m]->ar.pop();
    rr_ar_ = (m + 1) % n;
    return true;
  }
  return false;
}

bool AxiCrossbar::arbitrate_aw() {
  const usize n = managers_.size();
  for (usize k = 0; k < n; ++k) {
    const usize m = (rr_aw_ + k) % n;
    if (active_writes_[m].has_value()) {
      if (!write_done(m)) continue;  // burst in flight
      active_writes_[m].reset();
      bursts_ &= ~(u64{1} << m);
    }
    const AxiAw* aw = managers_[m]->aw.front();
    if (aw == nullptr) continue;
    auto sub = decode(aw->addr);
    if (!sub) {
      ++decode_errors_;
      log_warn("axi: decode error on write addr=0x", std::hex, aw->addr);
      active_writes_[m] = ActiveWrite{0, u32{aw->len} + 1, true, sim_now() + 1};
      bursts_ |= u64{1} << m;
      managers_[m]->aw.pop();
      rr_aw_ = (m + 1) % n;
      return true;
    }
    if (!subs_[*sub]->aw.can_push()) continue;
    subs_[*sub]->aw.push(*aw);
    write_routes_[*sub].push_back(
        WriteRoute{m, u32{aw->len} + 1, aw->addr, sim_now()});
    open_writes_ |= u64{1} << *sub;
    active_writes_[m] = ActiveWrite{*sub, u32{aw->len} + 1, false, sim_now() + 1};
    bursts_ |= u64{1} << m;
    managers_[m]->aw.pop();
    rr_aw_ = (m + 1) % n;
    return true;
  }
  return false;
}

template <typename T>
usize AxiCrossbar::move_burst(sim::Fifo<T>& in, sim::Fifo<T>& out, Cycles& c,
                              u32 beats, bool& progress) {
  const bool head_now = c == sim_now() && in.can_pop();
  const usize moved = out.move_from(in, c, beats);
  progress |= moved > 0 && head_now;
  // A beat of the burst that found no room retries at its own cycle, c.
  if (moved < beats && !in.empty() && c > sim_now()) wake_at(c);
  return moved;
}

bool AxiCrossbar::write_done(usize m) const {
  const ActiveWrite& a = *active_writes_[m];
  return a.beats_left == 0 && a.next <= sim_now() + 1;
}

bool AxiCrossbar::forward_w() {
  const Cycles now = sim_now();
  bool progress = false;
  for_each_bit(bursts_, [&](usize m) {
    auto& active = active_writes_[m];
    sim::Fifo<AxiW>& in = managers_[m]->w;
    if (active->beats_left == 0 || !in.can_pop()) return;
    if (active->to_error_sink) {
      in.pop();
      progress = true;
      if (--active->beats_left == 0) {
        ++pending_error_b_[m];
        owed_errors_ |= u64{1} << m;
        active.reset();
        bursts_ &= ~(u64{1} << m);
      }
      return;
    }
    Cycles c = std::max(now, active->next);
    const usize moved = move_burst(in, subs_[active->sub]->w, c,
                                   active->beats_left, progress);
    if (moved > 0) {
      active->beats_left -= static_cast<u32>(moved);
      active->next = c;
    }
    if (write_done(m)) {
      active.reset();
      bursts_ &= ~(u64{1} << m);
    }
  });
  return progress;
}

bool AxiCrossbar::return_r() {
  const Cycles now = sim_now();
  bool progress = false;
  for_each_bit(open_reads_, [&](usize s) {
    sim::Fifo<AxiR>& in = subs_[s]->r;
    if (!in.can_pop()) return;
    Cycles c = std::max(now, r_next_[s]);
    while (!in.empty()) {
      ReadRoute& route = read_routes_[s].front();
      sim::Fifo<AxiR>& out = managers_[route.manager]->r;
      const usize moved = move_burst(in, out, c, route.beats_left, progress);
      if (moved == 0) break;
      r_next_[s] = c;
      route.beats_left -= static_cast<u32>(moved);
      if (route.beats_left > 0) break;
      RVCAP_TRACE(trace_sink(), obs::EventKind::kAxiRead, trace_src(), c - 1,
                  route.addr, route.beats_total, c - route.start);
      read_routes_[s].pop_front();
      if (read_routes_[s].empty()) {
        open_reads_ &= ~(u64{1} << s);
        break;
      }
    }
  });
  return progress;
}

bool AxiCrossbar::return_b() {
  bool progress = false;
  for_each_bit(open_writes_, [&](usize s) {
    const AxiB* b = subs_[s]->b.front();
    if (b == nullptr) return;
    const WriteRoute& route = write_routes_[s].front();
    AxiPort* mgr = managers_[route.manager];
    if (!mgr->b.can_push()) return;
    mgr->b.push(*b);
    subs_[s]->b.pop();
    RVCAP_TRACE(trace_sink(), obs::EventKind::kAxiWrite, trace_src(),
                sim_now(), route.addr, route.beats,
                sim_now() - route.start + 1);
    write_routes_[s].pop_front();
    if (write_routes_[s].empty()) open_writes_ &= ~(u64{1} << s);
    progress = true;
  });
  return progress;
}

bool AxiCrossbar::drain_error_reads() {
  bool progress = false;
  for_each_bit(owed_errors_, [&](usize m) {
    if (pending_error_b_[m] > 0 && managers_[m]->b.can_push()) {
      managers_[m]->b.push(AxiB{Resp::kDecErr});
      --pending_error_b_[m];
      progress = true;
    }
    if (!error_reads_[m].empty() && managers_[m]->r.can_push()) {
      ErrorRead& er = error_reads_[m].front();
      managers_[m]->r.push(AxiR{0, Resp::kDecErr, er.beats_left == 1});
      progress = true;
      if (--er.beats_left == 0) error_reads_[m].pop_front();
    }
    if (pending_error_b_[m] == 0 && error_reads_[m].empty()) {
      owed_errors_ &= ~(u64{1} << m);
    }
  });
  return progress;
}

void AxiCrossbar::trace_timed_call(obs::EventKind kind, Addr addr,
                                   Cycles start) {
  RVCAP_TRACE(trace_sink(), kind, trace_src(), sim_now(), addr, 1,
              sim_now() + 1 - start);
}

bool AxiCrossbar::busy() const {
  // A burst whose beats have all moved is not busy here: its beats are
  // queued downstream and its write route stays open until the B.
  if ((open_reads_ | open_writes_ | owed_errors_) != 0) return true;
  if (any_bit(bursts_, [this](usize m) {
        return active_writes_[m]->beats_left > 0;
      })) {
    return true;
  }
  for (const AxiPort* m : managers_) {
    if (m->has_request()) return true;
  }
  return false;
}

}  // namespace rvcap::axi
