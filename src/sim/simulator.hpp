// Cycle-stepped simulation kernel, in two interchangeable flavours.
//
// Mode::kFlat is the original loop: tick every registered component
// every cycle, in registration order. Mode::kScheduled (the default)
// is the quiescence-aware kernel: only components in the active set
// tick; a component whose tick() reports it cannot progress is parked
// until a channel event or a deadline re-activates it, and when
// the active set empties the clock jumps straight to the next scheduled
// wake. Both kernels are cycle-for-cycle equivalent by construction —
// a skipped tick is one that would have been a no-op — and the
// kernel-equivalence test suite holds them to that (DESIGN.md §9).
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <queue>
#include <vector>

#include "common/types.hpp"
#include "obs/observability.hpp"
#include "sim/component.hpp"

namespace rvcap::sim {

/// Work-avoidance counters of the kernel (Simulator::stats()). The
/// speedup is observable here, not inferred: ticks_skipped counts the
/// component-ticks the flat loop would have executed that the
/// scheduled kernel proved unnecessary.
struct SimStats {
  u64 ticks_issued = 0;     // component ticks actually executed
  u64 ticks_skipped = 0;    // ticks avoided (sleepers + skipped cycles)
  u64 wakeups = 0;          // sleep -> active transitions
  u64 time_skip_jumps = 0;  // multi-cycle fast-forwards
  u64 cycles_skipped = 0;   // cycles no component ticked in
};

class Simulator {
 public:
  enum class Mode : u8 {
    kFlat,       // tick everything, always (reference kernel)
    kScheduled,  // activity-scheduled kernel (default)
  };

  explicit Simulator(Mode mode = Mode::kScheduled) : mode_(mode) {
    // The kernel's own work-avoidance counters live at stable indices
    // 0..4 of every registry (no SoC component registers earlier).
    obs_.counters().register_fn("sim.ticks_issued",
                                [this] { return stats_.ticks_issued; });
    obs_.counters().register_fn("sim.ticks_skipped",
                                [this] { return stats_.ticks_skipped; });
    obs_.counters().register_fn("sim.wakeups",
                                [this] { return hooks_.wakeups; });
    obs_.counters().register_fn("sim.time_skip_jumps",
                                [this] { return stats_.time_skip_jumps; });
    obs_.counters().register_fn("sim.cycles_skipped",
                                [this] { return stats_.cycles_skipped; });
  }

  /// Register a component. The simulator does NOT own components; the
  /// SoC assembly owns them and registers in dataflow order. Newly
  /// added components start active.
  void add(Component* c) {
    c->hooks_ = &hooks_;
    c->now_ptr_ = &now_;
    c->sim_ = this;
    c->slot_ = static_cast<u32>(components_.size());
    c->obs_ = &obs_;
    c->trace_sink_ = &obs_.sink();
    c->trace_src_ = obs_.sink().intern(c->name_);
    components_.push_back(c);
    hooks_.active.resize(components_.size());
    hooks_.active.set(c->slot_);
    c->on_register(obs_);
  }

  /// The per-simulation observability bundle (trace sink + counters).
  obs::Observability& obs() { return obs_; }
  const obs::Observability& obs() const { return obs_; }

  /// Current simulation time in core-clock cycles.
  Cycles now() const { return now_; }
  /// Stable pointer to the cycle counter, for trace timestamping by
  /// non-Component objects (e.g. the driver's recovery journal).
  const Cycles* now_ptr() const { return &now_; }

  Mode mode() const { return mode_; }

  /// Switch kernels mid-run. Always safe: every component is
  /// re-activated, so the scheduled kernel re-derives quiescence
  /// itself on the next step.
  void set_mode(Mode m) {
    mode_ = m;
    wake_all();
  }

  /// Advance exactly n cycles. The scheduled kernel may cover an idle
  /// stretch in one jump to the next scheduled wake, but time and
  /// component state land exactly where the flat loop would put them.
  void run_cycles(Cycles n) {
    const Cycles end = now_ + n;
    while (now_ < end) advance(end);
  }

  /// Advance until pred() is true, up to max_cycles more cycles.
  /// Returns true when the predicate fired, false on cycle budget
  /// exhaustion (a watchdog against deadlocked handshakes). The
  /// budget is anchored at entry — before the first pred() call — so
  /// an initially-true predicate consumes none of it and a false one
  /// gets exactly max_cycles, in either kernel mode. The predicate is
  /// evaluated once per cycle at the same cycle boundaries as the flat
  /// loop; the scheduled kernel never jumps time here, because pred()
  /// may be time-dependent or drive stimulus. A template, so a lambda
  /// predicate inlines into the loop instead of going through
  /// std::function every cycle.
  template <typename Pred>
  bool run_until(Pred&& pred, Cycles max_cycles = kDefaultWatchdog) {
    const Cycles end = now_ + max_cycles;
    while (!pred()) {
      if (now_ >= end) return false;
      step();
    }
    return true;
  }

  /// run_until() for a predicate that reads only state a component
  /// tick changes (channel FIFOs, the PLIC's eip): it cannot turn true
  /// while no component is active, so the scheduled kernel jumps an
  /// idle stretch to the next scheduled wake, or to the budget end,
  /// instead of stepping it. Return value, time and state are those of
  /// run_until(). The CPU's waits use this.
  template <typename Pred>
  bool run_until_event(Pred&& pred, Cycles max_cycles = kDefaultWatchdog) {
    const Cycles end = now_ + max_cycles;
    while (!pred()) {
      if (now_ >= end) return false;
      advance(end);
    }
    return true;
  }

  /// Advance until the design is quiescent, up to max_cycles.
  bool run_until_idle(Cycles max_cycles = kDefaultWatchdog) {
    return run_until([this] { return all_idle(); }, max_cycles);
  }

  /// Advance one cycle (mode-aware; never jumps time).
  void step() {
    if (mode_ == Mode::kFlat) {
      step_flat();
      return;
    }
    service_wheel();
    if (hooks_.active.none()) {
      // Tickless cycle: nothing can change, only time advances.
      stats_.ticks_skipped += components_.size();
      ++stats_.cycles_skipped;
      ++now_;
      return;
    }
    step_scheduled();
  }

  /// Whether nothing happens in the current cycle unless it is done
  /// from outside the kernel: the scheduled kernel with no component
  /// active and no deadline due at or before now.
  bool quiet() const {
    return mode_ == Mode::kScheduled && hooks_.active.none() &&
           next_wake_at() > now_;
  }

  /// In a quiet cycle, tick `c` with `serve` in place of its tick() and
  /// end the cycle: `serve` does what c's tick would do this cycle and
  /// returns whether c can progress next cycle. The tick is counted and
  /// c's wakes on itself are dropped, as in any tick; a component after
  /// c that it wakes ticks in this same cycle, one before it next
  /// cycle, as in step_scheduled(). A timed register call uses this to
  /// have a device serve it without a round trip through its port.
  template <typename Serve>
  void serve_in_place(Component& c, Serve&& serve) {
    assert(quiet());
    hooks_.ticking = &c;
    if (serve()) hooks_.active.set(c.slot_);
    step_scheduled(c.slot_ + 1, 1);
  }

  /// Quiescence check: every component's busy() is false. Each
  /// component is asked now, awake or asleep, so a busy() that changed
  /// while its component slept is read as it stands; the kernel keeps
  /// no census of busy() at park time.
  bool all_idle() const {
    for (const Component* c : components_) {
      if (c->busy()) return false;
    }
    return true;
  }

  SimStats stats() const {
    SimStats s = stats_;
    s.wakeups = hooks_.wakeups;
    return s;
  }

  static constexpr Cycles kDefaultWatchdog = 500'000'000;

 private:
  friend class Component;

  struct Wake {
    Cycles at;
    u32 slot;
    bool operator>(const Wake& o) const { return at > o.at; }
  };

  void schedule_wake(Component* c, Cycles t) {
    // The flat loop ticks everyone every cycle and never services the
    // wheel, so a deadline there would only pile up.
    if (mode_ == Mode::kFlat) return;
    if (t <= now_) {
      c->wake();
      return;
    }
    // Entries at or before now_ have been serviced, so a deadline equal
    // to the last one armed is still on the wheel.
    if (c->armed_at_ == t) return;
    c->armed_at_ = t;
    wheel_.push(Wake{t, c->slot_});
  }

  Cycles next_wake_at() const {
    return wheel_.empty() ? std::numeric_limits<Cycles>::max()
                          : wheel_.top().at;
  }

  /// One kernel step toward `end` (> now_): a cycle of ticks, or under
  /// the scheduled kernel with nothing active, a jump to the next
  /// scheduled wake capped at `end`.
  void advance(Cycles end) {
    if (mode_ == Mode::kFlat) {
      step_flat();
      return;
    }
    service_wheel();
    if (!hooks_.active.none()) {
      step_scheduled();
      return;
    }
    // Idle: nothing can change before the next wake. The wheel was
    // just serviced, so that wake lies after now_.
    const Cycles jumped = std::min(end, next_wake_at()) - now_;
    stats_.cycles_skipped += jumped;
    stats_.ticks_skipped += components_.size() * jumped;
    ++stats_.time_skip_jumps;
    now_ += jumped;
  }

  void service_wheel() {
    while (!wheel_.empty() && wheel_.top().at <= now_) {
      components_[wheel_.top().slot]->wake();
      wheel_.pop();
    }
  }

  void wake_all() {
    for (Component* c : components_) hooks_.active.set(c->slot_);
  }

  void step_flat() {
    for (Component* c : components_) {
      ++stats_.ticks_issued;
      // Keep the active set conservatively fresh so a later switch to
      // the scheduled kernel starts from a safe state. Bits are never
      // cleared in flat mode.
      if (c->tick()) hooks_.active.set(c->slot_);
    }
    ++now_;
  }

  /// One cycle of the active components from slot `from` on, after
  /// `executed` ticks already issued in it (serve_in_place()).
  void step_scheduled(u32 from = 0, u64 executed = 0) {
    auto& words = hooks_.active.words();
    u64 first = ~u64{0} << (from & 63);  // slots of the first word
    for (usize w = from >> 6; w < words.size(); ++w) {
      u64 pend = words[w] & first;
      first = ~u64{0};
      while (pend != 0) {
        const u32 bit = static_cast<u32>(std::countr_zero(pend));
        const u64 mask = u64{1} << bit;
        words[w] &= ~mask;  // consume the activation
        Component* c = components_[w * 64 + bit];
        ++executed;
        hooks_.ticking = c;  // its own wakes are dropped
        if (c->tick()) {
          // Can progress next cycle: stays active.
          words[w] |= mask;
        }
        // Wakes raised during this tick target the rest of THIS cycle
        // only for slots after the current one; slots before it run
        // next cycle — exactly the observation order of the flat loop.
        pend = (bit == 63) ? 0 : (words[w] & ~((mask << 1) - 1));
      }
    }
    hooks_.ticking = nullptr;
    stats_.ticks_issued += executed;
    stats_.ticks_skipped += components_.size() - executed;
    ++now_;
  }

  std::vector<Component*> components_;
  obs::Observability obs_;
  KernelHooks hooks_;
  std::priority_queue<Wake, std::vector<Wake>, std::greater<Wake>> wheel_;
  SimStats stats_;
  Cycles now_ = 0;
  Mode mode_;
};

}  // namespace rvcap::sim
