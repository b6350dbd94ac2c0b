// Base class for clocked hardware components, plus the activity
// contract of the quiescence-aware kernel (DESIGN.md §9).
//
// The scheduled kernel ticks a component only while it can make
// progress. The contract that makes sleeping sound:
//
//   * tick() returns true iff the component can progress next cycle
//     without a new event (a queued beat it can move, a countdown that
//     has not expired). A false return parks it; a true return that
//     turns out to be a no-op only costs one tick.
//   * Wakes the component raises on itself during its own tick are
//     dropped: the return value alone decides whether it stays active.
//   * Everything else that can let a parked component progress raises
//     a wake: the push that makes a FIFO it consumes non-empty
//     (Fifo::watch_as_consumer), the pop that reopens the vacancy its
//     blocked push needs (Fifo::watch_as_producer), a clear, a mutator
//     that calls wake(), or a deadline set with wake_at(). Each FIFO
//     endpoint watches as its consumer or its producer; there is no
//     other kind of watch.
//   * busy() reports, from current state, whether the component still
//     holds work (its own queues, input it will take). all_idle() asks
//     every component each time it is called, so busy() may read any
//     channel, even one whose other consumer pops it while this
//     component sleeps.
#pragma once

#include <cassert>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace rvcap::obs {
class Observability;
class TraceSink;
}  // namespace rvcap::obs

namespace rvcap::sim {

class Component;
class Simulator;

/// Fixed-capacity list of components to re-activate on an event.
/// Channel primitives embed one. Capacity covers the widest fan-out in
/// the SoC; overflow asserts instead of silently dropping a watcher
/// (a dropped watcher would sleep through its wake and diverge). Each
/// entry carries a level: a Fifo wakes it only when an event leaves
/// the FIFO's occupancy (push) or vacancy (pop) at exactly that level.
/// A list woken only by notify() (a mutator's watchers) needs none.
class WakeList {
 public:
  static constexpr usize kCapacity = 8;

  /// Add c; adding it again only replaces its level.
  void add(Component* c, u32 level = 0) {
    for (usize i = 0; i < count_; ++i) {
      if (watchers_[i] == c) {
        levels_[i] = level;
        return;
      }
    }
    assert(count_ < kCapacity && "WakeList overflow: raise kCapacity");
    levels_[count_] = level;
    watchers_[count_++] = c;
  }

  inline void notify() const;  // defined after Component
  /// Wake the entries whose level is exactly `level`.
  inline void notify_level(usize level) const;
  /// notify_level() as a deadline at cycle t (Component::wake_at).
  inline void notify_level_at(usize level, Cycles t) const;

  /// Call f(component, level) for every entry.
  template <typename F>
  void for_each(F&& f) const {
    for (usize i = 0; i < count_; ++i) f(watchers_[i], levels_[i]);
  }

 private:
  Component* watchers_[kCapacity] = {};
  u32 levels_[kCapacity] = {};
  usize count_ = 0;
};

/// Dense bitset over component slots — the scheduled kernel's active
/// set. Scanned word-by-word in ascending slot order so the intra-cycle
/// tick order is exactly registration order, as in the flat loop.
class ActiveSet {
 public:
  void resize(usize bits) { words_.resize((bits + 63) / 64, 0); }

  /// Set bit i; returns true when it was previously clear.
  bool set(usize i) {
    u64& w = words_[i >> 6];
    const u64 m = u64{1} << (i & 63);
    if ((w & m) != 0) return false;
    w |= m;
    return true;
  }

  bool test(usize i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  bool none() const {
    for (const u64 w : words_) {
      if (w != 0) return false;
    }
    return true;
  }

  std::vector<u64>& words() { return words_; }
  const std::vector<u64>& words() const { return words_; }

 private:
  std::vector<u64> words_;
};

/// Kernel state shared between the Simulator and every registered
/// component, so Component::wake() is a couple of inline instructions.
struct KernelHooks {
  ActiveSet active;
  u64 wakeups = 0;          // sleep -> active transitions
  const Component* ticking = nullptr;  // inside its tick (scheduled)
};

/// A clocked component. The Simulator calls tick() at most once per
/// core clock cycle, in registration order. Components communicate only
/// through Fifo channels, so the (deterministic) tick order introduces
/// at most one cycle of skew on any link — negligible at the 10^5-cycle
/// scale of the paper's measurements and fully reproducible.
class Component {
 public:
  explicit Component(std::string name) : name_(std::move(name)) {}
  virtual ~Component() = default;

  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  /// Advance one core-clock cycle. Returns whether the component can
  /// progress next cycle without a new event (see the activity
  /// contract above). The flat kernel ignores the return value; the
  /// scheduled kernel parks the component after a false return until
  /// something wakes it.
  virtual bool tick() = 0;

  /// True while the component has unfinished internal work. The
  /// simulator's run_until_idle() uses this to detect quiescence.
  /// Reads only the component's own state and the channels it
  /// consumes.
  virtual bool busy() const { return false; }

  std::string_view name() const { return name_; }

  /// Re-activate this component. If its tick turn for the current
  /// cycle has not passed yet it runs this cycle, otherwise next
  /// cycle — exactly when the flat loop would have it observe the
  /// event. No-op before registration and inside the component's own
  /// tick; waking an awake component is free.
  void wake() {
    if (hooks_ == nullptr || hooks_->ticking == this) return;
    if (!hooks_->active.set(slot_)) return;
    ++hooks_->wakeups;
  }

  /// Deadline: schedule a wake at absolute cycle t. No-op before
  /// registration and under the flat kernel (which ticks every cycle
  /// anyway); t <= now wakes immediately; re-arming the pending
  /// deadline is free. A tick that waits on a deadline re-arms it, so
  /// a switch from the flat kernel cannot lose it.
  void wake_at(Cycles t);

  /// Current simulation time, readable from inside tick(). 0 before
  /// registration with a Simulator.
  Cycles sim_now() const { return now_ptr_ != nullptr ? *now_ptr_ : 0; }

  /// Registration index: within a cycle, lower slots tick first.
  u32 slot() const { return slot_; }
  /// The simulator's cycle counter; nullptr before registration.
  const Cycles* clock() const { return now_ptr_; }

  /// Observability hook, called once from Simulator::add(). Override
  /// to register counters/histograms and cache histogram handles.
  /// Trace emission does NOT require overriding this: trace_sink() and
  /// trace_src() are wired by add() itself.
  virtual void on_register(obs::Observability& o) { (void)o; }

 protected:
  /// The simulator's event sink (nullptr before registration) and this
  /// component's interned source id — the two arguments RVCAP_TRACE
  /// call sites pass.
  obs::TraceSink* trace_sink() const { return trace_sink_; }
  u16 trace_src() const { return trace_src_; }
  obs::Observability* observability() const { return obs_; }

 private:
  friend class Simulator;

  std::string name_;
  KernelHooks* hooks_ = nullptr;    // set by Simulator::add()
  const Cycles* now_ptr_ = nullptr;
  Simulator* sim_ = nullptr;
  obs::Observability* obs_ = nullptr;
  obs::TraceSink* trace_sink_ = nullptr;
  u16 trace_src_ = 0;
  u32 slot_ = 0;
  Cycles armed_at_ = 0;  // latest deadline put on the time wheel
};

inline void WakeList::notify() const {
  for (usize i = 0; i < count_; ++i) watchers_[i]->wake();
}

inline void WakeList::notify_level(usize level) const {
  for (usize i = 0; i < count_; ++i) {
    if (levels_[i] == level) {
      watchers_[i]->wake();
    }
  }
}

inline void WakeList::notify_level_at(usize level, Cycles t) const {
  for (usize i = 0; i < count_; ++i) {
    if (levels_[i] == level) {
      watchers_[i]->wake_at(t);
    }
  }
}

}  // namespace rvcap::sim
