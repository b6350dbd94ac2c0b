// Bounded FIFO channel — the hardware-handshake primitive of the model.
//
// Every valid/ready interface in the SoC (AXI channels, AXI-Stream links,
// the ICAP input port, HWICAP's write FIFO) is modelled as a bounded
// Fifo<T>. A producer that finds the FIFO full must retry next cycle,
// which is exactly AXI back-pressure; a consumer draining at most one
// element per tick models a 1-beat-per-cycle port. Throughput therefore
// emerges from structure, not from annotated delays.
//
// The FIFO doubles as the kernel's wake source: components register via
// watch(), and every successful push, successful pop, and clear
// re-activates all watchers. A push wakes the sleeping consumer the
// cycle data arrives; a pop wakes a producer that went to sleep on
// back-pressure. Watchers include the endpoint that caused the event —
// a self-wake is harmless (its next tick either makes progress or
// returns false and re-sleeps).
//
// Storage is a fixed ring of `capacity` slots allocated once, so a
// push or pop never allocates. front() and back() point into the ring:
// a pointer stays valid until that element is popped (its slot can be
// reused by a later push).
#pragma once

#include <cassert>
#include <optional>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "sim/component.hpp"

namespace rvcap::sim {

template <typename T>
class Fifo {
 public:
  explicit Fifo(usize capacity) : ring_(capacity) { assert(capacity > 0); }

  bool can_push() const { return size_ < ring_.size(); }
  bool can_pop() const { return size_ != 0; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ >= ring_.size(); }
  usize size() const { return size_; }
  usize capacity() const { return ring_.size(); }
  usize vacancy() const { return ring_.size() - size_; }

  /// Register a component to be re-activated whenever this FIFO's
  /// state changes. Every component must watch every FIFO its tick
  /// reads OR writes (see the activity contract in component.hpp).
  void watch(Component* c) { watchers_.add(c); }

  /// Push; returns false (and drops nothing) when full.
  bool push(T v) {
    if (full()) return false;
    ring_[wrap(head_ + size_)] = std::move(v);
    ++size_;
    ++pushed_;
    if (size_ > hwm_) hwm_ = size_;
    watchers_.notify();
    return true;
  }

  /// Peek the head without consuming; nullptr when empty.
  const T* front() const { return empty() ? nullptr : &ring_[head_]; }

  /// Mutable tail access — fault models corrupt a just-pushed element
  /// in place (payload only; occupancy and counters are untouched, so
  /// no watcher notification is needed).
  T* back() { return empty() ? nullptr : &ring_[wrap(head_ + size_ - 1)]; }

  /// Pop the head; std::nullopt when empty.
  std::optional<T> pop() {
    if (empty()) return std::nullopt;
    std::optional<T> v(std::move(ring_[head_]));
    head_ = wrap(head_ + 1);
    --size_;
    ++popped_;
    watchers_.notify();
    return v;
  }

  void clear() {
    head_ = 0;
    size_ = 0;
    watchers_.notify();
  }

  /// Lifetime counters (used by tests and link probes).
  u64 total_pushed() const { return pushed_; }
  u64 total_popped() const { return popped_; }
  /// Deepest occupancy ever reached (obs/ high-water counters).
  usize high_water() const { return hwm_; }

 private:
  /// Ring index of logical position i < 2 * capacity.
  usize wrap(usize i) const { return i >= ring_.size() ? i - ring_.size() : i; }

  std::vector<T> ring_;
  usize head_ = 0;  // ring index of the oldest element
  usize size_ = 0;
  WakeList watchers_;
  u64 pushed_ = 0;
  u64 popped_ = 0;
  usize hwm_ = 0;
};

}  // namespace rvcap::sim
