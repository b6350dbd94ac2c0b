// Bounded FIFO channel — the hardware-handshake primitive of the model.
//
// Every valid/ready interface in the SoC (AXI channels, AXI-Stream links,
// the ICAP input port, HWICAP's write FIFO) is modelled as a bounded
// Fifo<T>. A producer that finds the FIFO full must retry next cycle,
// which is exactly AXI back-pressure; a consumer draining at most one
// element per tick models a 1-beat-per-cycle port. Throughput therefore
// emerges from structure, not from annotated delays.
//
// The FIFO doubles as the kernel's wake source, and it wakes only the
// side that can act (DESIGN.md §9):
//   * a push wakes the consumers (watch_as_consumer) when it makes the
//     FIFO non-empty; a push behind a queued element changes neither
//     can_pop() nor front(), so it cannot unblock a consumer;
//   * a pop wakes a producer (watch_as_producer) only when it raises
//     the vacancy to exactly the producer's declared need — the pop
//     that unblocks its stalled push; earlier and later pops cannot;
//   * clear wakes everyone.
// watch() stays for components not converted to directional wakes: it
// wakes them on every push, pop and clear. The kernel drops the wake
// an endpoint raises on itself during its own tick.
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

  /// Wake c on every push, pop and clear (components not converted to
  /// directional wakes; also for a FIFO with more than one consumer,
  /// where another consumer's pop changes what c's busy() reads).
  void watch(Component* c) {
    on_push_.add(c, WakeList::kEveryEvent);
    on_pop_.add(c, WakeList::kEveryEvent);
  }

  /// c pops this FIFO and decides from can_pop() and front() only:
  /// wake it on the push that makes the FIFO non-empty, and on clear.
  void watch_as_consumer(Component* c) { on_push_.add(c, 1); }

  /// c pushes into this FIFO and its blocked push needs `need` free
  /// slots: wake it on the pop that raises the vacancy to exactly
  /// `need`, and on clear. A producer whose pushes vary in size calls
  /// this again when it blocks, to declare the need of that push.
  void watch_as_producer(Component* c, u32 need = 1) {
    assert(need >= 1 && need <= ring_.size());
    on_pop_.add(c, need);
  }

  /// Push; returns false (and drops nothing) when full.
  bool push(T v) {
    if (full()) return false;
    ring_[wrap(head_ + size_)] = std::move(v);
    ++size_;
    ++pushed_;
    if (size_ > hwm_) hwm_ = size_;
    on_push_.notify_level(size_);
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
    on_pop_.notify_level(vacancy());
    return v;
  }

  void clear() {
    head_ = 0;
    size_ = 0;
    on_push_.notify();
    on_pop_.notify();
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
  WakeList on_push_;  // consumers and watch()ers
  WakeList on_pop_;   // producers (with need) and watch()ers
  u64 pushed_ = 0;
  u64 popped_ = 0;
  usize hwm_ = 0;
};

}  // namespace rvcap::sim
