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
// Every endpoint that is a component watches as one of the two. The
// kernel drops the wake an endpoint raises on itself during its own
// tick.
//
// Storage is a fixed ring of `capacity` slots allocated once, so a
// push or pop never allocates. front() and back() point into the ring:
// a pointer stays valid until that element is popped (its slot can be
// reused by a later push).
//
// Stamped channels (DESIGN.md §9). An element type with a `Cycles at`
// field (axi::AxiR, axi::AxiW) makes the FIFO a stamped channel, so a
// burst can cross a stage in one event while every beat keeps its
// per-beat cycle:
//   * `at` is the first cycle the consumer may take the beat. push()
//     stamps it from the clock and the registration order of the two
//     endpoints (the same cycle when the consumer ticks after the
//     producer, the next one otherwise), so a per-beat push means what
//     it always meant; push_at(v, p) pushes a beat the producer moves
//     at a later cycle p;
//   * can_pop(), front() and pop() see only a head whose stamp has
//     come, and the consumer is woken at the head's stamp, so a
//     per-beat consumer takes a batch exactly as it took single beats.
//     peek() and pop_at(q) let a batching consumer take beats ahead of
//     time: pop_at(q) records that the slot frees at cycle q (plus the
//     endpoint skew), and until then it counts as occupied. A stage
//     between two stamped channels moves a burst with move_from();
//   * can_push_at(c) is the room a push at cycle c is guaranteed,
//     counting every queued beat as still there; a producer that wakes
//     on room is woken at the release that gives it that room.
// Other element types keep the plain FIFO: no clock, no stamps.
#pragma once

#include <algorithm>
#include <cassert>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "sim/component.hpp"

namespace rvcap::sim {

/// An element type that carries a stamp (see "Stamped channels").
template <typename T>
concept StampedBeat = requires(T& v) { v.at = Cycles{0}; };

template <typename T>
class Fifo {
  static constexpr bool kStamped = StampedBeat<T>;

 public:
  explicit Fifo(usize capacity) : ring_(capacity) {
    assert(capacity > 0);
    if constexpr (kStamped) s_.releases.resize(capacity);
  }

  bool can_push() const {
    if constexpr (kStamped) return can_push_at(now());
    return size_ < ring_.size();
  }
  /// Head present and (stamped channels) its stamp has come.
  bool can_pop() const {
    if constexpr (kStamped) {
      return size_ != 0 && ring_[head_].at <= now();
    }
    return size_ != 0;
  }
  /// Nothing queued, visible or not.
  bool empty() const { return size_ == 0; }
  bool full() const { return !can_push(); }
  /// Queued elements, visible or not.
  usize size() const { return size_; }
  usize capacity() const { return ring_.size(); }
  /// Free slots a push can use now.
  usize vacancy() const { return ring_.size() - size_ - pending_after(now()); }

  /// c pops this FIFO and decides from can_pop() and front() only:
  /// wake it on the push that makes the FIFO non-empty, and on clear.
  void watch_as_consumer(Component* c) {
    on_push_.add(c, 1);
    if constexpr (kStamped) {
      if (s_.consumer == nullptr) s_.consumer = c;
      s_.clock = nullptr;
    }
  }

  /// c pushes into this FIFO and its blocked push needs `need` free
  /// slots: wake it on the pop that raises the vacancy to exactly
  /// `need`, and on clear. A producer whose pushes vary in size calls
  /// this again when it blocks, to declare the need of that push.
  void watch_as_producer(Component* c, u32 need = 1) {
    assert(need >= 1 && need <= ring_.size());
    on_pop_.add(c, need);
    if constexpr (kStamped) {
      if (s_.producer == nullptr) s_.producer = c;
      s_.clock = nullptr;
      s_.max_need = std::max(s_.max_need, need);
      arm_room_wakes();
    }
  }

  /// Push; returns false (and drops nothing) when full.
  bool push(T v) {
    if constexpr (kStamped) {
      const Cycles t = now();
      if (!can_push_at(t)) return false;
      v.at = t + s_.skew;  // now() has bound the skew (0 while unbound)
    } else if (size_ == ring_.size()) {
      return false;
    }
    append(std::move(v));
    on_push_.notify_level(size_);
    if constexpr (kStamped) arm_if_tight();
    return true;
  }

  /// Stamped channels: push a beat the producer moves at cycle p >= now
  /// (p == now is push()). The caller checked can_push_at(p).
  bool push_at(T v, Cycles p) requires kStamped {
    if (p <= now()) return push(std::move(v));
    assert(can_push_at(p));
    v.at = p + to_consumer();
    const Cycles at = v.at;
    append(std::move(v));
    if (size_ == 1) on_push_.notify_level_at(1, at);
    arm_if_tight();
    return true;
  }

  /// Stamped channels, for a stage that pops `in` and pushes here: move
  /// up to n queued beats of one burst (stopping after a `last` beat),
  /// each at the first cycle from c on that is no earlier than its
  /// stamp and after the previous beat's, while room at that cycle is
  /// sure. Returns the beats moved; c becomes the cycle of the next
  /// beat. Equivalent to push_at(beat, c) + in.pop_at(c) per beat.
  usize move_from(Fifo& in, Cycles& c, usize n) requires kStamped {
    const Cycles t = now();
    const Cycles skew = to_consumer();
    const Cycles release_skew = 1 - in.to_consumer();
    const usize was = size_;
    Cycles first = 0;
    usize moved = 0;
    in.forget_releases(t);
    while (moved < n && in.size_ != 0) {
      T& v = in.ring_[in.head_];
      c = std::max(c, v.at);
      if (!can_push_at(c)) break;
      if (moved++ == 0) first = c;
      const bool last = v.last;
      v.at = c + skew;
      append(std::move(v));
      in.drop_head();
      if (c > t) {
        in.s_.releases[in.wrap_rel(in.s_.rel_head + in.s_.rel_size)] =
            c + release_skew;
        ++in.s_.rel_size;
      }
      ++c;
      if (last) break;
    }
    if (moved == 0) return 0;
    if (was == 0) {
      if (first == t) {
        on_push_.notify_level(1);
      } else {
        on_push_.notify_level_at(1, first + skew);
      }
    }
    if (first == t) in.on_pop_.notify_level(in.vacancy());
    arm_if_tight();
    in.arm_if_tight();
    return moved;
  }

  /// Stamped channels: whether a push at cycle c >= now finds room even
  /// if nothing queued now has left by then.
  bool can_push_at(Cycles c) const requires kStamped {
    return size_ + s_.rel_size < ring_.size() ||
           size_ + pending_after(c) < ring_.size();
  }

  /// Peek the visible head without consuming; nullptr when none.
  const T* front() const { return can_pop() ? &ring_[head_] : nullptr; }

  /// The head, visible or not; nullptr when empty.
  const T* peek() const { return empty() ? nullptr : &ring_[head_]; }

  /// Mutable tail access — fault models corrupt a just-pushed element
  /// in place (payload only; occupancy and counters are untouched, so
  /// no watcher notification is needed).
  T* back() { return empty() ? nullptr : &ring_[wrap(head_ + size_ - 1)]; }

  /// Pop the visible head; std::nullopt when none.
  std::optional<T> pop() {
    if constexpr (kStamped) {
      const Cycles t = now();
      if (size_ == 0 || ring_[head_].at > t) return std::nullopt;
      std::optional<T> v(std::move(ring_[head_]));
      drop_head();
      on_pop_.notify_level(ring_.size() - size_ - pending_after(t));
      arm_if_tight();
      // A later-stamped head wakes its consumer at its stamp.
      if (size_ != 0 && ring_[head_].at > t) {
        on_push_.notify_level_at(1, ring_[head_].at);
      }
      return v;
    }
    if (size_ == 0) return std::nullopt;
    std::optional<T> v(std::move(ring_[head_]));
    drop_head();
    on_pop_.notify_level(vacancy());
    return v;
  }

  /// Stamped channels: the consumer takes the head at cycle q, no
  /// earlier than now or the head's stamp. The slot stays occupied
  /// until the producer could see it free. Unlike pop(), this does not
  /// wake the consumer at the next head's stamp: a batching consumer
  /// arms its own retry when it stops before the queue is empty.
  void pop_at(Cycles q) requires kStamped {
    const Cycles t = now();
    assert(size_ != 0 && ring_[head_].at <= std::max(q, t));
    drop_head();
    if (q <= t) {
      on_pop_.notify_level(vacancy());
    } else {
      forget_releases(t);
      s_.releases[wrap_rel(s_.rel_head + s_.rel_size)] =
          q + (1 - to_consumer());
      ++s_.rel_size;
    }
    arm_if_tight();
  }

  void clear() {
    head_ = 0;
    size_ = 0;
    if constexpr (kStamped) s_.rel_size = 0;
    on_push_.notify();
    on_pop_.notify();
  }

  /// Lifetime push count (RmSlot reads it).
  u64 total_pushed() const { return pushed_; }
  /// Deepest occupancy ever reached (obs/ high-water counters).
  usize high_water() const { return hwm_; }

 private:
  /// Ring index of logical position i < 2 * capacity.
  usize wrap(usize i) const { return i >= ring_.size() ? i - ring_.size() : i; }
  usize wrap_rel(usize i) const {
    return i >= s_.releases.size() ? i - s_.releases.size() : i;
  }

  void append(T&& v) {
    ring_[wrap(head_ + size_)] = std::move(v);
    ++size_;
    ++pushed_;
    if (size_ > hwm_) hwm_ = size_;
  }

  void drop_head() {
    head_ = wrap(head_ + 1);
    --size_;
  }

  /// The clock (0 until the endpoints are registered).
  Cycles now() const {
    if constexpr (kStamped) {
      if (s_.clock == nullptr && !bind()) return 0;
      return *s_.clock;
    }
    return 0;
  }

  /// Cycles from a producer's push to its consumer's first chance to
  /// pop: 0 when the consumer ticks later in the cycle, else 1. An
  /// endpoint that is not a component (the CPU, a test) acts between
  /// cycles, i.e. before every component.
  Cycles to_consumer() const {
    if (s_.clock == nullptr && !bind()) return 0;
    return s_.skew;
  }

  /// Cache the clock and the endpoint skew once every endpoint is
  /// registered; false until then.
  bool bind() const {
    const Component* c = s_.consumer != nullptr ? s_.consumer : s_.producer;
    if (c == nullptr || c->clock() == nullptr ||
        (s_.producer != nullptr && s_.producer->clock() == nullptr)) {
      return false;
    }
    s_.skew = s_.consumer == nullptr                        ? 1
              : s_.producer == nullptr                      ? 0
              : s_.consumer->slot() > s_.producer->slot() ? 0
                                                            : 1;
    s_.clock = c->clock();
    return true;
  }

  /// Taken-early slots still occupied after cycle c.
  usize pending_after(Cycles c) const {
    if constexpr (kStamped) {
      usize n = 0;
      for (usize i = s_.rel_size; i > 0; --i) {
        if (s_.releases[wrap_rel(s_.rel_head + i - 1)] <= c) break;
        ++n;
      }
      return n;
    }
    (void)c;
    return 0;
  }

  /// Drop the releases that have happened by cycle t.
  void forget_releases(Cycles t) {
    while (s_.rel_size != 0 && s_.releases[s_.rel_head] <= t) {
      s_.rel_head = wrap_rel(s_.rel_head + 1);
      --s_.rel_size;
    }
  }

  /// arm_room_wakes() when some producer's need may exceed the room.
  void arm_if_tight() {
    if (s_.rel_size != 0 &&
        size_ + s_.rel_size + s_.max_need > ring_.size()) {
      arm_room_wakes();
    }
  }

  /// Wake each room-waiting producer at the release that raises the
  /// vacancy to its need.
  void arm_room_wakes() {
    forget_releases(now());
    if (s_.rel_size == 0) return;
    const usize vac = ring_.size() - size_ - s_.rel_size;
    on_pop_.for_each([&](Component* c, u32 need) {
      if (need > vac && need - vac <= s_.rel_size) {
        c->wake_at(s_.releases[wrap_rel(s_.rel_head + (need - vac - 1))]);
      }
    });
  }

  std::vector<T> ring_;
  usize head_ = 0;  // ring index of the oldest element
  usize size_ = 0;
  WakeList on_push_;  // consumers (level 1)
  WakeList on_pop_;   // producers (level = need)
  u64 pushed_ = 0;
  usize hwm_ = 0;
  // Stamped channels only (empty otherwise, so a plain FIFO keeps its
  // size): the endpoints, their clock and skew (cached by bind()), the
  // cycles at which the slots of beats taken early free up (ascending),
  // and the largest need any producer declared.
  struct Stamps {
    Component* consumer = nullptr;
    Component* producer = nullptr;
    const Cycles* clock = nullptr;
    Cycles skew = 0;
    std::vector<Cycles> releases;
    usize rel_head = 0;
    usize rel_size = 0;
    u32 max_need = 0;
  };
  struct NoStamps {};
  [[no_unique_address]] mutable std::conditional_t<kStamped, Stamps, NoStamps>
      s_;
};

}  // namespace rvcap::sim
