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
// tick. Storage is a ring allocated once, so a push or pop never
// allocates; a plain FIFO's front() and back() point into it until that
// element is popped.
//
// Stamped channels (DESIGN.md §9). An element type with a u64 `data`,
// a `last` flag and a `Cycles at` stamp (axi::AxiR, axi::AxiW) makes
// the FIFO a stamped channel: a burst crosses a stage in one event
// while every beat keeps its per-beat cycle.
//   * `at` is the first cycle the consumer may take the beat: the cycle
//     the producer moves it plus the endpoint skew (0 when the consumer
//     ticks after the producer, else 1).
//   * A queued burst is one span: its first stamp, beat count, stamp
//     stride, payload (data ring slots), its beats' shared side fields
//     (resp, strb) and `last`. Beat k's stamp is at + k * stride. A push
//     that continues the tail span extends it.
//   * can_pop(), pop() and peek() see the head beat of the head span;
//     pop() wakes the consumer at the next head's stamp, so a per-beat
//     consumer takes a batch exactly as it took single beats. take()
//     and pop_at(q) take beats ahead of time: a beat taken at cycle q
//     keeps its slot until the producer could see it free (q + 1 -
//     skew), and releases are kept as runs too. move_from() moves a
//     span between two stamped channels in one step and splits it only
//     where the far FIFO's room runs out.
//   * can_push_at(c) is the room a push at cycle c is guaranteed,
//     counting every queued beat as still there; a producer that wakes
//     on room is woken at the release that gives it that room.
// Other element types keep the plain FIFO: no clock, no stamps.
#pragma once

#include <algorithm>
#include <cassert>
#include <concepts>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "sim/component.hpp"

namespace rvcap::sim {

/// Ring of slots; a full ring doubles on push_back (only a release
/// schedule can outgrow its FIFO).
template <typename X>
class Ring {
 public:
  explicit Ring(usize cap) : v_(cap) {}

  usize size() const { return n_; }
  bool empty() const { return n_ == 0; }
  usize capacity() const { return v_.size(); }
  X& operator[](usize i) { return v_[wrap(h_ + i)]; }
  const X& operator[](usize i) const { return v_[wrap(h_ + i)]; }
  X& back() { return (*this)[n_ - 1]; }

  void push_back(X x) {
    if (n_ == v_.size()) {
      std::vector<X> v(2 * n_);
      for (usize i = 0; i < n_; ++i) v[i] = std::move((*this)[i]);
      v_.swap(v);
      h_ = 0;
    }
    v_[wrap(h_ + n_++)] = std::move(x);
  }
  void extend(usize k) { n_ += k; }  // the caller checked the room
  void pop_front(usize k = 1) {
    h_ = wrap(h_ + k);
    n_ -= k;
  }
  void clear() { h_ = n_ = 0; }

  /// f(pointer, count) over the contiguous runs of slots [i, i + k).
  template <typename F>
  void pieces(usize i, usize k, F&& f) {
    const usize s = wrap(h_ + i);
    const usize first = std::min(k, v_.size() - s);
    if (first != 0) f(&v_[s], first);
    if (k > first) f(&v_[0], k - first);
  }

 private:
  usize wrap(usize i) const { return i >= v_.size() ? i - v_.size() : i; }

  std::vector<X> v_;
  usize h_ = 0;  // slot of the oldest element
  usize n_ = 0;
};

/// The plain FIFO.
template <typename T>
class Fifo {
 public:
  explicit Fifo(usize capacity) : ring_(capacity) { assert(capacity > 0); }

  bool can_push() const { return size() < capacity(); }
  bool can_pop() const { return !empty(); }
  bool empty() const { return ring_.empty(); }
  bool full() const { return !can_push(); }
  usize size() const { return ring_.size(); }
  usize capacity() const { return ring_.capacity(); }
  /// Free slots a push can use now.
  usize vacancy() const { return capacity() - size(); }

  /// c pops this FIFO and decides from can_pop() and front() only:
  /// wake it on the push that makes the FIFO non-empty, and on clear.
  void watch_as_consumer(Component* c) { on_push_.add(c, 1); }

  /// c pushes into this FIFO and its blocked push needs `need` free
  /// slots: wake it on the pop that raises the vacancy to exactly
  /// `need`, and on clear. A producer whose pushes vary in size calls
  /// this again when it blocks, to declare the need of that push.
  void watch_as_producer(Component* c, u32 need = 1) {
    assert(need >= 1 && need <= capacity());
    on_pop_.add(c, need);
  }

  /// Push; returns false (and drops nothing) when full.
  bool push(T v) {
    if (!can_push()) return false;
    ring_.push_back(std::move(v));
    ++pushed_;
    hwm_ = std::max(hwm_, size());
    on_push_.notify_level(size());
    return true;
  }

  /// The head without consuming it; nullptr when empty.
  const T* front() const { return empty() ? nullptr : &ring_[0]; }
  /// Mutable tail access — fault models corrupt a just-pushed element
  /// in place (payload only; occupancy and counters are untouched, so
  /// no watcher notification is needed).
  T* back() { return empty() ? nullptr : &ring_.back(); }

  /// Pop the head; std::nullopt when empty.
  std::optional<T> pop() {
    if (empty()) return std::nullopt;
    std::optional<T> v(std::move(ring_[0]));
    ring_.pop_front();
    on_pop_.notify_level(vacancy());
    return v;
  }

  void clear() {
    ring_.clear();
    on_push_.notify();
    on_pop_.notify();
  }

  /// Lifetime push count (RmSlot reads it).
  u64 total_pushed() const { return pushed_; }
  /// Deepest occupancy ever reached (obs/ high-water counters).
  usize high_water() const { return hwm_; }

 private:
  Ring<T> ring_;
  WakeList on_push_;  // consumers (level 1)
  WakeList on_pop_;   // producers (level = need)
  u64 pushed_ = 0;
  usize hwm_ = 0;
};

/// An element type that carries a stamp (see "Stamped channels"). Its
/// fields other than data, last and at are side fields, kept per span.
template <typename T>
concept StampedBeat = requires(T& v) {
  v.at = Cycles{0};
  v.data = u64{0};
  v.last = true;
  { v == v } -> std::convertible_to<bool>;
};

/// The stamped channel.
template <StampedBeat T>
class Fifo<T> {
 public:
  explicit Fifo(usize capacity)
      : data_(capacity), spans_(capacity), rels_(capacity) {
    assert(capacity > 0);
  }

  bool can_push() const { return can_push_at(now()); }
  /// Head present and its stamp has come.
  bool can_pop() const { return !empty() && spans_[0].at <= now(); }
  /// Nothing queued, visible or not.
  bool empty() const { return data_.empty(); }
  /// Queued beats, visible or not.
  usize size() const { return data_.size(); }
  usize capacity() const { return data_.capacity(); }
  /// Free slots a push can use now. A beat pushed ahead of the clock
  /// can hold a slot that frees later, so queued plus still-held beats
  /// may exceed the capacity: no room then, not a wrapped count.
  usize vacancy() const {
    const usize held = size() + pending_after(now());
    return held < capacity() ? capacity() - held : 0;
  }
  /// Whether a push at cycle c >= now finds room even if nothing queued
  /// now has left by then.
  bool can_push_at(Cycles c) const { return room(c, 0, 1) == 1; }

  /// As for the plain FIFO; the endpoints also set the stamp skew.
  void watch_as_consumer(Component* c) {
    on_push_.add(c, 1);
    if (consumer_ == nullptr) consumer_ = c;
    clock_ = nullptr;
  }
  void watch_as_producer(Component* c, u32 need = 1) {
    assert(need >= 1 && need <= capacity());
    on_pop_.add(c, need);
    if (producer_ == nullptr) producer_ = c;
    clock_ = nullptr;
    max_need_ = std::max(max_need_, need);
    arm_room_wakes();
  }

  /// Push one beat the producer moves at cycle p >= now (push(): now);
  /// false (nothing pushed) when room then is not sure.
  bool push_at(const T& v, Cycles p) { return push_beats(p, 0, {&v, 1}); }
  bool push(const T& v) { return push_at(v, now()); }

  /// Push beats of one or more bursts, beat k moved at cycle p + k *
  /// stride (p >= now), while room at their cycle is sure: a span per
  /// run of beats with equal side fields. Returns the beats pushed.
  usize push_beats(Cycles p, Cycles stride, std::span<const T> beats) {
    p = std::max(p, now());
    const usize n = room(p, stride, beats.size());
    for (usize b = 0, e = 1; e <= n; ++e) {  // the run [b, e)
      if (e < n && !beats[e - 1].last && same_side(beats[e], beats[b])) {
        continue;
      }
      append(p + b * stride, stride, e - b, beats[e - 1],
             [&](usize i) { return beats[b + i].data; });
      b = e;
    }
    if (n != 0) arm_if_tight();
    return n;
  }

  /// The head, visible or not; std::nullopt when empty.
  std::optional<T> peek() const {
    if (empty()) return std::nullopt;
    T v = spans_[0].side;
    v.data = data_[0];
    v.at = spans_[0].at;
    v.last = v.last && spans_[0].n == 1;
    return v;
  }

  /// Pop the visible head; std::nullopt when none.
  std::optional<T> pop() {
    if (!can_pop()) return std::nullopt;
    const std::optional<T> v = peek();
    Span& h = spans_[0];  // taken now: its slot frees at once
    h.at += h.stride;
    if (--h.n == 0) spans_.pop_front();
    data_.pop_front();
    on_pop_.notify_level(vacancy());
    arm_if_tight();
    // A later-stamped head wakes its consumer at its stamp.
    if (!empty() && spans_[0].at > now()) {
      on_push_.notify_level_at(1, spans_[0].at);
    }
    return v;
  }

  /// Take up to n queued beats of one burst, stopping after its last
  /// beat: the first at max(c, its stamp), each later one at max(its
  /// stamp, previous + gap); c ends one gap after the last. sink(words,
  /// side) sees the payload in order, a contiguous run at a time. Unlike
  /// pop(), this does not wake the consumer at the next head's stamp: a
  /// batching consumer arms its own retry.
  template <typename Sink>
  usize take(Cycles& c, Cycles gap, usize n, Sink&& sink) {
    return consume(c, gap, n, [&](const Piece& p) {
      data_.pieces(0, p.k, [&](const u64* d, usize len) {
        sink(std::span<const u64>(d, len), spans_[0].side);
      });
      return p.k;
    });
  }

  /// The consumer takes the head at cycle q, no earlier than now or the
  /// head's stamp.
  void pop_at(Cycles q) {
    consume(q, 0, 1, [](const Piece& p) { return p.k; });
  }

  /// For a stage that takes `in` and pushes here: move up to n queued
  /// beats of one burst (stopping after its last beat), each at the
  /// first cycle from c >= now on that is no earlier than its stamp and
  /// after the previous beat's, while room at that cycle is sure: a span
  /// at a time, split where the room runs out. Returns the beats moved;
  /// c becomes the cycle of the next beat. Equivalent to push_at(beat,
  /// c) + in.pop_at(c) per beat.
  usize move_from(Fifo& in, Cycles& c, usize n) {
    const usize moved = in.consume(c, 1, n, [&](const Piece& p) {
      const usize m = room(p.c0, p.st, p.k);
      T side = in.spans_[0].side;
      side.last = side.last && m == in.spans_[0].n;
      if (m != 0) {
        append(p.c0, p.st, m, side, [&](usize i) { return in.data_[i]; });
      }
      return m;
    });
    if (moved != 0) arm_if_tight();
    return moved;
  }

 private:
  /// Entries at, at + stride, ... (n of them).
  struct Run {
    Cycles at = 0;
    Cycles stride = 0;
    usize n = 0;
  };
  /// A queued run of beats; side.last ends a burst at its last beat.
  struct Span : Run {
    T side{};
  };
  /// A linear stretch of a take: k beats from cycle c0, st apart.
  struct Piece {
    Cycles c0;
    Cycles st;
    usize k;
  };

  static bool same_side(T a, const T& b) {
    a.data = b.data;
    a.at = b.at;
    a.last = b.last;
    return a == b;
  }

  /// Extend r by m entries from `at`, `stride` apart, if they continue it.
  static bool extend(Run& r, Cycles at, Cycles stride, usize m) {
    const Cycles step = r.n == 1 ? at - r.at : r.stride;
    if (at < r.at || at != r.at + r.n * step || (m > 1 && stride != step)) {
      return false;
    }
    r.stride = step;
    r.n += m;
    return true;
  }

  /// Queue m beats the producer moves from cycle p, `stride` apart, with
  /// v's side fields and data(i), the last one ending a burst if v.last.
  template <typename Data>
  void append(Cycles p, Cycles stride, usize m, const T& v, Data&& data) {
    if (empty()) wake_consumer(p);
    data_.extend(m);
    for (usize i = 0; i < m; ++i) data_[size() - m + i] = data(i);
    const Cycles at = p + skew();
    if (spans_.empty() || spans_.back().side.last ||
        !same_side(spans_.back().side, v) ||
        !extend(spans_.back(), at, stride, m)) {
      spans_.push_back(Span{{at, stride, m}, v});
    }
    spans_.back().side.last = v.last;
  }

  /// The loop of pop(), take() and move_from(): up to n beats of one
  /// burst from cycle c, gap apart, a linear stretch of the head span
  /// at a time. f(piece) handles the payload of the piece's beats and
  /// returns how many of them go; fewer stops the take, with c at the
  /// next beat's cycle. A beat taken by now frees its slot at once, a
  /// later one when the producer could see it free.
  template <typename F>
  usize consume(Cycles& c, Cycles gap, usize n, F&& f) {
    const Cycles t = now();
    usize taken = 0;
    usize freed = 0;
    while (taken < n && !empty()) {
      Span& h = spans_[0];
      // Beat k goes at max(c, stamp) + k * gap while the clock leads,
      // at its stamp once the stamps lead.
      Piece p{std::max(c, h.at), std::max(gap, h.stride),
              std::min(n - taken, h.n)};
      if (h.stride > gap && h.at < c) {
        p.st = gap;
        p.k = std::min<usize>(
            p.k, (c - h.at + h.stride - gap - 1) / (h.stride - gap));
      }
      const usize m = f(p);
      if (m < p.k) {
        c = p.c0 + m * p.st;
        if (m == 0) break;
      } else {
        c = p.c0 + (m - 1) * p.st + gap;
      }
      const bool last = h.side.last && m == h.n;
      const usize now_free = p.c0 > t                 ? 0
                             : p.c0 == t && p.st != 0 ? 1
                             : p.st == 0              ? m
                                 : std::min<usize>(m, (t - p.c0) / p.st + 1);
      freed += now_free;
      if (now_free < m) {
        forget_releases(t);
        const Cycles at = p.c0 + now_free * p.st + 1 - skew();
        if (rels_.empty() || !extend(rels_.back(), at, p.st, m - now_free)) {
          rels_.push_back(Run{at, p.st, m - now_free});
        }
        rel_count_ += m - now_free;
      }
      h.at += m * h.stride;
      h.n -= m;
      if (h.n == 0) spans_.pop_front();
      data_.pop_front(m);
      taken += m;
      if (last || m < p.k) break;
    }
    if (taken == 0) return 0;
    // One wake level per slot freed at once: the vacancy each raised
    // (levels below 1 offer no room, so none is notified).
    for (usize v = vacancy(), i = 0; i < freed && i < v; ++i) {
      on_pop_.notify_level(v - i);
    }
    arm_if_tight();
    return taken;
  }

  /// How many beats pushed from cycle c, one every `stride` cycles, find
  /// room sure at their cycle, counting every queued beat as still there.
  usize room(Cycles c, Cycles stride, usize n) const {
    if (size() + rel_count_ + n <= capacity()) return n;
    usize k = 0;
    while (k < n && size() + k + pending_after(c + k * stride) < capacity()) {
      ++k;
    }
    return k;
  }

  void wake_consumer(Cycles p) {
    if (p == now()) {
      on_push_.notify_level(1);
    } else {
      on_push_.notify_level_at(1, p + skew());
    }
  }

  /// The clock (0 until the endpoints are registered).
  Cycles now() const { return clock_ != nullptr || bind() ? *clock_ : 0; }

  /// Cycles from a producer's push to its consumer's first chance to
  /// pop: 0 when the consumer ticks later in the cycle, else 1. An
  /// endpoint that is not a component (the CPU, a test) acts between
  /// cycles, i.e. before every component.
  Cycles skew() const { return clock_ != nullptr || bind() ? skew_ : 0; }

  /// Cache the clock and the endpoint skew once every endpoint is
  /// registered; false until then.
  bool bind() const {
    const Component* c = consumer_ != nullptr ? consumer_ : producer_;
    if (c == nullptr || c->clock() == nullptr ||
        (producer_ != nullptr && producer_->clock() == nullptr)) {
      return false;
    }
    skew_ = consumer_ == nullptr                      ? 1
            : producer_ == nullptr                    ? 0
            : consumer_->slot() > producer_->slot() ? 0
                                                      : 1;
    clock_ = c->clock();
    return true;
  }

  /// Slots of beats taken early still occupied after cycle c.
  usize pending_after(Cycles c) const {
    usize n = 0;
    for (usize i = rels_.size(); i > 0; --i) {
      const Run& r = rels_[i - 1];
      if (r.at > c) {
        n += r.n;
      } else {
        if (r.stride != 0) {
          n += r.n - std::min<usize>(r.n, (c - r.at) / r.stride + 1);
        }
        break;
      }
    }
    return n;
  }

  /// Drop the releases that have happened by cycle t.
  void forget_releases(Cycles t) {
    while (!rels_.empty() && rels_[0].at <= t) {
      Run& r = rels_[0];
      const usize k = r.stride == 0
                          ? r.n
                          : std::min<usize>(r.n, (t - r.at) / r.stride + 1);
      rel_count_ -= k;
      r.at += k * r.stride;
      r.n -= k;
      if (r.n == 0) rels_.pop_front();
    }
  }

  /// arm_room_wakes() when some producer's need may exceed the room.
  void arm_if_tight() {
    if (rel_count_ != 0 && size() + rel_count_ + max_need_ > capacity()) {
      arm_room_wakes();
    }
  }

  /// Wake each room-waiting producer at the release that raises the
  /// vacancy to its need. Queued plus held beats may exceed the
  /// capacity, so the releases to wait for are counted from the held
  /// total.
  void arm_room_wakes() {
    forget_releases(now());
    const usize held = size() + rel_count_;
    on_pop_.for_each([&](Component* c, u32 need) {
      if (held + need <= capacity()) return;
      const usize releases = held + need - capacity();
      if (releases > rel_count_) return;
      usize i = releases - 1;  // the i-th pending release, oldest first
      usize j = 0;
      for (; i >= rels_[j].n; ++j) i -= rels_[j].n;
      c->wake_at(rels_[j].at + i * rels_[j].stride);
    });
  }

  WakeList on_push_;  // consumers (level 1)
  WakeList on_pop_;   // producers (level = need)
  Ring<u64> data_;    // payload, one slot per queued beat
  Ring<Span> spans_;
  Ring<Run> rels_;  // ascending release cycles of beats taken early
  usize rel_count_ = 0;
  Component* consumer_ = nullptr;
  Component* producer_ = nullptr;
  mutable const Cycles* clock_ = nullptr;
  mutable Cycles skew_ = 0;
  u32 max_need_ = 0;
};

}  // namespace rvcap::sim
