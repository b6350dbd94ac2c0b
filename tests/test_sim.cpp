#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"

#include "sim/fifo.hpp"
#include "sim/simulator.hpp"

namespace rvcap::sim {
namespace {

TEST(Fifo, PushPopOrder) {
  Fifo<int> f(4);
  EXPECT_TRUE(f.push(1));
  EXPECT_TRUE(f.push(2));
  EXPECT_TRUE(f.push(3));
  EXPECT_EQ(*f.pop(), 1);
  EXPECT_EQ(*f.pop(), 2);
  EXPECT_EQ(*f.pop(), 3);
  EXPECT_FALSE(f.pop().has_value());
}

TEST(Fifo, RespectsCapacity) {
  Fifo<int> f(2);
  EXPECT_TRUE(f.push(1));
  EXPECT_TRUE(f.push(2));
  EXPECT_FALSE(f.push(3));  // full: back-pressure
  EXPECT_TRUE(f.full());
  f.pop();
  EXPECT_TRUE(f.push(3));
}

TEST(Fifo, VacancyTracksOccupancy) {
  Fifo<int> f(8);
  EXPECT_EQ(f.vacancy(), 8u);
  f.push(1);
  f.push(2);
  EXPECT_EQ(f.vacancy(), 6u);
  EXPECT_EQ(f.size(), 2u);
}

TEST(Fifo, FrontPeeksWithoutConsuming) {
  Fifo<int> f(2);
  EXPECT_EQ(f.front(), nullptr);
  f.push(42);
  ASSERT_NE(f.front(), nullptr);
  EXPECT_EQ(*f.front(), 42);
  EXPECT_EQ(f.size(), 1u);
}

TEST(Fifo, LifetimeCounters) {
  Fifo<int> f(4);
  for (int i = 0; i < 3; ++i) f.push(i);
  f.pop();
  EXPECT_EQ(f.total_pushed(), 3u);
  EXPECT_EQ(f.total_pushed() - f.size(), 1u);  // one popped
}

TEST(Fifo, ClearEmpties) {
  Fifo<int> f(4);
  f.push(1);
  f.push(2);
  f.clear();
  EXPECT_TRUE(f.empty());
}

class Counter : public Component {
 public:
  Counter() : Component("counter") {}
  bool tick() override {
    ++count;
    return true;  // free-running: never sleeps, as under the flat loop
  }
  bool busy() const override { return count < target; }
  u64 count = 0;
  u64 target = 0;
};

TEST(Simulator, TicksComponentsOncePerCycle) {
  Simulator s;
  Counter a, b;
  s.add(&a);
  s.add(&b);
  s.run_cycles(10);
  EXPECT_EQ(s.now(), 10u);
  EXPECT_EQ(a.count, 10u);
  EXPECT_EQ(b.count, 10u);
}

TEST(Simulator, RunUntilPredicate) {
  Simulator s;
  Counter a;
  s.add(&a);
  EXPECT_TRUE(s.run_until([&] { return a.count >= 7; }, 100));
  EXPECT_EQ(a.count, 7u);
}

TEST(Simulator, RunUntilWatchdogExpires) {
  Simulator s;
  Counter a;
  s.add(&a);
  EXPECT_FALSE(s.run_until([] { return false; }, 50));
  EXPECT_EQ(s.now(), 50u);
}

TEST(Simulator, RunUntilIdleUsesBusyFlags) {
  Simulator s;
  Counter a;
  a.target = 25;
  s.add(&a);
  EXPECT_TRUE(s.run_until_idle(1000));
  EXPECT_GE(a.count, 25u);
}

TEST(Simulator, TimeAdvancesMonotonically) {
  Simulator s;
  const Cycles t0 = s.now();
  s.step();
  EXPECT_EQ(s.now(), t0 + 1);
  s.run_cycles(0);
  EXPECT_EQ(s.now(), t0 + 1);
}

// ---------------------------------------------------------------------
// Activity-scheduled kernel (DESIGN.md §9)
// ---------------------------------------------------------------------

// Fires one value into the FIFO at cycle `at`, sleeping on the time
// wheel until then; quiescent forever after.
class PulseProducer : public Component {
 public:
  PulseProducer(Fifo<int>& out, Cycles at)
      : Component("producer"), out_(out), at_(at) {}
  bool tick() override {
    if (sim_now() == at_) {
      out_.push(static_cast<int>(sim_now()));
      return true;
    }
    if (sim_now() < at_) wake_at(at_);
    return false;
  }

 private:
  Fifo<int>& out_;
  Cycles at_;
};

// Pops whenever data is present, recording the cycle of each pop;
// sleeps on empty (woken by the FIFO's push notification).
class SleepyConsumer : public Component {
 public:
  explicit SleepyConsumer(Fifo<int>& in) : Component("consumer"), in_(in) {
    in_.watch_as_consumer(this);
  }
  bool tick() override {
    if (in_.pop().has_value()) {
      popped_at.push_back(sim_now());
      return true;
    }
    return false;
  }
  std::vector<Cycles> popped_at;

 private:
  Fifo<int>& in_;
};

TEST(ScheduledKernel, FifoWakeDeliversSameCycleAsFlat) {
  // The producer (earlier tick slot) pushes at cycle 25; under the flat
  // loop the consumer, ticking later the same cycle, pops at 25. The
  // scheduled kernel must reproduce that cycle stamp even though the
  // consumer slept from cycle 1 and the clock jumped over cycles 1..24.
  for (const auto mode : {Simulator::Mode::kFlat, Simulator::Mode::kScheduled}) {
    Simulator s(mode);
    Fifo<int> link(4);
    PulseProducer p(link, 25);
    SleepyConsumer c(link);
    s.add(&p);
    s.add(&c);
    s.run_cycles(100);
    ASSERT_EQ(c.popped_at.size(), 1u) << "mode " << static_cast<int>(mode);
    EXPECT_EQ(c.popped_at[0], 25u) << "mode " << static_cast<int>(mode);
    EXPECT_EQ(s.now(), 100u);
  }
}

TEST(ScheduledKernel, TimeSkipsToScheduledWake) {
  Simulator s;
  Fifo<int> link(4);
  PulseProducer p(link, 1000);
  SleepyConsumer c(link);
  s.add(&p);
  s.add(&c);
  s.run_cycles(5000);
  ASSERT_EQ(c.popped_at.size(), 1u);
  EXPECT_EQ(c.popped_at[0], 1000u);
  const SimStats st = s.stats();
  // Two jumps: to the wake at 1000, then to the end of the window.
  EXPECT_GE(st.time_skip_jumps, 2u);
  EXPECT_GT(st.cycles_skipped, 4900u);
  // Only a handful of real ticks were needed out of 2 * 5000.
  EXPECT_LT(st.ticks_issued, 20u);
  EXPECT_EQ(st.ticks_issued + st.ticks_skipped, 2u * 5000u);
}

TEST(ScheduledKernel, SleepForeverComponentLetsIdleTerminate) {
  // A component that never reports progress and is never busy: the
  // design quiesces immediately and stays quiescent.
  class Dead : public Component {
   public:
    Dead() : Component("dead") {}
    bool tick() override {
      ++ticks;
      return false;
    }
    u64 ticks = 0;
  };
  Simulator s;
  Dead d;
  s.add(&d);
  EXPECT_TRUE(s.run_until_idle(100));
  s.run_cycles(1000);
  EXPECT_LE(d.ticks, 1u);  // at most its initial activation tick
  EXPECT_GE(s.stats().cycles_skipped, 999u);
}

TEST(ScheduledKernel, WakeupCounterTracksSleepTransitions) {
  Simulator s;
  Fifo<int> link(4);
  SleepyConsumer c(link);
  s.add(&c);
  s.run_cycles(3);  // consumer goes to sleep after its first tick
  const u64 before = s.stats().wakeups;
  link.push(7);  // host-side push: wakes the sleeping consumer
  s.run_cycles(3);
  // One wake from the push. Only the push wakes the consumer: a
  // consumer is not woken by pops.
  EXPECT_EQ(s.stats().wakeups, before + 1);
  ASSERT_EQ(c.popped_at.size(), 1u);
}

TEST(ScheduledKernel, RunUntilNeverJumpsTime) {
  // run_until predicates may be time-dependent, so the scheduled
  // kernel must evaluate them at every cycle boundary even with an
  // empty active set — and the watchdog budget is anchored at entry.
  Simulator s;
  u64 calls = 0;
  EXPECT_FALSE(s.run_until([&] {
    ++calls;
    return false;
  }, 50));
  EXPECT_EQ(s.now(), 50u);
  EXPECT_EQ(calls, 51u);  // entry check + one per cycle
  // An initially-true predicate consumes none of the budget.
  EXPECT_TRUE(s.run_until([] { return true; }, 0));
  EXPECT_EQ(s.now(), 50u);
}

TEST(ScheduledKernel, RunUntilEventJumpsToTheEventCycle) {
  // A FIFO-reading predicate fires at the same cycle in both kernels
  // and under run_until(); the scheduled kernel covers the wait with
  // jumps instead of stepping it, and evaluates the predicate only
  // after the kernel acted.
  for (const auto mode : {Simulator::Mode::kFlat, Simulator::Mode::kScheduled}) {
    Simulator s(mode);
    Fifo<int> link(4);
    PulseProducer p(link, 1000);
    s.add(&p);
    u64 calls = 0;
    EXPECT_TRUE(s.run_until_event([&] {
      ++calls;
      return link.can_pop();
    }, 5000));
    EXPECT_EQ(s.now(), 1001u);  // the push lands in cycle 1000's ticks
    if (mode == Simulator::Mode::kScheduled) {
      EXPECT_LT(calls, 10u);
      EXPECT_GE(s.stats().time_skip_jumps, 1u);
      EXPECT_GE(s.stats().cycles_skipped, 990u);
    } else {
      EXPECT_EQ(calls, 1002u);  // entry check + one per cycle
    }
  }
}

TEST(ScheduledKernel, RunUntilEventWatchdogLandsOnTheBudgetEnd) {
  // Nothing can ever satisfy the predicate: the scheduled kernel jumps
  // straight to the budget end, where run_until() would have stepped.
  Simulator s;
  Fifo<int> link(4);
  PulseProducer p(link, 1'000'000);  // due after the budget
  s.add(&p);
  EXPECT_FALSE(s.run_until_event([&] { return link.can_pop(); }, 5000));
  EXPECT_EQ(s.now(), 5000u);
  EXPECT_LE(s.stats().ticks_issued, 2u);
  // An initially-true predicate consumes none of the budget.
  EXPECT_TRUE(s.run_until_event([] { return true; }, 0));
  EXPECT_EQ(s.now(), 5000u);
}

TEST(ScheduledKernel, ModeSwitchReactivatesSleepers) {
  Simulator s;
  Fifo<int> link(4);
  SleepyConsumer c(link);
  s.add(&c);
  s.run_cycles(10);  // consumer asleep, clock skipping
  const u64 issued_before = s.stats().ticks_issued;
  s.set_mode(Simulator::Mode::kFlat);
  s.run_cycles(10);
  // Flat mode ticks it every cycle again.
  EXPECT_EQ(s.stats().ticks_issued, issued_before + 10);
}

TEST(ScheduledKernel, FlatModeIssuesEveryTick) {
  Simulator s(Simulator::Mode::kFlat);
  Counter a, b;
  s.add(&a);
  s.add(&b);
  s.run_cycles(100);
  const SimStats st = s.stats();
  EXPECT_EQ(st.ticks_issued, 200u);
  EXPECT_EQ(st.ticks_skipped, 0u);
  EXPECT_EQ(st.time_skip_jumps, 0u);
}

// ---------------------------------------------------------------------
// Directional wakes, dropped self-wakes and deadlines (DESIGN.md §9)
// ---------------------------------------------------------------------

// Never progresses on its own; counts the ticks its wakes cause.
class TickCounter : public Component {
 public:
  TickCounter() : Component("tick_counter") {}
  bool tick() override {
    ++ticks;
    return false;
  }
  u64 ticks = 0;
};

TEST(DirectionalWakes, ProducerWokenOnlyByThePopReachingItsNeed) {
  Simulator s;
  Fifo<int> f(4);
  TickCounter producer;
  f.watch_as_producer(&producer, 2);
  s.add(&producer);
  for (int i = 0; i < 4; ++i) f.push(i);  // pushes never wake a producer
  s.run_cycles(3);
  ASSERT_EQ(producer.ticks, 1u);  // its initial activation only
  const u64 expect_after_pop[] = {1, 2, 2, 2};  // vacancy 1, 2, 3, 4
  for (const u64 expect : expect_after_pop) {
    f.pop();
    s.run_cycles(2);
    EXPECT_EQ(producer.ticks, expect) << "vacancy " << f.vacancy();
  }
}

// ---------------------------------------------------------------------
// Stamped channels (DESIGN.md §9, "Burst-granular memory path")
// ---------------------------------------------------------------------

struct Beat {
  u64 data = 0;
  u8 tag = 0;  // a side field: beats with different tags share no span
  bool last = false;
  Cycles at = 0;

  bool operator==(const Beat&) const = default;
};

TEST(StampedChannel, BeatIsVisibleAndWakesItsConsumerAtItsStamp) {
  Simulator s;
  Fifo<Beat> f(4);
  TickCounter producer, consumer;  // the consumer ticks second
  f.watch_as_producer(&producer);
  f.watch_as_consumer(&consumer);
  s.add(&producer);
  s.add(&consumer);
  s.run_cycles(3);
  ASSERT_EQ(consumer.ticks, 1u);
  f.push_at(Beat{7}, 10);
  EXPECT_EQ(f.peek()->at, 10u);  // the consumer ticks later in a cycle
  s.run_cycles(7);               // now 10
  EXPECT_EQ(consumer.ticks, 1u);
  EXPECT_TRUE(f.can_pop());
  s.run_cycles(1);  // woken for cycle 10, not before
  EXPECT_EQ(consumer.ticks, 2u);
  f.push(Beat{8});  // a plain push is visible in its own cycle
  EXPECT_EQ(f.pop()->data, 7u);
  EXPECT_EQ(f.pop()->data, 8u);
}

TEST(StampedChannel, SlotTakenEarlyStaysOccupiedUntilItsRelease) {
  Simulator s;
  Fifo<Beat> f(2);
  TickCounter producer, consumer;
  f.watch_as_producer(&producer);
  f.watch_as_consumer(&consumer);
  s.add(&producer);
  s.add(&consumer);
  s.run_cycles(3);
  f.push(Beat{1});
  f.push(Beat{2});
  ASSERT_FALSE(f.can_push());
  f.pop_at(8);  // taken at cycle 8: the producer, ticking first, sees it at 9
  EXPECT_FALSE(f.can_push_at(8));
  EXPECT_TRUE(f.can_push_at(9));
  s.run_cycles(5);  // now 8
  EXPECT_FALSE(f.can_push());
  EXPECT_EQ(producer.ticks, 1u);
  s.run_cycles(1);  // now 9
  EXPECT_TRUE(f.can_push());
  EXPECT_EQ(f.vacancy(), 1u);
  s.run_cycles(1);  // woken at the release
  EXPECT_EQ(producer.ticks, 2u);
}

TEST(StampedChannel, MoveFromTakesOneBeatPerCycleAndStopsAfterLast) {
  Simulator s;
  Fifo<Beat> in(4), out(4);
  TickCounter a, b, c;
  in.watch_as_producer(&a);
  in.watch_as_consumer(&b);
  out.watch_as_producer(&b);
  out.watch_as_consumer(&c);
  s.add(&a);
  s.add(&b);
  s.add(&c);
  s.run_cycles(3);
  in.push(Beat{1});
  in.push(Beat{2, 0, true});
  in.push(Beat{3});
  Cycles cyc = 3;
  EXPECT_EQ(out.move_from(in, cyc, 4), 2u);  // one burst
  EXPECT_EQ(cyc, 5u);
  EXPECT_EQ(out.peek()->at, 3u);
  EXPECT_EQ(in.size(), 1u);
  EXPECT_EQ(in.vacancy(), 2u);  // beat 2's slot frees at 5
  EXPECT_EQ(out.pop()->data, 1u);
  EXPECT_FALSE(out.can_pop());  // beat 2 moves at cycle 4
  s.run_cycles(1);
  EXPECT_EQ(out.pop()->data, 2u);
}

// ---------------------------------------------------------------------
// Stamped-channel fuzz: the FIFO against a per-beat reference model
// ---------------------------------------------------------------------

/// The per-beat stamped channel the span FIFO must reproduce: one stamp
/// per queued beat and one release cycle per beat taken ahead of the
/// clock, with no wakes. `skew` is the endpoint skew the FIFO binds.
class RefChannel {
 public:
  RefChannel(usize cap, Cycles skew, const Simulator& s)
      : cap_(cap), skew_(skew), sim_(s) {}

  Cycles now() const { return sim_.now(); }
  usize size() const { return q_.size(); }
  bool can_pop() const { return !q_.empty() && q_.front().at <= now(); }
  const Beat& head() const { return q_.front(); }
  usize pending_after(Cycles c) const {
    return static_cast<usize>(std::count_if(
        rel_.begin(), rel_.end(), [c](Cycles r) { return r > c; }));
  }
  /// Free slots at cycle c >= now if nothing is pushed or taken first.
  usize vacancy_at(Cycles c) const {
    const usize held = q_.size() + pending_after(c);
    return held < cap_ ? cap_ - held : 0;
  }
  usize vacancy() const { return vacancy_at(now()); }
  /// Beats in the FIFO at cycle c: queued ones pushed by then, and
  /// those taken ahead of the clock that were pushed by c and whose
  /// slot has not freed.
  usize occupancy(Cycles c) const {
    usize n = 0;
    for (const Beat& b : q_) n += b.at - skew_ <= c;
    for (const auto& [pushed, freed] : taken_) n += pushed <= c && c < freed;
    return n;
  }
  bool can_push_at(Cycles c) const {
    return q_.size() + pending_after(c) < cap_;
  }
  /// The beat moved at cycle max(p, now), if there is room then.
  bool push_at(Beat v, Cycles p) {
    p = std::max(p, now());
    if (!can_push_at(p)) return false;
    v.at = p + skew_;
    q_.push_back(v);
    return true;
  }
  /// The head, taken at cycle q: its slot frees when the producer
  /// could see it free.
  Beat pop_at(Cycles q) {
    Beat v = q_.front();
    q_.pop_front();
    if (q > now()) {
      rel_.push_back(q + 1 - skew_);
      taken_.emplace_back(v.at - skew_, q + 1 - skew_);
    }
    return v;
  }
  /// Beat by beat, each at max(c, its stamp) while room is sure, up to
  /// n beats, stopping after a last beat; c ends at the next beat's
  /// cycle. `left` collects the cycle each beat leaves `in`.
  usize move_from(RefChannel& in, Cycles& c, usize n,
                  std::vector<Cycles>& left) {
    usize moved = 0;
    while (moved < n && !in.q_.empty()) {
      c = std::max(c, in.q_.front().at);
      if (!can_push_at(c)) break;
      const Beat v = in.pop_at(c);
      left.push_back(c);
      ++moved;
      push_at(v, c);
      ++c;
      if (v.last) break;
    }
    return moved;
  }

 private:
  usize cap_;
  Cycles skew_;
  const Simulator& sim_;
  std::deque<Beat> q_;
  std::vector<Cycles> rel_;
  std::vector<std::pair<Cycles, Cycles>> taken_;  // push and free cycles
};


/// Take up to n beats of one burst, beat k at max(its stamp, previous
/// + gap), the first no earlier than c.
std::vector<Beat> take_beats(Fifo<Beat>& f, Cycles& c, Cycles gap, usize n) {
  std::vector<Beat> out;
  f.take(c, gap, n, [&](std::span<const u64> words, const Beat& side) {
    for (const u64 d : words) out.push_back(Beat{d, side.tag});
  });
  return out;
}

// Never progresses on its own; records the cycles its wakes tick it in.
class WakeRecorder : public Component {
 public:
  WakeRecorder() : Component("wake_recorder") {}
  bool tick() override {
    ticks.insert(sim_now());
    return false;
  }
  std::set<Cycles> ticks;
};

struct FuzzChannel {
  Fifo<Beat>& fifo;
  RefChannel ref;
  const WakeRecorder& producer;  // watching with `need`
  usize need = 1;
  Cycles next_leave = 0;  // a beat leaves at most once per cycle
  Cycles last_stamp = 0;
  Cycles settled = 0;         // last cycle the reference state changed
  std::vector<Cycles> due{};  // cycles the producer must tick in
};

/// The reference's vacancy reached the producer's need at cycle c
/// (from below): the producer must tick then.
void expect_room_wake(FuzzChannel& ch, usize before, usize after, Cycles c) {
  if (before < ch.need && ch.need <= after) ch.due.push_back(c);
}

/// Log the room wakes the releases due in (settled, now] raise, and
/// check every due wake whose cycle has run.
void check_room_wakes(FuzzChannel& ch) {
  const Cycles t = ch.ref.now();
  for (Cycles c = ch.settled + 1; c <= t; ++c) {
    expect_room_wake(ch, ch.ref.vacancy_at(c - 1), ch.ref.vacancy_at(c), c);
  }
  ch.settled = t;
  std::erase_if(ch.due, [&](Cycles c) {
    if (c >= t) return false;
    EXPECT_TRUE(ch.producer.ticks.contains(c))
        << "producer needing " << ch.need << " not woken at cycle " << c;
    return true;
  });
}

void expect_same(const FuzzChannel& ch, usize cap) {
  const Cycles t = ch.ref.now();
  ASSERT_EQ(ch.fifo.size(), ch.ref.size()) << "at cycle " << t;
  ASSERT_EQ(ch.fifo.vacancy(), ch.ref.vacancy()) << "at cycle " << t;
  ASSERT_LE(ch.fifo.vacancy(), ch.fifo.capacity()) << "at cycle " << t;
  ASSERT_EQ(ch.fifo.can_pop(), ch.ref.can_pop()) << "at cycle " << t;
  for (Cycles d = 0; d < 6; ++d) {
    ASSERT_LE(ch.ref.occupancy(t + d), cap) << "at cycle " << t + d;
    ASSERT_EQ(ch.fifo.can_push_at(t + d), ch.ref.can_push_at(t + d))
        << "push at cycle " << t + d << ", now " << t;
  }
  if (ch.ref.size() != 0) {
    ASSERT_EQ(*ch.fifo.peek(), ch.ref.head()) << "at cycle " << t;
  }
}

/// A beat leaving `ch` at cycle c: one per cycle, stamps in order, the
/// same beat as the reference's.
void expect_leaves(FuzzChannel& ch, const Beat& got, const Beat& want,
                   Cycles c) {
  EXPECT_EQ(got, want);
  EXPECT_GE(c, ch.next_leave) << "two beats left in one cycle";
  EXPECT_GE(got.at, ch.last_stamp) << "stamps went backwards";
  ch.next_leave = c + 1;
  ch.last_stamp = got.at;
}

void fuzz_stamped_channels(u64 seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  SplitMix64 rng(seed);
  const usize cap1 = 1 + rng.next_below(8);
  const usize cap2 = 1 + rng.next_below(8);
  // The producers' needs come from their own stream, so the channel
  // traffic each seed draws does not depend on them.
  SplitMix64 need_rng(~seed);
  const usize need1 = 1 + need_rng.next_below(cap1);
  const usize need2 = 1 + need_rng.next_below(cap2);
  Simulator s;
  Fifo<Beat> f1(cap1), f2(cap2);
  WakeRecorder a, b;  // a -> f1 -> b -> f2 -> c (or the test)
  TickCounter c;
  f1.watch_as_producer(&a, static_cast<u32>(need1));
  f1.watch_as_consumer(&b);
  f2.watch_as_producer(&b, static_cast<u32>(need2));
  const bool c_ticks = rng.next_below(2) == 0;
  if (c_ticks) f2.watch_as_consumer(&c);
  std::vector<Component*> order{&a, &b, &c};
  for (usize i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  for (Component* x : order) s.add(x);
  const Cycles skew1 = b.slot() > a.slot() ? 0 : 1;
  const Cycles skew2 = !c_ticks ? 1 : c.slot() > b.slot() ? 0 : 1;
  FuzzChannel ch1{f1, RefChannel(cap1, skew1, s), a, need1};
  FuzzChannel ch2{f2, RefChannel(cap2, skew2, s), b, need2};
  u64 data = 0;
  usize burst_left = 0;  // beats left in a's current burst
  Cycles next_push = 0;  // a pushes in cycle order
  const auto next_beat = [&](u8 tag) {
    if (burst_left == 0) burst_left = 1 + rng.next_below(6);
    return Beat{++data, tag, --burst_left == 0};
  };
  for (int step = 0; step < 600; ++step) {
    s.run_cycles(rng.next_below(3));
    const Cycles t = s.now();
    check_room_wakes(ch1);
    check_room_wakes(ch2);
    const usize vac1 = ch1.ref.vacancy();
    const usize vac2 = ch2.ref.vacancy();
    switch (rng.next_below(8)) {
      case 0: {  // a per-beat push
        const Beat v = next_beat(static_cast<u8>(rng.next_below(2)));
        const Cycles p = std::max(t, next_push) + rng.next_below(3);
        const bool pushed = ch1.ref.push_at(v, p);
        ASSERT_EQ(f1.push_at(v, p), pushed);
        if (pushed) {
          next_push = p;
        } else {  // the beat is offered again
          --data;
          ++burst_left;
        }
        break;
      }
      case 1: {  // a burst push: n beats, one every `stride` cycles
        const Cycles p = std::max(t, next_push) + rng.next_below(3);
        const Cycles stride = rng.next_below(3);
        const u8 tag = static_cast<u8>(rng.next_below(2));
        std::vector<Beat> beats;
        for (usize n = 1 + rng.next_below(6); n > 0; --n) {
          beats.push_back(next_beat(tag));
          if (beats.back().last) break;
        }
        usize want = 0;
        while (want < beats.size() &&
               ch1.ref.push_at(beats[want], p + want * stride)) {
          ++want;
        }
        ASSERT_EQ(f1.push_beats(p, stride, beats), want);
        if (want > 0) next_push = p + (want - 1) * stride;
        data -= beats.size() - want;  // unpushed beats are offered again
        if (want < beats.size()) burst_left += beats.size() - want;
        break;
      }
      case 2:
      case 3: {  // a per-beat pop at now, or a pop_at ahead of the clock
        FuzzChannel& ch = rng.next_below(2) == 0 ? ch1 : ch2;
        if (ch.ref.size() == 0) break;
        if (rng.next_below(2) == 0) {
          if (!ch.ref.can_pop() || t < ch.next_leave) break;
          const Beat want = ch.ref.pop_at(t);
          const auto got = ch.fifo.pop();
          ASSERT_TRUE(got.has_value());
          expect_leaves(ch, *got, want, t);
        } else {
          const Cycles q = std::max({t, ch.ref.head().at, ch.next_leave}) +
                           rng.next_below(3);
          const Beat got = *ch.fifo.peek();
          ch.fifo.pop_at(q);
          expect_leaves(ch, got, ch.ref.pop_at(q), q);
        }
        break;
      }
      case 4:
      case 5: {  // b moves up to n beats of a burst from f1 to f2
        Cycles c_fifo = std::max(t, ch1.next_leave) + rng.next_below(2);
        Cycles c_ref = c_fifo;
        const usize n = 1 + rng.next_below(8);
        std::vector<Cycles> left;
        const usize want = ch2.ref.move_from(ch1.ref, c_ref, n, left);
        ASSERT_EQ(f2.move_from(f1, c_fifo, n), want);
        ASSERT_EQ(c_fifo, c_ref);
        for (const Cycles l : left) {
          EXPECT_GE(l, ch1.next_leave) << "two beats left f1 in one cycle";
          ch1.next_leave = l + 1;
        }
        break;
      }
      default: {  // the consumer of f2 takes a run of beats, gap apart
        if (ch2.ref.size() == 0) break;
        const Cycles gap = 1 + rng.next_below(2);
        const usize n = 1 + rng.next_below(8);
        Cycles c_ref = std::max(t, ch2.next_leave);
        Cycles c_fifo = c_ref;
        std::vector<Beat> want;
        for (usize k = 0; k < n && ch2.ref.size() != 0; ++k) {
          c_ref = std::max(c_ref, ch2.ref.head().at);
          want.push_back(ch2.ref.pop_at(c_ref));
          c_ref += gap;
          if (want.back().last) break;
        }
        const std::vector<Beat> got = take_beats(f2, c_fifo, gap, n);
        ASSERT_EQ(got.size(), want.size());
        for (usize k = 0; k < got.size(); ++k) {
          EXPECT_EQ(got[k].data, want[k].data);
          EXPECT_EQ(got[k].tag, want[k].tag);
        }
        ASSERT_EQ(c_fifo, c_ref);
        ch2.next_leave = c_ref - gap + 1;
        break;
      }
    }
    // A take at now that frees slots wakes the producer at once.
    expect_room_wake(ch1, vac1, ch1.ref.vacancy(), t);
    expect_room_wake(ch2, vac2, ch2.ref.vacancy(), t);
    expect_same(ch1, cap1);
    expect_same(ch2, cap2);
    if (testing::Test::HasFatalFailure()) return;
  }
  // Let every release still pending happen, and check its wake.
  s.run_cycles(32);
  check_room_wakes(ch1);
  check_room_wakes(ch2);
}

// Seed 1 pushes a beat ahead of the clock into a slot that frees later,
// first at cycle 65: queued plus held beats exceed the capacity, and
// vacancy() read 2^64-1 there (and at ten later cycles) before it
// saturated at 0.
TEST(StampedChannelFuzz, VacancySaturatesWhenHeldSlotsExceedCapacity) {
  fuzz_stamped_channels(1);
}

TEST(StampedChannelFuzz, MatchesThePerBeatReference) {
  for (u64 seed = 1; seed <= 300; ++seed) {
    fuzz_stamped_channels(seed);
    if (testing::Test::HasFailure()) return;
  }
}

TEST(DirectionalWakes, PushWakesConsumerNotProducer) {
  // A push wakes the consumer when it makes the FIFO non-empty, never
  // the producer; a pop wakes the producer at its need, never the
  // consumer.
  Simulator s;
  Fifo<int> f(2);
  TickCounter producer, consumer;
  f.watch_as_producer(&producer);
  f.watch_as_consumer(&consumer);
  s.add(&producer);
  s.add(&consumer);
  s.run_cycles(3);  // both asleep after their initial tick
  f.push(1);
  s.run_cycles(2);
  EXPECT_EQ(consumer.ticks, 2u);
  EXPECT_EQ(producer.ticks, 1u);
  f.push(2);  // behind a queued element: can_pop() and front() unchanged
  s.run_cycles(2);
  EXPECT_EQ(consumer.ticks, 2u);
  f.pop();  // vacancy 0 -> 1: the producer's need
  s.run_cycles(2);
  EXPECT_EQ(producer.ticks, 2u);
  EXPECT_EQ(consumer.ticks, 2u);  // pops do not wake a consumer
  f.clear();  // clear wakes both sides
  s.run_cycles(2);
  EXPECT_EQ(producer.ticks, 3u);
  EXPECT_EQ(consumer.ticks, 3u);
}

TEST(ScheduledKernel, SelfWakeIsDroppedAndTrueKeepsActive) {
  class SelfWaker : public Component {
   public:
    SelfWaker() : Component("self_waker") {}
    bool tick() override {
      ++ticks;
      wake();  // dropped: the return value alone decides
      return keep_active;
    }
    bool keep_active = false;
    u64 ticks = 0;
  };
  Simulator s;
  SelfWaker c;
  s.add(&c);
  s.run_cycles(10);
  EXPECT_EQ(c.ticks, 1u);
  EXPECT_EQ(s.stats().wakeups, 0u);
  c.keep_active = true;
  c.wake();  // host-side wake: not inside its tick
  s.run_cycles(10);
  EXPECT_EQ(c.ticks, 11u);
  EXPECT_EQ(s.stats().wakeups, 1u);
}

TEST(ScheduledKernel, RunUntilIdleOnceProducerOutputDrains) {
  // A producer stalls on a full output and parks while busy; each pop
  // that reopens a slot wakes it. Its busy() reads only its own queue,
  // so the census of busy sleepers cannot go stale when the consumer
  // drains the output without waking it.
  class Producer : public Component {
   public:
    explicit Producer(Fifo<int>& out) : Component("producer"), out_(out) {
      out_.watch_as_producer(this);
    }
    bool tick() override {
      if (left > 0 && out_.can_push()) {
        out_.push(left--);
      }
      return left > 0 && out_.can_push();
    }
    bool busy() const override { return left > 0; }
    int left = 6;

   private:
    Fifo<int>& out_;
  };
  class Consumer : public Component {
   public:
    explicit Consumer(Fifo<int>& in) : Component("consumer"), in_(in) {
      in_.watch_as_consumer(this);
    }
    bool tick() override {
      // Drains at one item every other cycle, so the producer stalls.
      if (phase_ = !phase_; phase_ && in_.pop().has_value()) ++popped;
      return in_.can_pop();
    }
    bool busy() const override { return in_.can_pop(); }
    int popped = 0;

   private:
    Fifo<int>& in_;
    bool phase_ = false;
  };
  for (const auto mode : {Simulator::Mode::kFlat, Simulator::Mode::kScheduled}) {
    Simulator s(mode);
    Fifo<int> link(2);
    Producer p(link);
    Consumer c(link);
    s.add(&p);
    s.add(&c);
    EXPECT_TRUE(s.run_until_idle(1000)) << "mode " << static_cast<int>(mode);
    EXPECT_EQ(c.popped, 6) << "mode " << static_cast<int>(mode);
  }
}

TEST(ScheduledKernel, WakeAtIsNoOpUnderFlatKernel) {
  // A deadline re-armed on every tick must not pile up on the wheel
  // while the flat kernel runs: after a switch to the scheduled kernel,
  // no stale deadline may fire.
  class Armer : public Component {
   public:
    Armer() : Component("armer") {}
    bool tick() override {
      ++ticks;
      if (arm) wake_at(sim_now() + 3);
      return false;
    }
    bool arm = true;
    u64 ticks = 0;
  };
  Simulator s(Simulator::Mode::kFlat);
  Armer a;
  s.add(&a);
  s.run_cycles(10);
  EXPECT_EQ(a.ticks, 10u);
  a.arm = false;
  s.set_mode(Simulator::Mode::kScheduled);
  s.run_cycles(20);
  EXPECT_EQ(a.ticks, 11u);  // the tick set_mode's wake-all asks for
  EXPECT_EQ(s.stats().time_skip_jumps, 1u);
}

}  // namespace
}  // namespace rvcap::sim
