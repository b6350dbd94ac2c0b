#include <gtest/gtest.h>

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
  int v = 0;
  bool last = false;
  Cycles at = 0;
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
  EXPECT_EQ(f.pop()->v, 7);
  EXPECT_EQ(f.pop()->v, 8);
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
  in.push(Beat{2, true});
  in.push(Beat{3});
  Cycles cyc = 3;
  EXPECT_EQ(out.move_from(in, cyc, 4), 2u);  // one burst
  EXPECT_EQ(cyc, 5u);
  EXPECT_EQ(out.peek()->at, 3u);
  EXPECT_EQ(in.size(), 1u);
  EXPECT_EQ(in.vacancy(), 2u);  // beat 2's slot frees at 5
  EXPECT_EQ(out.pop()->v, 1);
  EXPECT_FALSE(out.can_pop());  // beat 2 moves at cycle 4
  s.run_cycles(1);
  EXPECT_EQ(out.pop()->v, 2);
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
