#include <gtest/gtest.h>

#include "irq/clint.hpp"
#include "irq/plic.hpp"
#include "sim/simulator.hpp"
#include "testutil.hpp"

namespace rvcap {
namespace {

using irq::Clint;
using irq::IrqLine;
using irq::Plic;

// Read a 32-bit lite register and wait for the response.
u32 lite_read(sim::Simulator& s, axi::AxiLitePort& p, Addr a) {
  EXPECT_TRUE(p.ar.push(axi::LiteAr{a}));
  EXPECT_TRUE(s.run_until([&] { return p.r.can_pop(); }, 10000));
  return p.r.pop()->data;
}

void lite_write(sim::Simulator& s, axi::AxiLitePort& p, Addr a, u32 v) {
  EXPECT_TRUE(p.aw.push(axi::LiteAw{a}));
  EXPECT_TRUE(p.w.push(axi::LiteW{v, 0xF}));
  EXPECT_TRUE(s.run_until([&] { return p.b.can_pop(); }, 10000));
  p.b.pop();
}

struct ClintFixture : ::testing::Test {
  ClintFixture() : clint("clint") { s.add(&clint); }
  sim::Simulator s;
  Clint clint;
};

TEST_F(ClintFixture, MtimeTicksAt5MHz) {
  s.run_cycles(200);  // 200 core cycles = 10 CLINT ticks
  EXPECT_EQ(clint.mtime(), 10u);
}

TEST_F(ClintFixture, MtimeQuantizationIs200ns) {
  s.run_cycles(19);
  EXPECT_EQ(clint.mtime(), 0u);  // not yet a full 5 MHz period
  s.run_cycles(1);
  EXPECT_EQ(clint.mtime(), 1u);
}

TEST_F(ClintFixture, MtimeReadableOverBus) {
  s.run_cycles(2000);
  const u32 lo = lite_read(s, clint.port(), Clint::kMtimeLo);
  EXPECT_GE(lo, 100u);
  EXPECT_EQ(lite_read(s, clint.port(), Clint::kMtimeHi), 0u);
}

TEST_F(ClintFixture, TimerInterruptFiresAtMtimecmp) {
  lite_write(s, clint.port(), Clint::kMtimecmpLo, 50);
  lite_write(s, clint.port(), Clint::kMtimecmpHi, 0);
  EXPECT_FALSE(clint.timer_irq_pending());
  s.run_cycles(50 * kCyclesPerClintTick + 1);
  EXPECT_TRUE(clint.timer_irq_pending());
}

TEST_F(ClintFixture, SoftwareInterruptViaMsip) {
  EXPECT_FALSE(clint.software_irq_pending());
  lite_write(s, clint.port(), Clint::kMsip, 1);
  EXPECT_TRUE(clint.software_irq_pending());
  lite_write(s, clint.port(), Clint::kMsip, 0);
  EXPECT_FALSE(clint.software_irq_pending());
}

struct PlicFixture : ::testing::Test {
  PlicFixture() : plic("plic", 4) { s.add(&plic); }
  sim::Simulator s;
  Plic plic;
};

TEST_F(PlicFixture, DisabledSourceDoesNotRaiseEip) {
  plic.set_source_level(1, true);
  s.run_cycles(2);
  EXPECT_FALSE(plic.eip());
}

TEST_F(PlicFixture, EnabledSourceRaisesEip) {
  lite_write(s, plic.port(), Plic::kEnableBase, 1u << 1);
  plic.set_source_level(1, true);
  s.run_cycles(2);
  EXPECT_TRUE(plic.eip());
}

TEST_F(PlicFixture, ClaimReturnsSourceAndClearsPending) {
  lite_write(s, plic.port(), Plic::kEnableBase, 1u << 2);
  plic.set_source_level(2, true);
  s.run_cycles(2);
  EXPECT_EQ(lite_read(s, plic.port(), Plic::kClaimComplete), 2u);
  // In-flight: the still-high level must not re-pend until complete.
  plic.set_source_level(2, false);
  s.run_cycles(2);
  EXPECT_FALSE(plic.eip());
}

TEST_F(PlicFixture, CompleteReArmsGateway) {
  lite_write(s, plic.port(), Plic::kEnableBase, 1u << 1);
  plic.set_source_level(1, true);
  s.run_cycles(2);
  EXPECT_EQ(lite_read(s, plic.port(), Plic::kClaimComplete), 1u);
  s.run_cycles(2);
  EXPECT_FALSE(plic.eip()) << "claimed source must stay masked";
  lite_write(s, plic.port(), Plic::kClaimComplete, 1);  // complete
  s.run_cycles(2);
  EXPECT_TRUE(plic.eip()) << "level still high: re-pend after complete";
}

TEST_F(PlicFixture, HigherPriorityWinsClaim) {
  lite_write(s, plic.port(), Plic::kEnableBase, (1u << 1) | (1u << 3));
  lite_write(s, plic.port(), Plic::kPriorityBase + 4 * 1, 1);
  lite_write(s, plic.port(), Plic::kPriorityBase + 4 * 3, 5);
  plic.set_source_level(1, true);
  plic.set_source_level(3, true);
  s.run_cycles(2);
  EXPECT_EQ(lite_read(s, plic.port(), Plic::kClaimComplete), 3u);
}

TEST_F(PlicFixture, ThresholdMasksLowPriority) {
  lite_write(s, plic.port(), Plic::kEnableBase, 1u << 1);
  lite_write(s, plic.port(), Plic::kPriorityBase + 4, 2);
  lite_write(s, plic.port(), Plic::kThreshold, 3);
  plic.set_source_level(1, true);
  s.run_cycles(2);
  EXPECT_FALSE(plic.eip());
  lite_write(s, plic.port(), Plic::kThreshold, 0);
  EXPECT_TRUE(plic.eip());
}

TEST_F(PlicFixture, PendingRegisterReflectsGateways) {
  lite_write(s, plic.port(), Plic::kEnableBase, 1u << 2);
  plic.set_source_level(2, true);
  s.run_cycles(2);
  EXPECT_EQ(lite_read(s, plic.port(), Plic::kPendingBase) & (1u << 2),
            1u << 2);
}

TEST_F(PlicFixture, IrqLineHandleDrivesSource) {
  IrqLine line(&plic, 1);
  lite_write(s, plic.port(), Plic::kEnableBase, 1u << 1);
  line.set(true);
  s.run_cycles(2);
  EXPECT_TRUE(plic.eip());
  EXPECT_TRUE(line.connected());
  EXPECT_EQ(line.source(), 1u);
  IrqLine unconnected;
  unconnected.set(true);  // must be a harmless no-op
  EXPECT_FALSE(unconnected.connected());
}


// eip() keeps a cached best-pending source; this drives a seeded mix of
// level changes, enable/priority/threshold writes, claims and completes
// and checks it against a scan of the registers after every step.
TEST(PlicBestPending, MatchesRegisterScanOverSeededOperations) {
  constexpr u32 kSources = 8;
  sim::Simulator s;
  Plic plic("plic", kSources);
  s.add(&plic);
  u64 x = 0x9E3779B97F4A7C15ULL;
  auto next = [&x](u32 bound) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return static_cast<u32>(x % bound);
  };
  std::vector<u32> claimed;
  u32 fired = 0;
  for (int step = 0; step < 3000; ++step) {
    switch (next(6)) {
      case 0:
        plic.set_source_level(1 + next(kSources), next(2) == 0);
        break;
      case 1:
        lite_write(s, plic.port(), Plic::kEnableBase, next(1u << 9) & ~1u);
        break;
      case 2:
        lite_write(s, plic.port(), Plic::kPriorityBase + 4 * (1 + next(kSources)),
                   next(8));
        break;
      case 3:
        lite_write(s, plic.port(), Plic::kThreshold, next(4));
        break;
      case 4:
        if (const u32 src = lite_read(s, plic.port(), Plic::kClaimComplete)) {
          claimed.push_back(src);
        }
        break;
      default:
        if (!claimed.empty()) {
          const usize i = next(static_cast<u32>(claimed.size()));
          lite_write(s, plic.port(), Plic::kClaimComplete, claimed[i]);
          claimed.erase(claimed.begin() + static_cast<std::ptrdiff_t>(i));
        }
        break;
    }
    s.run_cycles(2);
    const u32 pending = lite_read(s, plic.port(), Plic::kPendingBase);
    const u32 enabled = lite_read(s, plic.port(), Plic::kEnableBase);
    const u32 threshold = lite_read(s, plic.port(), Plic::kThreshold);
    bool want = false;
    for (u32 src = 1; src <= kSources; ++src) {
      const u32 prio = lite_read(s, plic.port(), Plic::kPriorityBase + 4 * src);
      if ((pending >> src & 1) && (enabled >> src & 1) && prio > threshold) {
        want = true;
      }
    }
    ASSERT_EQ(plic.eip(), want) << "step " << step;
    fired += want ? 1 : 0;
  }
  EXPECT_GT(fired, 100u);
}

}  // namespace
}  // namespace rvcap
