// Deterministic fault injection + self-healing reconfiguration.
//
// Covers the FaultInjector itself (determinism, plans) and the recovery
// pipeline end to end: for every instrumented site, activation under
// the shared DPR world's RecoveryPolicy (post-recovery verify on) must
// converge to kOk with the RP coupled to a verified configuration —
// and when recovery is impossible, the RP must be left decoupled,
// never coupled to a corrupt partition.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "bitstream/generator.hpp"
#include "driver/dpr_manager.hpp"
#include "driver/frame_check.hpp"
#include "driver/hwicap_driver.hpp"
#include "driver/spi_sd.hpp"
#include "sim/fault_injector.hpp"
#include "soc/ariane_soc.hpp"
#include "storage/fat32.hpp"
#include "testutil.hpp"

namespace rvcap {
namespace {

using driver::DmaMode;
using driver::DprManager;
using driver::FailStage;
using sim::FaultInjector;
using soc::ArianeSoc;
using soc::SocConfig;
namespace sites = sim::fault_sites;

// ---------------------------------------------------------------------
// FaultInjector unit behaviour
// ---------------------------------------------------------------------

TEST(FaultInjector, UnarmedAndUnknownSitesNeverFire) {
  FaultInjector fi(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(fi.should_fire("no.such.site"));
  }
  EXPECT_EQ(fi.total_fires(), 0u);
}

TEST(FaultInjector, TypoedSiteNameIsAHardError) {
  FaultInjector fi(7);
  // Neither canonical nor declared: arm must refuse and leave the site
  // unarmed instead of silently creating a no-op site.
  EXPECT_EQ(fi.arm("sd.read.tokn", /*count=*/1), Status::kNotFound);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(fi.should_fire("sd.read.tokn"));
  }
  EXPECT_EQ(fi.total_fires(), 0u);
  // Canonical names arm without any declaration.
  EXPECT_EQ(fi.arm(sites::kSdReadToken, /*count=*/1), Status::kOk);
  EXPECT_TRUE(fi.should_fire(sites::kSdReadToken));
}

TEST(FaultInjector, DeclaredSitesArmAndSurviveReseed) {
  FaultInjector fi(7);
  EXPECT_FALSE(fi.known("test.site"));
  fi.declare_site("test.site");
  EXPECT_TRUE(fi.known("test.site"));
  EXPECT_EQ(fi.arm("test.site", /*count=*/1), Status::kOk);
  EXPECT_TRUE(fi.should_fire("test.site"));
  fi.reseed(8);  // clears armed plans, keeps the declared registry
  EXPECT_TRUE(fi.known("test.site"));
  EXPECT_EQ(fi.arm("test.site", /*count=*/1), Status::kOk);
}

TEST(FaultInjector, CanonicalSiteListIsSortedAndComplete) {
  const auto& all = sites::all();
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
  for (std::string_view name : all) {
    EXPECT_TRUE(sites::is_canonical(name)) << name;
  }
  // Every site the components consult must be enumerable, including
  // the network plant's.
  const std::set<std::string_view> s(all.begin(), all.end());
  EXPECT_TRUE(s.count(sites::kSdReadToken));
  EXPECT_TRUE(s.count(sites::kSdReadCrc));
  EXPECT_TRUE(s.count(sites::kIcapCrcCorrupt));
  EXPECT_TRUE(s.count(sites::kNetDrop));
  EXPECT_TRUE(s.count(sites::kNetDup));
  EXPECT_TRUE(s.count(sites::kNetReorder));
  EXPECT_TRUE(s.count(sites::kNetCorrupt));
  EXPECT_TRUE(s.count(sites::kNetServerStall));
  EXPECT_FALSE(sites::is_canonical("no.such.site"));
}

TEST(FaultInjector, CountLimitsFires) {
  FaultInjector fi(7);
  fi.declare_site("x");
  fi.arm("x", /*count=*/2);
  u32 fired = 0;
  for (int i = 0; i < 50; ++i) {
    if (fi.should_fire("x")) ++fired;
  }
  EXPECT_EQ(fired, 2u);
  EXPECT_EQ(fi.fires("x"), 2u);
  EXPECT_EQ(fi.queries("x"), 50u);
}

TEST(FaultInjector, SkipDelaysFirstFire) {
  FaultInjector fi(7);
  fi.declare_site("x");
  fi.arm("x", /*count=*/1, /*probability=*/1.0, /*skip=*/3);
  EXPECT_FALSE(fi.should_fire("x"));
  EXPECT_FALSE(fi.should_fire("x"));
  EXPECT_FALSE(fi.should_fire("x"));
  EXPECT_TRUE(fi.should_fire("x"));
  EXPECT_FALSE(fi.should_fire("x"));
}

TEST(FaultInjector, UnlimitedCountKeepsFiring) {
  FaultInjector fi(7);
  fi.declare_site("x");
  fi.arm("x", /*count=*/0);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(fi.should_fire("x"));
  }
}

TEST(FaultInjector, ProbabilityIsSeedDeterministic) {
  FaultInjector a(42), b(42), c(43);
  a.declare_site("p");
  b.declare_site("p");
  c.declare_site("p");
  a.arm("p", 0, 0.5);
  b.arm("p", 0, 0.5);
  c.arm("p", 0, 0.5);
  u32 same = 0, diff_seed_same = 0;
  for (int i = 0; i < 400; ++i) {
    const bool fa = a.should_fire("p");
    if (fa == b.should_fire("p")) ++same;
    if (fa == c.should_fire("p")) ++diff_seed_same;
  }
  EXPECT_EQ(same, 400u);            // identical seeds agree exactly
  EXPECT_LT(diff_seed_same, 400u);  // a different seed diverges
  // Roughly half fire at p=0.5.
  EXPECT_GT(a.fires("p"), 100u);
  EXPECT_LT(a.fires("p"), 300u);
}

TEST(FaultInjector, SiteStreamsAreInterleavingIndependent) {
  // The decisions at site "a" must not depend on how often other sites
  // are queried in between.
  FaultInjector x(9), y(9);
  x.declare_site("a");
  y.declare_site("a");
  y.declare_site("b");
  x.arm("a", 0, 0.5);
  y.arm("a", 0, 0.5);
  y.arm("b", 0, 0.5);
  std::vector<bool> xs, ys;
  for (int i = 0; i < 64; ++i) {
    xs.push_back(x.should_fire("a"));
    ys.push_back(y.should_fire("a"));
    y.should_fire("b");
    y.should_fire("b");
  }
  EXPECT_EQ(xs, ys);
}

TEST(FaultInjector, SiteRefDecidesAsTheSiteName) {
  // A resolved site handle keeps every decision and count of the name
  // form through arm, disarm, a site added after it was resolved, a
  // value() draw and reseed.
  FaultInjector by_name(3), by_ref(3);
  FaultInjector::SiteRef sync(sites::kIcapSyncLoss);
  FaultInjector::SiteRef crc(sites::kIcapCrcCorrupt);
  std::vector<bool> want, got;
  const auto query = [&](int n) {
    for (int i = 0; i < n; ++i) {
      want.push_back(by_name.should_fire(sites::kIcapSyncLoss));
      want.push_back(by_name.should_fire(sites::kIcapCrcCorrupt));
      got.push_back(by_ref.should_fire(sync));
      got.push_back(by_ref.should_fire(crc));
    }
  };
  const auto both = [&](auto&& step) {
    step(by_name);
    step(by_ref);
  };
  query(4);  // neither site exists yet
  both([](FaultInjector& f) { f.arm(sites::kIcapCrcCorrupt, 0, 0.3); });
  query(40);
  both([](FaultInjector& f) { f.arm(sites::kIcapSyncLoss, 2, 0.5, 3); });
  query(40);
  both([](FaultInjector& f) { f.value(sites::kIcapCrcCorrupt, 32); });
  both([](FaultInjector& f) { f.disarm(sites::kIcapCrcCorrupt); });
  query(10);
  both([](FaultInjector& f) { f.reseed(11); });
  query(4);
  both([](FaultInjector& f) { f.arm(sites::kIcapSyncLoss, 0, 0.25); });
  query(40);
  EXPECT_EQ(got, want);
  for (const auto name : {sites::kIcapSyncLoss, sites::kIcapCrcCorrupt}) {
    EXPECT_EQ(by_ref.queries(name), by_name.queries(name)) << name;
    EXPECT_EQ(by_ref.fires(name), by_name.fires(name)) << name;
  }
  EXPECT_EQ(by_ref.fire_report(), by_name.fire_report());
  // After the reseed only the re-armed site exists again.
  ASSERT_EQ(by_ref.fire_report().size(), 1u);
  EXPECT_EQ(by_ref.fire_report()[0].first, sites::kIcapSyncLoss);
}

TEST(FaultInjector, ValueIsDeterministicAndBounded) {
  FaultInjector a(5), b(5);
  for (int i = 0; i < 64; ++i) {
    const u64 va = a.value("v", 97);
    EXPECT_EQ(va, b.value("v", 97));
    EXPECT_LT(va, 97u);
  }
  EXPECT_EQ(a.value("v", 0), 0u);
}

TEST(FaultInjector, DisarmStopsFiring) {
  FaultInjector fi(1);
  fi.declare_site("x");
  fi.declare_site("y");
  fi.arm("x", 0);
  EXPECT_TRUE(fi.should_fire("x"));
  fi.disarm("x");
  EXPECT_FALSE(fi.should_fire("x"));
  fi.arm("x", 0);
  fi.arm("y", 0);
  fi.disarm_all();
  EXPECT_FALSE(fi.should_fire("x"));
  EXPECT_FALSE(fi.should_fire("y"));
}

// ---------------------------------------------------------------------
// Recovery over pre-staged modules (rp0, DMA/ICAP fault sites)
// ---------------------------------------------------------------------

struct FaultRecoveryFixture : ::testing::Test, test::DprWorld {};

TEST_F(FaultRecoveryFixture, NoFaultsCleanActivation) {
  ASSERT_EQ(mgr.activate("sobel"), Status::kOk);
  EXPECT_FALSE(decoupled());
  EXPECT_EQ(mgr.stats().recoveries, 0u);
  EXPECT_TRUE(stages().empty());
}

TEST_F(FaultRecoveryFixture, RecoversFromDmaSlvErr) {
  fi.arm(sites::kDmaMm2sSlvErr, /*count=*/1);
  ASSERT_EQ(mgr.activate("sobel"), Status::kOk);
  EXPECT_EQ(mgr.active_module(), "sobel");
  EXPECT_FALSE(decoupled());
  EXPECT_EQ(mgr.stats().dma_errors, 1u);
  EXPECT_EQ(mgr.stats().recoveries, 1u);
  EXPECT_GE(mgr.stats().blank_passes, 1u);
  EXPECT_EQ(mgr.stats().scrub_verifies, 1u);
  const auto j = stages();
  ASSERT_GE(j.size(), 2u);
  EXPECT_EQ(j.front().stage, FailStage::kDma);
  EXPECT_EQ(j.front().status, Status::kIoError);
  EXPECT_EQ(j.back().stage, FailStage::kRecovered);
  EXPECT_EQ(j.back().status, Status::kOk);
}

TEST_F(FaultRecoveryFixture, RecoversFromDmaStallTimeout) {
  // Shrink the WFI bound so the wedged transfer times out quickly.
  auto t = drv.timeouts();
  t.irq_wait_cycles = 3'000'000;
  drv.set_timeouts(t);
  fi.arm(sites::kDmaMm2sStall, /*count=*/1);
  ASSERT_EQ(mgr.activate("sobel"), Status::kOk);
  EXPECT_FALSE(decoupled());
  EXPECT_EQ(mgr.stats().dma_timeouts, 1u);
  EXPECT_EQ(mgr.stats().recoveries, 1u);
}

TEST_F(FaultRecoveryFixture, RecoversFromEarlyIoc) {
  fi.arm(sites::kDmaMm2sEarlyIoc, /*count=*/1);
  ASSERT_EQ(mgr.activate("sobel"), Status::kOk);
  EXPECT_FALSE(decoupled());
  EXPECT_EQ(mgr.stats().config_failures, 1u);
  EXPECT_EQ(mgr.stats().recoveries, 1u);
}

TEST_F(FaultRecoveryFixture, RecoversFromIcapSyncLoss) {
  fi.arm(sites::kIcapSyncLoss, /*count=*/1);
  ASSERT_EQ(mgr.activate("sobel"), Status::kOk);
  EXPECT_EQ(mgr.active_module(), "sobel");
  EXPECT_FALSE(decoupled());
  EXPECT_EQ(mgr.stats().recoveries, 1u);
}

TEST_F(FaultRecoveryFixture, RecoversFromIcapCrcCorruption) {
  fi.arm(sites::kIcapCrcCorrupt, /*count=*/1);
  ASSERT_EQ(mgr.activate("sobel"), Status::kOk);
  EXPECT_FALSE(decoupled());
  EXPECT_EQ(mgr.stats().recoveries, 1u);
}

TEST_F(FaultRecoveryFixture, CorruptedRepairReloadLeavesPartitionInvalid) {
  // Detect an upset, reload the module, verify again — with the reload
  // itself cut short by an ICAP sync loss. The check words live in the
  // fabric, written frame by frame, so the frames the broken reload
  // never reached still carry the upset: the repair verify fails
  // instead of blessing the damage.
  ASSERT_EQ(mgr.activate("sobel"), Status::kOk);
  const auto verify = [&] {
    return driver::verify_partition(drv, soc.config_memory(), soc.rp0(),
                                    0x8D00'0000);
  };
  ASSERT_EQ(verify(), Status::kOk);

  const auto addrs = soc.rp0().frame_addrs(soc.device());
  ASSERT_TRUE(soc.config_memory().inject_upset(addrs[400], /*word=*/7,
                                               /*bit=*/3));
  ASSERT_EQ(verify(), Status::kCrcError);

  // Lose sync about ten frames into the reload: the base frame restarts
  // the partition's configuration pass, frame 400 is never rewritten.
  fi.arm(sites::kIcapSyncLoss,
         FaultInjector::Plan{1, 1.0, 10 * fabric::kFrameWords});
  const auto pbit = bitstream::generate_partial_bitstream(
      soc.device(), soc.rp0(), {accel::kRmIdSobel, "sobel"});
  const driver::ReconfigModule m{"sobel", accel::kRmIdSobel, 0x8A00'0000,
                                 static_cast<u32>(pbit.size())};
  ASSERT_EQ(drv.init_reconfig_process(m, DmaMode::kInterrupt), Status::kOk);
  EXPECT_EQ(fi.fires(sites::kIcapSyncLoss), 1u);
  EXPECT_EQ(verify(), Status::kCrcError);
  EXPECT_FALSE(soc.config_memory().partition_state(soc.rp0_handle()).loaded);

  // A clean reload verifies clean and the module is back.
  ASSERT_EQ(drv.init_reconfig_process(m, DmaMode::kInterrupt), Status::kOk);
  EXPECT_EQ(verify(), Status::kOk);
  const auto st = soc.config_memory().partition_state(soc.rp0_handle());
  EXPECT_TRUE(st.loaded);
  EXPECT_EQ(st.rm_id, accel::kRmIdSobel);
}

// The post-recovery verify is the last gate before recouple: a readback
// that fails (here an MM2S SLVERR on its command stream, so the S2MM
// capture never completes and times out) is recorded as kScrub,
// blanks the partition and spends an attempt like any other failure.
TEST_F(FaultRecoveryFixture, FailedRecoveryVerifyRetriesUntilClean) {
  // Shrink the WFI bound so the starved capture times out quickly.
  auto t = drv.timeouts();
  t.irq_wait_cycles = 3'000'000;
  drv.set_timeouts(t);
  // Attempt 1 loses ICAP sync (kActivate). The SLVERR skips three
  // MM2S jobs (attempt 1's transfer, the blanking pass, attempt 2's
  // transfer) and lands on attempt 2's verify readback.
  fi.arm(sites::kIcapSyncLoss, /*count=*/1);
  fi.arm(sites::kDmaMm2sSlvErr, FaultInjector::Plan{1, 1.0, 3});
  ASSERT_EQ(mgr.activate("sobel"), Status::kOk);
  EXPECT_EQ(fi.fires(sites::kDmaMm2sSlvErr), 1u);

  const auto j = stages();
  ASSERT_EQ(j.size(), 3u);
  EXPECT_EQ(j[0].stage, FailStage::kActivate);
  EXPECT_EQ(j[0].attempt, 1u);
  EXPECT_EQ(j[1].stage, FailStage::kScrub);
  EXPECT_EQ(j[1].status, Status::kTimeout);
  EXPECT_EQ(j[1].attempt, 2u);
  EXPECT_EQ(j[2].stage, FailStage::kRecovered);
  EXPECT_EQ(j[2].attempt, 3u);

  const auto& st = mgr.stats();
  EXPECT_EQ(st.scrub_verifies, 2u);
  EXPECT_EQ(st.scrub_failures, 1u);
  EXPECT_EQ(st.recoveries, 1u);
  EXPECT_EQ(st.fallback_reconfigs, 0u);
  EXPECT_EQ(test::perf_counter(drv, "dpr.slot0.scrub_failures"), 1u);

  // Coupled, over a partition that verifies clean.
  EXPECT_FALSE(decoupled());
  EXPECT_EQ(mgr.active_module(), "sobel");
  EXPECT_EQ(driver::verify_partition(drv, soc.config_memory(), soc.rp0(),
                                     0x8D00'0000),
            Status::kOk);
}

TEST_F(FaultRecoveryFixture, FallsBackToHwicapAfterRepeatedDmaFailures) {
  DprManager::RecoveryPolicy p;
  p.fallback_after_failures = 1;
  p.scrub_after_recovery = true;
  mgr.set_policy(p);
  fi.arm(sites::kDmaMm2sSlvErr, /*count=*/0);  // DMA path always fails
  ASSERT_EQ(mgr.activate("sobel"), Status::kOk);
  EXPECT_EQ(mgr.active_module(), "sobel");
  EXPECT_FALSE(decoupled());
  EXPECT_EQ(mgr.stats().fallback_reconfigs, 1u);
  EXPECT_GE(mgr.stats().dma_errors, 1u);
}

// Regression: reconfigure_RP (behind write_frame) armed only the MM2S
// completion interrupt, so an SLVERR in interrupt mode raised no IRQ
// and surfaced as kTimeout once the whole WFI bound had run out.
TEST_F(FaultRecoveryFixture, WriteFrameSlvErrRaisesErrorInterrupt) {
  fi.arm(sites::kDmaMm2sSlvErr, /*count=*/1);
  const auto& col = soc.rp0().columns().front();
  const std::vector<u32> frame(fabric::kFrameWords, 0);
  const Cycles c0 = soc.sim().now();
  EXPECT_EQ(drv.write_frame({col.row, col.column, 0}, frame, 0x8E00'0000,
                            DmaMode::kInterrupt),
            Status::kIoError);
  EXPECT_LT(soc.sim().now() - c0, 100'000u);
}

// Regression: run_accelerator fell out of its blocking S2MM poll when
// the bound ran out and reported kOk for a job that never completed.
TEST_F(FaultRecoveryFixture, BlockingAcceleratorRunWithoutModuleTimesOut) {
  ASSERT_FALSE(soc.config_memory().partition_state(soc.rp0_handle()).loaded);
  EXPECT_EQ(drv.run_accelerator(0x8E00'0000, 64, 0x8E10'0000, 64,
                                DmaMode::kBlocking),
            Status::kTimeout);
}

// Regression: the HWICAP fallback decoupled slot 0's RP-control window
// whatever slot the manager served, and the verified-activation flow
// (hold_decoupled) never recoupled it.
TEST(HwicapFallbackSlots, SlotOneFallbackLeavesSlotZeroCoupled) {
  SocConfig cfg;
  cfg.with_hwicap = true;
  cfg.num_slots = 2;
  ArianeSoc soc(cfg);
  driver::RvCapDriver drv(soc.cpu(), soc.plic());
  driver::HwIcapDriver hwicap_drv(soc.cpu());
  DprManager::Config mc;
  mc.slot_id = 1;
  DprManager mgr(drv, soc.config_memory(), soc.slot_handle(1), nullptr, mc);
  mgr.attach_fallback(&hwicap_drv);
  DprManager::RecoveryPolicy p;
  p.fallback_after_failures = 0;  // every transfer takes the fallback
  mgr.set_policy(p);
  const auto pbit = bitstream::generate_partial_bitstream(
      soc.device(), soc.slot_partition(1), {accel::kRmIdSobel, "sobel"});
  soc.ddr().poke(0x8A00'0000, pbit);
  ASSERT_EQ(mgr.register_staged("sobel", accel::kRmIdSobel, 0x8A00'0000,
                                static_cast<u32>(pbit.size())),
            Status::kOk);

  ASSERT_EQ(mgr.activate("sobel"), Status::kOk);
  EXPECT_EQ(mgr.stats().fallback_reconfigs, 1u);
  const auto& rpc = soc.rvcap().rp_control();
  EXPECT_FALSE(rpc.decoupled(0));
  EXPECT_FALSE(rpc.decoupled(1));
  const auto slot1 = soc.config_memory().partition_state(soc.slot_handle(1));
  EXPECT_TRUE(slot1.loaded);
  EXPECT_EQ(slot1.rm_id, accel::kRmIdSobel);
}

TEST_F(FaultRecoveryFixture, ExhaustedRetriesLeaveRpDecoupled) {
  mgr.attach_fallback(nullptr);  // no escape hatch
  fi.arm(sites::kDmaMm2sSlvErr, /*count=*/0);
  EXPECT_EQ(mgr.activate("sobel"), Status::kIoError);
  EXPECT_TRUE(decoupled());
  EXPECT_FALSE(soc.config_memory().partition_state(soc.rp0_handle()).loaded);
  EXPECT_EQ(mgr.stats().retries_exhausted, 1u);
  const auto j = stages();
  ASSERT_FALSE(j.empty());
  EXPECT_EQ(j.back().stage, FailStage::kExhausted);
}

TEST_F(FaultRecoveryFixture, CorruptPinnedImageNeverCouples) {
  // Flip one byte of the pre-staged image: the golden CRC from
  // registration no longer matches and there is no SD copy to reload,
  // so every attempt must be refused before the ICAP sees a word.
  u8 byte = 0;
  soc.ddr().peek(0x8A00'0100, std::span(&byte, 1));
  byte ^= 0xFF;
  soc.ddr().poke(0x8A00'0100, std::span<const u8>(&byte, 1));
  EXPECT_EQ(mgr.activate("sobel"), Status::kCrcError);
  EXPECT_TRUE(decoupled());
  EXPECT_FALSE(soc.config_memory().partition_state(soc.rp0_handle()).loaded);
  EXPECT_EQ(mgr.stats().staged_crc_failures, DprManager::kMaxAttempts);
  EXPECT_EQ(mgr.stats().reconfigurations, 0u);
}

TEST_F(FaultRecoveryFixture, JournalKeepsNewestEventsPastCapacity) {
  // Each exhausted activation of a corrupt pinned image records one
  // kStagedCrc per attempt plus kExhausted: 4 events a call, so nine
  // calls push 36 events through a 32-event trace ring. The manager is
  // the only source emitting here.
  constexpr usize kRing = 32;
  soc.sim().obs().sink().set_capacity(kRing);
  u8 byte = 0;
  soc.ddr().peek(0x8A00'0100, std::span(&byte, 1));
  byte ^= 0xFF;
  soc.ddr().poke(0x8A00'0100, std::span<const u8>(&byte, 1));
  constexpr u32 kPerCall = DprManager::kMaxAttempts + 1;
  constexpr u32 kCalls = 9;
  std::vector<u64> call_start;
  for (u32 c = 0; c < kCalls; ++c) {
    call_start.push_back(drv.mtime());
    EXPECT_EQ(mgr.activate("sobel"), Status::kCrcError);
  }
  static_assert(kPerCall * kCalls > kRing);

  EXPECT_EQ(soc.sim().obs().sink().total_events(), u64{kPerCall} * kCalls);
  const auto j = stages();
  ASSERT_EQ(j.size(), kRing);
  // The newest 32 events, oldest first: the first call's four events
  // are the ones overwritten, so the ring starts at the second call.
  EXPECT_GE(j.front().mtime, call_start[1]);
  EXPECT_LT(j.front().mtime, call_start[2]);
  for (usize i = 0; i < j.size(); ++i) {
    const bool last = i % kPerCall == kPerCall - 1;
    EXPECT_EQ(j[i].stage, last ? FailStage::kExhausted : FailStage::kStagedCrc)
        << i;
    EXPECT_EQ(j[i].attempt, last ? DprManager::kMaxAttempts : i % kPerCall + 1)
        << i;
    if (i > 0) {
      EXPECT_GE(j[i].mtime, j[i - 1].mtime) << i;
    }
  }
}

TEST_F(FaultRecoveryFixture, ActivationFailureKeepsPreviousModuleOut) {
  // A good module is active; switching to another module fails hard.
  // The RP must end decoupled and blanked, not left on the stale or the
  // partial configuration.
  ASSERT_EQ(mgr.activate("sobel"), Status::kOk);
  mgr.attach_fallback(nullptr);
  fi.arm(sites::kDmaMm2sSlvErr, /*count=*/0);
  EXPECT_EQ(mgr.activate("median"), Status::kIoError);
  EXPECT_TRUE(decoupled());
  EXPECT_FALSE(soc.config_memory().partition_state(soc.rp0_handle()).loaded);
}

TEST_F(FaultRecoveryFixture, SameSeedSameJournal) {
  // Probabilistic, unlimited faults: whatever sequence of failures,
  // recoveries, or exhaustion plays out, an identically-seeded world
  // must reproduce it exactly — statuses, recovery stages and fire counts.
  const auto scenario = [](test::DprWorld& w) {
    w.mgr.attach_fallback(nullptr);  // keep the run on one path
    w.mgr.set_policy({});  // no verify: free of long readback waits
    w.fi.arm(sites::kDmaMm2sSlvErr, 0, 0.5);
    w.fi.arm(sites::kIcapCrcCorrupt, 3, 0.001);
    std::vector<Status> out;
    out.push_back(w.mgr.activate("sobel"));
    out.push_back(w.mgr.activate("median"));
    return out;
  };
  const auto s1 = scenario(*this);
  const auto j1 = stages();
  const auto report1 = fi.fire_report();

  // Fresh, identically-seeded world must reproduce the exact stages.
  test::DprWorld other;
  const auto s2 = scenario(other);
  const auto j2 = other.stages();

  EXPECT_EQ(s1, s2);
  EXPECT_FALSE(j1.empty());  // p=0.5 over many transfers: events occur

  ASSERT_EQ(j1.size(), j2.size());
  for (usize i = 0; i < j1.size(); ++i) {
    EXPECT_EQ(j1[i].mtime, j2[i].mtime) << i;
    EXPECT_EQ(j1[i].stage, j2[i].stage) << i;
    EXPECT_EQ(j1[i].status, j2[i].status) << i;
    EXPECT_EQ(j1[i].rm_id, j2[i].rm_id) << i;
    EXPECT_EQ(j1[i].attempt, j2[i].attempt) << i;
  }
  EXPECT_EQ(report1, other.fi.fire_report());
}

// ---------------------------------------------------------------------
// Recovery over SD-backed modules (staging fault sites)
// ---------------------------------------------------------------------

struct SdFaultFixture : ::testing::Test {
  SdFaultFixture()
      : soc(SocConfig{}),
        drv(soc.cpu(), soc.plic()),
        small("RPA", {{0, 2}}),
        host_io(soc.sd_card()),
        fi(0xF00D) {
    handle = soc.add_partition(small);
    EXPECT_EQ(storage::fat32_format(host_io), Status::kOk);
    storage::Fat32Volume host_vol(host_io);
    EXPECT_EQ(host_vol.mount(), Status::kOk);
    for (u32 id : {60u, 61u}) {
      const auto pbit = bitstream::generate_partial_bitstream(
          soc.device(), small, {id, "m"});
      EXPECT_EQ(host_vol.write_file("M" + std::to_string(id) + ".PB", pbit),
                Status::kOk);
    }

    sd = std::make_unique<driver::SpiSdDriver>(soc.cpu());
    EXPECT_EQ(sd->init_card(), Status::kOk);
    io = std::make_unique<driver::CpuBlockIo>(*sd,
                                              soc.sd_card().block_count());
    vol = std::make_unique<storage::Fat32Volume>(*io);
    EXPECT_EQ(vol->mount(), Status::kOk);

    DprManager::Config cfg;
    cfg.num_slots = 2;
    cfg.slot_bytes = 64 * 1024;
    mgr = std::make_unique<DprManager>(drv, soc.config_memory(), handle,
                                       vol.get(), cfg);
    for (u32 id : {60u, 61u}) {
      EXPECT_EQ(mgr->register_module("m" + std::to_string(id), id,
                                     "M" + std::to_string(id) + ".PB"),
                Status::kOk);
    }
    // Faults armed per test; attach after host-side setup so formatting
    // traffic is not subject to injection.
    soc.attach_fault_injector(&fi);
    mgr->set_fault_injector(&fi);
  }

  ArianeSoc soc;
  driver::RvCapDriver drv;
  fabric::Partition small;
  usize handle = 0;
  storage::MemBlockIo host_io;
  FaultInjector fi;
  std::unique_ptr<driver::SpiSdDriver> sd;
  std::unique_ptr<driver::CpuBlockIo> io;
  std::unique_ptr<storage::Fat32Volume> vol;
  std::unique_ptr<DprManager> mgr;
};

TEST_F(SdFaultFixture, SdTokenDropRecoveredByDriverRetry) {
  fi.arm(sim::fault_sites::kSdReadToken, /*count=*/1);
  ASSERT_EQ(mgr->activate("m60"), Status::kOk);
  EXPECT_GE(sd->reads_recovered(), 1u);
  // Transparent to the manager: no recovery stage, no manager retry.
  EXPECT_EQ(test::count_events(soc.sim().obs().sink(),
                               obs::EventKind::kDprStage),
            0u);
}

TEST_F(SdFaultFixture, SdCrcCorruptionRecoveredByDriverRetry) {
  fi.arm(sim::fault_sites::kSdReadCrc, /*count=*/1);
  ASSERT_EQ(mgr->activate("m60"), Status::kOk);
  EXPECT_GE(sd->reads_recovered(), 1u);
}

TEST_F(SdFaultFixture, StagedBitFlipCaughtByCrcAndReloaded) {
  fi.arm(sim::fault_sites::kStageBitFlip, /*count=*/1);
  ASSERT_EQ(mgr->activate("m60"), Status::kOk);
  EXPECT_EQ(mgr->active_module(), "m60");
  EXPECT_EQ(mgr->stats().staged_crc_failures, 1u);
  EXPECT_EQ(mgr->stats().staging_loads, 2u);  // corrupt load + reload
  EXPECT_EQ(mgr->stats().recoveries, 1u);
  const auto j = test::dpr_stages(soc.sim().obs().sink());
  ASSERT_GE(j.size(), 2u);
  EXPECT_EQ(j.front().stage, FailStage::kStagedCrc);
  EXPECT_EQ(j.back().stage, FailStage::kRecovered);
}

TEST_F(SdFaultFixture, BlockingModeDetectsDmaError) {
  fi.arm(sim::fault_sites::kDmaMm2sSlvErr, /*count=*/1);
  ASSERT_EQ(mgr->activate("m60", DmaMode::kBlocking), Status::kOk);
  EXPECT_EQ(mgr->stats().dma_errors, 1u);
  EXPECT_EQ(mgr->stats().recoveries, 1u);
}

// to_string coverage for the recovery-stage enum.
TEST(FailStageNames, AllDistinctAndNonEmpty) {
  const FailStage all[] = {
      FailStage::kStaging,   FailStage::kStagedCrc, FailStage::kDma,
      FailStage::kIcap,      FailStage::kActivate,  FailStage::kScrub,
      FailStage::kBlank,     FailStage::kRecovered, FailStage::kExhausted,
  };
  std::set<std::string_view> seen;
  for (const FailStage s : all) {
    const auto name = driver::to_string(s);
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "unknown");
    EXPECT_TRUE(seen.insert(name).second) << name;
  }
}

}  // namespace
}  // namespace rvcap
