// Deadline-aware ReconfigService: admission control, watchdog hang
// detection, and graceful degradation under queued load.
//
// Covers the three robustness layers end to end over a live SoC:
//  * admission — malformed / wrong-device / wrong-RP images are refused
//    before a single ICAP word is written and quarantined so resubmits
//    fail fast;
//  * watchdog — a wedged DMA (frozen beat counter) is declared a hang
//    long before the iteration timeout, diagnosed with a register
//    snapshot, recovered by the self-healing pipeline, and the rest of
//    the queue still completes;
//  * degradation — priority scheduling, coalescing, shedding at
//    saturation, deadline misses and cancellation, plus a randomized
//    stress run under fault injection with same-seed determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "bitstream/generator.hpp"
#include "bitstream/packets.hpp"
#include "bitstream/preflight.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "driver/dpr_manager.hpp"
#include "driver/hwicap_driver.hpp"
#include "driver/reconfig_service.hpp"
#include "obs/trace.hpp"
#include "sim/fault_injector.hpp"
#include "soc/ariane_soc.hpp"
#include "testutil.hpp"

namespace rvcap {
namespace {

using driver::DmaMode;
using driver::DprManager;
using driver::FailStage;
using driver::ReconfigService;
using driver::StallWatchdog;
using sim::FaultInjector;
using soc::ArianeSoc;
using soc::SocConfig;
namespace sites = sim::fault_sites;

using Req = ReconfigService::ActivationRequest;
using State = ReconfigService::RequestState;

// ---------------------------------------------------------------------
// World: SoC + self-healing DprManager with three pre-staged modules.
// ---------------------------------------------------------------------

struct ServiceWorld : test::DprWorld {
  ServiceWorld() { stage("gauss", accel::kRmIdGaussian, 0x8900'0000); }

  /// Stage raw bytes under a module name (for malformed images).
  void stage_raw(const char* name, u32 rm_id, Addr addr,
                 std::span<const u8> bytes) {
    soc.ddr().poke(addr, bytes);
    ASSERT_EQ(mgr.register_staged(name, rm_id, addr,
                                  static_cast<u32>(bytes.size())),
              Status::kOk);
  }

  /// A one-column partition that shares no column-row with RP0 — the
  /// "wrong floorplan" target for admission tests.
  fabric::Partition foreign_partition() {
    const auto& taken = soc.rp0().columns();
    for (u32 row = 0; row < soc.device().rows(); ++row) {
      for (u32 col = 0; col < soc.device().num_columns(); ++col) {
        const fabric::Partition::ColumnRef ref{row, col};
        if (std::find(taken.begin(), taken.end(), ref) == taken.end()) {
          return fabric::Partition("RPX", {ref});
        }
      }
    }
    ADD_FAILURE() << "device fully covered by RP0?";
    return fabric::Partition("RPX", {{0, 0}});
  }
};

struct ServiceFixture : ::testing::Test, ServiceWorld {};

// ---------------------------------------------------------------------
// Lifecycle basics
// ---------------------------------------------------------------------

TEST_F(ServiceFixture, SingleRequestCompletes) {
  ReconfigService svc(mgr);
  ReconfigService::RequestId id = 0;
  ASSERT_EQ(svc.submit(Req{"sobel", 3, 0, 11}, &id), Status::kOk);
  EXPECT_EQ(svc.queue_depth(), 1u);
  ASSERT_NE(svc.record(id), nullptr);
  EXPECT_EQ(svc.record(id)->state, State::kQueued);

  EXPECT_TRUE(svc.step());
  EXPECT_FALSE(svc.step());  // queue drained

  const auto* r = svc.record(id);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->state, State::kCompleted);
  EXPECT_EQ(r->status, Status::kOk);
  EXPECT_GE(r->start_mtime, r->submit_mtime);
  EXPECT_GE(r->done_mtime, r->start_mtime);
  EXPECT_EQ(mgr.active_module(), "sobel");
  EXPECT_EQ(svc.stats().completed, 1u);
  EXPECT_EQ(svc.stats().accepted, 1u);
}

TEST_F(ServiceFixture, DispatchFollowsPriorityThenDeadline) {
  ReconfigService svc(mgr);
  ASSERT_EQ(svc.submit(Req{"sobel", 1}), Status::kOk);
  ASSERT_EQ(svc.submit(Req{"median", 5}), Status::kOk);
  ASSERT_EQ(svc.submit(Req{"gauss", 9}), Status::kOk);

  EXPECT_TRUE(svc.step());
  EXPECT_EQ(mgr.active_module(), "gauss");  // highest priority first
  EXPECT_TRUE(svc.step());
  EXPECT_EQ(mgr.active_module(), "median");
  EXPECT_TRUE(svc.step());
  EXPECT_EQ(mgr.active_module(), "sobel");
  EXPECT_EQ(svc.stats().completed, 3u);
}

TEST_F(ServiceFixture, DuplicateRequestsCoalesce) {
  ReconfigService svc(mgr);
  ReconfigService::RequestId first = 0, dup = 0;
  ASSERT_EQ(svc.submit(Req{"sobel", 1, 0, 1}, &first), Status::kOk);
  const u64 deadline = drv.mtime() + 1'000'000;
  ASSERT_EQ(svc.submit(Req{"sobel", 7, deadline, 2}, &dup), Status::kOk);

  EXPECT_EQ(svc.queue_depth(), 1u);  // merged, not queued twice
  const auto* d = svc.record(dup);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->state, State::kCoalesced);
  EXPECT_EQ(d->merged_into, first);
  // Survivor inherited the higher priority and the tighter deadline.
  const auto* f = svc.record(first);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->req.priority, 7u);
  EXPECT_EQ(f->req.deadline_mtime, deadline);
  EXPECT_EQ(svc.stats().coalesced, 1u);

  EXPECT_EQ(svc.drain(), 1u);
  EXPECT_EQ(svc.record(first)->state, State::kCompleted);
}

TEST_F(ServiceFixture, SaturationShedsLowestPriorityOrRefusesArrival) {
  ReconfigService::Config cfg;
  cfg.queue_capacity = 2;
  ReconfigService svc(mgr, cfg);

  ReconfigService::RequestId low = 0, mid = 0, high = 0;
  ASSERT_EQ(svc.submit(Req{"sobel", 1}, &low), Status::kOk);
  ASSERT_EQ(svc.submit(Req{"median", 4}, &mid), Status::kOk);
  // Queue full; a higher-priority arrival evicts the priority-1 entry.
  ASSERT_EQ(svc.submit(Req{"gauss", 8}, &high), Status::kOk);
  EXPECT_EQ(svc.record(low)->state, State::kShed);
  EXPECT_EQ(svc.record(low)->status, Status::kRejected);
  EXPECT_EQ(svc.queue_depth(), 2u);
  EXPECT_EQ(svc.stats().shed, 1u);

  // An arrival that does not outrank the weakest entry is refused.
  ReconfigService::RequestId weak = 0;
  EXPECT_EQ(svc.submit(Req{"sobel", 2}, &weak), Status::kRejected);
  EXPECT_EQ(svc.record(weak)->state, State::kRejected);
  EXPECT_EQ(svc.stats().rejected_full, 1u);
  EXPECT_EQ(svc.queue_depth(), 2u);

  EXPECT_EQ(svc.drain(), 2u);
  EXPECT_EQ(svc.record(mid)->state, State::kCompleted);
  EXPECT_EQ(svc.record(high)->state, State::kCompleted);
}

TEST_F(ServiceFixture, DeadlineMissedAtSubmitAndAtDispatch) {
  ReconfigService svc(mgr);
  // Burn some simulated time so a tiny absolute deadline is in the past.
  ASSERT_EQ(svc.submit(Req{"gauss", 0}), Status::kOk);
  ASSERT_TRUE(svc.step());
  ASSERT_GT(drv.mtime(), 1u);

  // Already expired at submission: refused without touching hardware.
  ReconfigService::RequestId expired = 0;
  EXPECT_EQ(svc.submit(Req{"sobel", 9, 1, 0}, &expired),
            Status::kDeadlineMissed);
  EXPECT_EQ(svc.record(expired)->state, State::kDeadlineMissed);

  // Expires while queued behind a long-running higher-priority request:
  // skipped at dispatch with kDeadlineMissed.
  ReconfigService::RequestId blocker = 0, victim = 0;
  ASSERT_EQ(svc.submit(Req{"sobel", 5}, &blocker), Status::kOk);
  ASSERT_EQ(svc.submit(Req{"median", 1, drv.mtime() + 100, 0}, &victim),
            Status::kOk);
  const u64 reconfigs_before = mgr.stats().reconfigurations;
  EXPECT_TRUE(svc.step());  // runs "sobel", far longer than 100 ticks
  EXPECT_TRUE(svc.step());  // dispatches the expired "median": skip
  const auto* v = svc.record(victim);
  EXPECT_EQ(v->state, State::kDeadlineMissed);
  EXPECT_EQ(v->status, Status::kDeadlineMissed);
  EXPECT_EQ(v->start_mtime, 0u);  // never reached the hardware
  EXPECT_EQ(mgr.stats().reconfigurations, reconfigs_before + 1);
  EXPECT_EQ(svc.stats().deadline_missed, 2u);
}

TEST_F(ServiceFixture, CancelWhileQueued) {
  ReconfigService svc(mgr);
  ReconfigService::RequestId id = 0;
  ASSERT_EQ(svc.submit(Req{"sobel", 1}, &id), Status::kOk);
  EXPECT_EQ(svc.cancel(id), Status::kOk);
  EXPECT_EQ(svc.record(id)->state, State::kCancelled);
  EXPECT_EQ(svc.record(id)->status, Status::kCancelled);

  EXPECT_EQ(svc.cancel(id), Status::kInvalidArgument);  // already terminal
  EXPECT_EQ(svc.cancel(999), Status::kNotFound);

  // A cancelled request never reaches the hardware.
  EXPECT_FALSE(svc.step());
  EXPECT_EQ(mgr.stats().reconfigurations, 0u);
  EXPECT_EQ(svc.stats().cancelled, 1u);
}

TEST_F(ServiceFixture, UnknownModuleRefused) {
  ReconfigService svc(mgr);
  EXPECT_EQ(svc.submit(Req{"no-such-module", 1}), Status::kNotFound);
  EXPECT_TRUE(svc.history().empty());
  EXPECT_EQ(svc.stats().submitted, 1u);
  EXPECT_EQ(svc.stats().accepted, 0u);
}

// ---------------------------------------------------------------------
// Admission control: pre-flight parse + quarantine
// ---------------------------------------------------------------------

TEST_F(ServiceFixture, WrongRpFarRejectedBeforeAnyIcapWord) {
  // An image whose frame addresses target a different partition must be
  // refused at admission, with zero configuration traffic.
  const auto rpx = foreign_partition();
  const auto evil = bitstream::generate_partial_bitstream(
      soc.device(), rpx, {7, "evil"});
  stage_raw("evil", 7, 0x8800'0000, evil);

  ReconfigService svc(mgr);
  const u64 words_before = soc.icap().words_consumed();

  ReconfigService::RequestId id = 0;
  EXPECT_EQ(svc.submit(Req{"evil", 9}, &id), Status::kRejected);
  EXPECT_EQ(svc.record(id)->state, State::kRejected);
  EXPECT_EQ(soc.icap().words_consumed(), words_before);
  EXPECT_EQ(soc.icap().frames_committed(), 0u);
  EXPECT_EQ(svc.stats().preflight_rejects, 1u);
  EXPECT_TRUE(svc.quarantined("evil"));

  // Quarantine fast-fail: the resubmit is refused without re-parsing.
  EXPECT_EQ(svc.submit(Req{"evil", 9}), Status::kQuarantined);
  EXPECT_EQ(svc.stats().quarantine_rejects, 1u);
  EXPECT_EQ(svc.stats().preflight_rejects, 1u);  // no second parse
  EXPECT_EQ(soc.icap().words_consumed(), words_before);

  // The RP itself is unharmed: a good module still activates.
  ASSERT_EQ(svc.submit(Req{"sobel", 1}), Status::kOk);
  EXPECT_EQ(svc.drain(), 1u);
  EXPECT_EQ(mgr.active_module(), "sobel");
}

TEST_F(ServiceFixture, WrongIdcodeRejected) {
  // Sobel's image built for a different device: its IDCODE word differs.
  auto image = bitstream::generate_partial_bitstream(
      soc.device(), soc.rp0(), {accel::kRmIdSobel, "sobel"});
  usize idcodes = 0;
  for (usize i = 0; i + 4 <= image.size(); i += 4) {
    const auto word = std::span(image).subspan(i, 4);
    if (load_be32(word) != bitstream::kIdCode) continue;
    store_be32(word, bitstream::kIdCode ^ 1);
    ++idcodes;
  }
  ASSERT_EQ(idcodes, 1u);
  const auto report = bitstream::preflight_check(image, soc.device(),
                                                 soc.rp0(), bitstream::kIdCode);
  EXPECT_EQ(report.status, Status::kInvalidArgument);
  EXPECT_EQ(report.reason, "IDCODE does not match the device");
  stage_raw("foreign", accel::kRmIdSobel, 0x8800'0000, image);

  ReconfigService svc(mgr);
  const u64 words_before = soc.icap().words_consumed();
  EXPECT_EQ(svc.submit(Req{"foreign", 1}), Status::kRejected);
  EXPECT_EQ(soc.icap().words_consumed(), words_before);
  EXPECT_TRUE(svc.quarantined("foreign"));
}

TEST_F(ServiceFixture, GarbageImageRejected) {
  // No sync word anywhere: the parse fails before any hardware access.
  const std::vector<u8> junk(4096, 0xFF);
  stage_raw("junk", 9, 0x8800'0000, junk);
  ReconfigService svc(mgr);
  EXPECT_EQ(svc.submit(Req{"junk", 1}), Status::kRejected);
  EXPECT_EQ(svc.stats().preflight_rejects, 1u);
  EXPECT_TRUE(svc.quarantined("junk"));
}

// ---------------------------------------------------------------------
// Watchdog hang detection
// ---------------------------------------------------------------------

TEST_F(ServiceFixture, WatchdogDetectsWedgedDmaAndQueueSurvives) {
  ReconfigService::Config cfg;
  ReconfigService svc(mgr, cfg);
  // Hung attempt + recovery (blank + retry) + a second full
  // reconfiguration emit ~1.3M events; retain them all so the early
  // hang record survives for the trace assertions below.
  soc.sim().obs().sink().set_capacity(usize{1} << 21);
  soc.sim().obs().sink().set_enabled(true);

  fi.arm(sites::kDmaMm2sStall, /*count=*/1);
  ReconfigService::RequestId hung = 0, next = 0;
  ASSERT_EQ(svc.submit(Req{"sobel", 5}, &hung), Status::kOk);
  ASSERT_EQ(svc.submit(Req{"median", 1}, &next), Status::kOk);
  EXPECT_EQ(svc.drain(), 2u);

  // The wedge was declared a hang (frozen progress counter), not a
  // bounded-iteration timeout.
  EXPECT_EQ(svc.stats().hangs, 1u);
  EXPECT_EQ(mgr.stats().dma_hangs, 1u);
  EXPECT_EQ(mgr.stats().dma_timeouts, 0u);

  // The kSvcHang event carries the diagnosis: the beats the wedged
  // engine's last register snapshot still owed the transfer (a1), out
  // of the transfer's expected beats.
  const obs::TraceSink& sink = soc.sim().obs().sink();
  const auto hangs =
      test::events_of(sink, obs::EventKind::kSvcHang, "reconfig_service");
  ASSERT_EQ(hangs.size(), 1u);
  const obs::TraceEvent& hang = hangs.front();
  const u64 expected_beats = hang.a2 >> 32;
  EXPECT_EQ(hang.a0, hung);
  EXPECT_EQ(hang.a2 & 0xFFFF'FFFF, StallWatchdog::kStallPolls);
  EXPECT_GT(expected_beats, 0u);
  EXPECT_GT(hang.a1, 0u);
  EXPECT_LE(hang.a1, expected_beats);
  EXPECT_GT(hang.ts, 0u);

  // The hang entered the self-healing pipeline: recorded at the DMA
  // stage with kHang, then recovered, and both requests completed.
  const auto j = stages();
  ASSERT_GE(j.size(), 2u);
  EXPECT_EQ(j.front().stage, FailStage::kDma);
  EXPECT_EQ(j.front().status, Status::kHang);
  EXPECT_EQ(j.back().stage, FailStage::kRecovered);
  EXPECT_EQ(mgr.stats().recoveries, 1u);
  EXPECT_EQ(svc.record(hung)->state, State::kCompleted);
  EXPECT_EQ(svc.record(next)->state, State::kCompleted);
  EXPECT_EQ(mgr.active_module(), "median");

  // The rest of the story told by the trace stream: no request
  // completes before dispatch.
  EXPECT_EQ(test::count_events(sink, obs::EventKind::kSvcAdmit), 2u);
  EXPECT_EQ(test::count_events(sink, obs::EventKind::kSvcComplete), 2u);
  test::expect_ordered(sink, obs::EventKind::kSvcAdmit,
                       obs::EventKind::kSvcHang);
  test::expect_ordered(sink, obs::EventKind::kSvcHang,
                       obs::EventKind::kSvcComplete);
}

TEST_F(ServiceFixture, WatchdogFiresWellBeforeIterationTimeout) {
  // The point of progress probes: detection latency is bounded by
  // interval * polls, not by the multi-million-cycle iteration budget.
  ReconfigService::Config cfg;
  ReconfigService svc(mgr, cfg);

  fi.arm(sites::kDmaMm2sStall, /*count=*/1);
  ASSERT_EQ(svc.submit(Req{"sobel", 1}), Status::kOk);
  const Cycles t0 = soc.sim().now();
  EXPECT_EQ(svc.drain(), 1u);
  const auto hangs = test::events_of(soc.sim().obs().sink(),
                                     obs::EventKind::kSvcHang);
  ASSERT_EQ(hangs.size(), 1u);
  const u64 detect_ticks = (hangs.front().ts - t0) / kCyclesPerClintTick;
  // Generous bound: a couple of orders of magnitude under the default
  // 4M-cycle (200k-tick) interrupt-wait budget.
  EXPECT_LT(detect_ticks, 20'000u);
}

TEST(StallWatchdogUnit, TripsOnTheStallPollsThFrozenPoll) {
  u32 trips = 0;
  StallWatchdog wd("test", [&](const driver::TransferProgress& p,
                               u64 expected_beats, u32 stalled_polls) {
    ++trips;
    EXPECT_EQ(p.beats, 7u);
    EXPECT_EQ(expected_beats, 100u);
    EXPECT_EQ(stalled_polls, StallWatchdog::kStallPolls);
  });
  wd.start(100);
  driver::TransferProgress p;
  p.beats = 7;
  EXPECT_TRUE(wd.poll(p));  // 0 -> 7: progress
  // One frozen poll fewer than the constant: the wait continues.
  for (u32 i = 1; i < StallWatchdog::kStallPolls; ++i) {
    EXPECT_TRUE(wd.poll(p)) << i;
  }
  EXPECT_EQ(trips, 0u);
  // The next frozen poll trips it, and the hook runs exactly once.
  EXPECT_FALSE(wd.poll(p));
  EXPECT_EQ(trips, 1u);
}

TEST(StallWatchdogUnit, ProgressAndNewTransferResetTheStallCount) {
  StallWatchdog wd("test");
  driver::TransferProgress p;
  const auto frozen_polls_survive = [&] {
    for (u32 i = 1; i < StallWatchdog::kStallPolls; ++i) {
      if (!wd.poll(p)) return false;
    }
    return true;
  };
  wd.start(100);
  ASSERT_TRUE(frozen_polls_survive());
  // A moving counter resets the stall count...
  p.beats = 1;
  EXPECT_TRUE(wd.poll(p));
  ASSERT_TRUE(frozen_polls_survive());
  // ...and so does starting a new transfer, even with the counter
  // still frozen at the same value.
  wd.start(100);
  p.beats = 0;
  ASSERT_TRUE(frozen_polls_survive());
  EXPECT_FALSE(wd.poll(p));
}

TEST_F(ServiceFixture, OneHangDiagnosisPerWatchdogTrip) {
  // Two wedged transfers: the first activation attempt and the blanking
  // pass of its recovery. Each trip is one kSvcHang event carrying the
  // diagnosis and one kHang stage of the manager.
  ReconfigService svc(mgr);
  soc.sim().obs().sink().set_capacity(usize{1} << 21);
  soc.sim().obs().sink().set_enabled(true);
  fi.arm(sites::kDmaMm2sStall, /*count=*/2);
  ASSERT_EQ(svc.submit(Req{"sobel", 1}), Status::kOk);
  EXPECT_EQ(svc.drain(), 1u);

  const auto hangs = test::events_of(soc.sim().obs().sink(),
                                     obs::EventKind::kSvcHang);
  EXPECT_EQ(hangs.size(), 2u);
  EXPECT_EQ(svc.stats().hangs, hangs.size());
  usize recorded = 0;
  for (const auto& e : stages()) {
    if (e.status == Status::kHang) ++recorded;
  }
  EXPECT_EQ(recorded, hangs.size());
  for (const auto& d : hangs) {
    EXPECT_EQ(d.a2 & 0xFFFF'FFFF, StallWatchdog::kStallPolls);
  }
}

// ---------------------------------------------------------------------
// Randomized queue stress under fault injection
// ---------------------------------------------------------------------

struct StressOutcome {
  std::vector<std::pair<State, Status>> terminal;  // per record, in order
  std::vector<test::DprStage> stages;
  std::vector<std::pair<std::string, u64>> fire_report;
};

StressOutcome run_stress(ServiceWorld& w, u64 seed) {
  // Keep every run on the DMA path and skip the (slow) readback scrub:
  // determinism is the property under test, not scrub coverage.
  DprManager::RecoveryPolicy pol;
  pol.scrub_after_recovery = false;
  w.mgr.set_policy(pol);

  // Every PR 1 fault site armed (bounded counts so the run converges;
  // the SD/staging sites are armed too even though pinned modules do
  // not exercise them — arming must be harmless).
  w.fi.arm(sites::kDmaMm2sSlvErr, 3, 0.35);
  w.fi.arm(sites::kDmaMm2sStall, 1, 0.5);
  w.fi.arm(sites::kDmaMm2sEarlyIoc, 2, 0.25);
  w.fi.arm(sites::kIcapSyncLoss, 2, 0.2);
  w.fi.arm(sites::kIcapCrcCorrupt, 2, 0.005);
  w.fi.arm(sites::kSdReadToken, 2, 0.5);
  w.fi.arm(sites::kSdReadCrc, 2, 0.5);
  w.fi.arm(sites::kStageBitFlip, 1, 0.5);

  ReconfigService::Config cfg;
  cfg.queue_capacity = 4;
  ReconfigService svc(w.mgr, cfg);

  const char* modules[] = {"sobel", "median", "gauss"};
  SplitMix64 rng(seed);
  std::vector<ReconfigService::RequestId> ids;
  for (int i = 0; i < 14; ++i) {
    Req r;
    r.module = modules[rng.next_below(3)];
    r.priority = static_cast<u32>(rng.next_below(8));
    r.client_id = static_cast<u32>(i);
    switch (rng.next_below(3)) {
      case 0: r.deadline_mtime = 0; break;                           // none
      case 1: r.deadline_mtime = w.drv.mtime() + 50 +
                                 rng.next_below(5'000); break;       // tight
      default: r.deadline_mtime = w.drv.mtime() + 10'000'000; break; // loose
    }
    ReconfigService::RequestId id = 0;
    svc.submit(r, &id);
    if (id != 0) ids.push_back(id);

    // Occasionally cancel a random earlier request or let the queue run.
    if (!ids.empty() && rng.next_below(4) == 0) {
      svc.cancel(ids[rng.next_below(ids.size())]);
    }
    if (rng.next_below(3) == 0) svc.step();
  }
  svc.drain();

  // ---- invariants: no request lost, duplicated, or left in flight ----
  EXPECT_EQ(svc.queue_depth(), 0u);
  const auto& hist = svc.history();
  EXPECT_EQ(svc.stats().submitted, hist.size());  // nothing lost
  u64 completed = 0, failed = 0, shed = 0, cancelled = 0, coalesced = 0,
      rejected = 0, missed = 0, missed_at_dispatch = 0;
  StressOutcome out;
  for (usize i = 0; i < hist.size(); ++i) {
    const auto& r = hist[i];
    EXPECT_EQ(r.id, i + 1);  // ids unique and dense: no duplication
    EXPECT_NE(r.state, State::kQueued) << r.id;
    EXPECT_NE(r.state, State::kActive) << r.id;
    switch (r.state) {
      case State::kCompleted: ++completed; break;
      case State::kFailed: ++failed; break;
      case State::kShed: ++shed; break;
      case State::kCancelled: ++cancelled; break;
      case State::kCoalesced: ++coalesced; break;
      case State::kRejected: ++rejected; break;
      case State::kDeadlineMissed:
        ++missed;
        // A submit-time miss is stamped terminal at its submit mtime; a
        // dispatch-time miss was queued first, and time must advance
        // past the deadline before the skip.
        if (r.done_mtime > r.submit_mtime) ++missed_at_dispatch;
        break;
      case State::kQueued:
      case State::kActive: break;  // unreachable, asserted above
    }
    // Nothing runs after being cancelled / shed / refused / expired.
    if (r.state == State::kCancelled || r.state == State::kShed ||
        r.state == State::kRejected || r.state == State::kDeadlineMissed) {
      EXPECT_EQ(r.start_mtime, 0u) << r.id;
    }
    out.terminal.emplace_back(r.state, r.status);
  }
  EXPECT_EQ(completed, svc.stats().completed);
  EXPECT_EQ(failed, svc.stats().failed);
  EXPECT_EQ(shed, svc.stats().shed);
  EXPECT_EQ(cancelled, svc.stats().cancelled);
  EXPECT_EQ(coalesced, svc.stats().coalesced);
  EXPECT_EQ(rejected, svc.stats().rejected_full +
                          svc.stats().preflight_rejects +
                          svc.stats().quarantine_rejects);
  EXPECT_EQ(missed, svc.stats().deadline_missed);
  // Every admitted request reached exactly one terminal state.
  EXPECT_EQ(svc.stats().accepted,
            completed + failed + shed + cancelled + missed_at_dispatch);

  out.stages = w.stages();
  out.fire_report = w.fi.fire_report();
  return out;
}

TEST(ServiceStress, SameSeedSameOutcomeAndJournal) {
  ServiceWorld w1;
  const StressOutcome a = run_stress(w1, 0xC0FFEE);
  ServiceWorld w2;
  const StressOutcome b = run_stress(w2, 0xC0FFEE);

  EXPECT_FALSE(a.terminal.empty());
  ASSERT_EQ(a.terminal.size(), b.terminal.size());
  for (usize i = 0; i < a.terminal.size(); ++i) {
    EXPECT_EQ(a.terminal[i].first, b.terminal[i].first) << i;
    EXPECT_EQ(a.terminal[i].second, b.terminal[i].second) << i;
  }
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (usize i = 0; i < a.stages.size(); ++i) {
    EXPECT_EQ(a.stages[i].mtime, b.stages[i].mtime) << i;
    EXPECT_EQ(a.stages[i].stage, b.stages[i].stage) << i;
    EXPECT_EQ(a.stages[i].status, b.stages[i].status) << i;
    EXPECT_EQ(a.stages[i].rm_id, b.stages[i].rm_id) << i;
    EXPECT_EQ(a.stages[i].attempt, b.stages[i].attempt) << i;
  }
  EXPECT_EQ(a.fire_report, b.fire_report);
}

TEST(ServiceStress, DifferentSeedsDiverge) {
  ServiceWorld w1;
  const StressOutcome a = run_stress(w1, 1);
  ServiceWorld w2;
  const StressOutcome b = run_stress(w2, 2);
  // Not a hard guarantee per field, but the combined trace of terminal
  // states + fault report diverging is astronomically likely.
  EXPECT_TRUE(a.terminal != b.terminal || a.fire_report != b.fire_report);
}

// ---------------------------------------------------------------------
// Telemetry over the PerfRegs window
// ---------------------------------------------------------------------

TEST_F(ServiceFixture, MailboxMirrorsCounters) {
  ReconfigService svc(mgr);

  ASSERT_EQ(svc.submit(Req{"sobel", 1}), Status::kOk);
  ASSERT_EQ(svc.submit(Req{"sobel", 2}), Status::kOk);  // coalesces
  EXPECT_EQ(svc.drain(), 1u);

  // Firmware reads the service's counters by name through PerfRegs.
  auto reg = [&](const char* field) {
    return test::perf_counter(drv, std::string("service.slot0.") + field);
  };
  EXPECT_EQ(reg("submitted"), 2u);
  EXPECT_EQ(reg("accepted"), 1u);
  EXPECT_EQ(reg("completed"), 1u);
  EXPECT_EQ(reg("coalesced"), 1u);
  EXPECT_EQ(reg("queue_depth"), 0u);
  EXPECT_EQ(reg("max_queue_depth"), 1u);
  EXPECT_EQ(reg("failed"), 0u);
  EXPECT_EQ(reg("hangs"), 0u);
}

}  // namespace
}  // namespace rvcap
