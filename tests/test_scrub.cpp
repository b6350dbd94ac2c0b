// Continuous SEU mitigation: frame ECC, the background upset process,
// and the scrub service's detect -> localize -> repair loop under live
// traffic.
//
// Layers covered bottom-up: SECDED syndrome math and the essential-bits
// mask (pure functions), ConfigMemory upset bookkeeping (observer hook,
// in-place repair exception), single-frame rewrite and full-reload
// escalation through the real driver/ICAP path, IRQ + PerfRegs
// telemetry, and the closed-loop acceptance demo — a Poisson upset
// process corrupting a streaming RM while the scrub service repairs it,
// ending bit-exact.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <tuple>

#include "accel/filters.hpp"
#include "accel/rm_slot.hpp"
#include "bitstream/generator.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "driver/dpr_manager.hpp"
#include "driver/hwicap_driver.hpp"
#include "driver/reconfig_service.hpp"
#include "driver/scrub_service.hpp"
#include "fabric/frame_ecc.hpp"
#include "fabric/seu_process.hpp"
#include "obs/trace.hpp"
#include "sim/fault_injector.hpp"
#include "soc/ariane_soc.hpp"
#include "soc/memory_map.hpp"
#include "testutil.hpp"

namespace rvcap {
namespace {

using driver::DmaMode;
using driver::DprManager;
using driver::ReconfigService;
using driver::ScrubService;
using fabric::compute_frame_ecc;
using fabric::decode_frame_ecc;
using fabric::EccClass;
using fabric::essential_bit;
using fabric::FrameAddr;
using fabric::FrameEcc;
using fabric::kFrameWords;
using fabric::SeuProcess;
using sim::FaultInjector;
using sim::Simulator;
using soc::ArianeSoc;
using soc::MemoryMap;
using soc::SocConfig;
namespace sites = sim::fault_sites;

using Req = ReconfigService::ActivationRequest;

// ---------------------------------------------------------------------
// Frame ECC: syndrome math and essential-bits mask
// ---------------------------------------------------------------------

std::vector<u32> test_frame(u32 salt) {
  std::vector<u32> w(kFrameWords);
  SplitMix64 rng(0xECC0 + salt);
  for (u32& x : w) x = static_cast<u32>(rng.next());
  return w;
}

TEST(FrameEcc, CleanFrameDecodesClean) {
  const auto w = test_frame(1);
  const FrameEcc g = compute_frame_ecc(w);
  const auto d = decode_frame_ecc(g, compute_frame_ecc(w), kFrameWords);
  EXPECT_EQ(d.cls, EccClass::kClean);
}

TEST(FrameEcc, SingleBitFlipLocalizedExactly) {
  const auto golden = test_frame(2);
  const FrameEcc g = compute_frame_ecc(golden);
  // Every corner: first bit, a middle bit, the very last bit.
  const std::pair<u32, u32> cases[] = {
      {0, 0}, {57, 13}, {kFrameWords - 1, 31}};
  for (const auto& [word, bit] : cases) {
    auto w = golden;
    w[word] ^= 1u << bit;
    const auto d = decode_frame_ecc(g, compute_frame_ecc(w), kFrameWords);
    EXPECT_EQ(d.cls, EccClass::kCorrectable);
    EXPECT_EQ(d.word, word);
    EXPECT_EQ(d.bit, bit);
  }
}

TEST(FrameEcc, DoubleBitFlipUncorrectable) {
  auto w = test_frame(3);
  const FrameEcc g = compute_frame_ecc(w);
  w[10] ^= 1u << 4;
  w[190] ^= 1u << 29;
  const auto d = decode_frame_ecc(g, compute_frame_ecc(w), kFrameWords);
  EXPECT_EQ(d.cls, EccClass::kUncorrectable);
}

TEST(FrameEcc, DoubleFlipInSameWordUncorrectable) {
  auto w = test_frame(4);
  const FrameEcc g = compute_frame_ecc(w);
  w[33] ^= (1u << 2) | (1u << 30);
  const auto d = decode_frame_ecc(g, compute_frame_ecc(w), kFrameWords);
  EXPECT_EQ(d.cls, EccClass::kUncorrectable);
}

TEST(FrameEcc, EssentialMaskDeterministicManifestAlwaysEssential) {
  // Manifest words of the base frame are unconditionally essential.
  for (u32 word = 0; word < 4; ++word) {
    for (u32 bit : {0u, 15u, 31u}) {
      EXPECT_TRUE(essential_bit(7, 0, word, bit));
    }
  }
  // Pure function: identical on repeat, and distinct RMs get distinct
  // masks (different routed designs use different bits).
  u32 set = 0, diff = 0;
  const u32 n = 4000;
  for (u32 i = 0; i < n; ++i) {
    const u32 f = 1 + i % 800, w = i % kFrameWords, b = i % 32;
    const bool a = essential_bit(7, f, w, b);
    EXPECT_EQ(a, essential_bit(7, f, w, b));
    set += a ? 1 : 0;
    diff += (a != essential_bit(8, f, w, b)) ? 1 : 0;
  }
  // ~25% density, loosely bounded.
  EXPECT_GT(set, n / 6);
  EXPECT_LT(set, n / 3);
  EXPECT_GT(diff, n / 8);
}

// ---------------------------------------------------------------------
// ConfigMemory upset bookkeeping (no SoC: direct fabric access)
// ---------------------------------------------------------------------

struct FabricFixture : ::testing::Test {
  FabricFixture()
      : dev(fabric::DeviceGeometry::kintex7_325t()),
        rp(fabric::case_study_partition(dev)),
        mem(dev),
        addrs(rp.frame_addrs(dev)) {
    handle = mem.register_partition(rp);
  }

  void load(u32 rm_id) {
    mem.notify_rcrc();
    std::vector<u32> frame(kFrameWords, 0);
    fabric::RmManifest{rm_id, static_cast<u32>(addrs.size())}.encode(
        std::span(frame).subspan(0, 4));
    mem.write_frame(addrs[0], frame);
    std::vector<u32> plain(kFrameWords, 1);
    for (usize i = 1; i < addrs.size(); ++i) mem.write_frame(addrs[i], plain);
  }

  fabric::DeviceGeometry dev;
  fabric::Partition rp;
  fabric::ConfigMemory mem;
  std::vector<FrameAddr> addrs;
  usize handle = 0;
};

TEST_F(FabricFixture, UpsetObserverReportsEveryLandedHit) {
  load(3);
  std::vector<fabric::ConfigMemory::UpsetEvent> seen;
  mem.set_upset_observer([&](const auto& ev) { seen.push_back(ev); });

  EXPECT_FALSE(mem.inject_upset(FrameAddr{63, 0, 0}, 0, 0));  // never written
  EXPECT_TRUE(seen.empty());

  ASSERT_TRUE(mem.inject_upset(addrs[5], 7, 19));
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].fa, addrs[5]);
  EXPECT_EQ(seen[0].word, 7u);
  EXPECT_EQ(seen[0].bit, 19u);
  EXPECT_TRUE(seen[0].loaded_frame);
  EXPECT_EQ(seen[0].total, 1u);
  EXPECT_EQ(mem.upsets_injected(), 1u);
  ASSERT_TRUE(mem.last_upset().has_value());
  EXPECT_EQ(mem.last_upset()->fa, addrs[5]);
  EXPECT_EQ(mem.outstanding_flips(addrs[5]), 1u);

  // Same bit again: the flip cancels out, but the event still reports.
  ASSERT_TRUE(mem.inject_upset(addrs[5], 7, 19));
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_EQ(mem.upsets_injected(), 2u);
  EXPECT_EQ(mem.outstanding_flips(addrs[5]), 0u);
}

TEST_F(FabricFixture, EssentialUpsetAccountingMatchesMask) {
  load(3);
  const auto st0 = mem.partition_state(handle);
  ASSERT_TRUE(st0.loaded);
  // Find one essential and one benign coordinate in frame 5.
  std::optional<std::pair<u32, u32>> ess, ben;
  for (u32 w = 0; w < kFrameWords && (!ess || !ben); ++w) {
    for (u32 b = 0; b < 32; ++b) {
      if (essential_bit(st0.rm_id, 5, w, b)) {
        if (!ess) ess = {w, b};
      } else if (!ben) {
        ben = {w, b};
      }
    }
  }
  ASSERT_TRUE(ess && ben);
  ASSERT_TRUE(mem.inject_upset(addrs[5], ben->first, ben->second));
  EXPECT_EQ(mem.partition_state(handle).essential_upsets, 0u);
  ASSERT_TRUE(mem.inject_upset(addrs[5], ess->first, ess->second));
  EXPECT_EQ(mem.partition_state(handle).essential_upsets, 1u);
  EXPECT_TRUE(mem.last_upset()->essential);
  // Undo the essential flip: the count returns to zero.
  ASSERT_TRUE(mem.inject_upset(addrs[5], ess->first, ess->second));
  EXPECT_EQ(mem.partition_state(handle).essential_upsets, 0u);
}

TEST_F(FabricFixture, InPlaceFrameRepairKeepsModuleLoaded) {
  load(3);
  ASSERT_TRUE(mem.inject_upset(addrs[5], 7, 19));
  ASSERT_TRUE(mem.partition_state(handle).loaded);

  // Rewriting the damaged frame with its exact pre-upset contents is an
  // in-place repair: no pass restart, module stays active.
  mem.write_frame(addrs[5], std::vector<u32>(kFrameWords, 1));
  EXPECT_TRUE(mem.partition_state(handle).loaded);
  EXPECT_EQ(mem.frame_repairs(), 1u);
  EXPECT_EQ(mem.outstanding_flips(addrs[5]), 0u);
}

TEST_F(FabricFixture, OutOfOrderWriteWithNewContentStillInvalidates) {
  load(3);
  // A mid-partition write with DIFFERENT content is not a repair — it
  // is an out-of-order configuration write, which wrecks the region.
  mem.write_frame(addrs[5], std::vector<u32>(kFrameWords, 9));
  EXPECT_FALSE(mem.partition_state(handle).loaded);
  EXPECT_EQ(mem.frame_repairs(), 0u);
}

TEST_F(FabricFixture, BaseFrameRewriteIsNeverAnInPlaceRepair) {
  load(3);
  ASSERT_TRUE(mem.inject_upset(addrs[0], 9, 1));
  // Restoring the base frame's exact contents restarts a configuration
  // pass (it carries the manifest) rather than repairing in place; the
  // partition drops out of the loaded state mid-pass.
  std::vector<u32> frame(kFrameWords, 0);
  fabric::RmManifest{3, static_cast<u32>(addrs.size())}.encode(
      std::span(frame).subspan(0, 4));
  mem.write_frame(addrs[0], frame);
  EXPECT_EQ(mem.frame_repairs(), 0u);
  EXPECT_FALSE(mem.partition_state(handle).loaded);
}

// ---------------------------------------------------------------------
// Scrub service over the live SoC
// ---------------------------------------------------------------------

struct ScrubWorld : test::DprWorld {
  explicit ScrubWorld(u64 seed = 0x5EED,
                      Simulator::Mode mode = Simulator::Mode::kScheduled)
      : DprWorld(mode, seed),
        svc(mgr),
        scrub(drv, soc.config_memory(), svc, scrub_config()) {
    scrub.watch_partition(soc.rp0_handle(), "sobel");
    scrub.install_upset_feed();
    scrub.set_irqs(
        irq::IrqLine(&soc.plic(), soc::IrqMap::kScrubDone),
        irq::IrqLine(&soc.plic(), soc::IrqMap::kScrubError));
  }

  static ScrubService::Config scrub_config() {
    ScrubService::Config cfg;
    cfg.cmd_staging = 0x8C00'0000;
    cfg.rb_buffer = 0x8D00'0000;
    cfg.frames_per_slice = 128;
    return cfg;
  }

  void activate(const char* name) {
    ReconfigService::RequestId id = 0;
    ASSERT_EQ(svc.submit(Req{name, 1}, &id), Status::kOk);
    svc.drain();
    ASSERT_EQ(svc.record(id)->state, ReconfigService::RequestState::kCompleted);
  }

  fabric::ConfigMemory& mem() { return soc.config_memory(); }
  std::vector<FrameAddr> rp_addrs() {
    return soc.rp0().frame_addrs(soc.device());
  }

  /// First essential (frame >= 1) coordinate of the loaded RM.
  std::tuple<u32, u32, u32> find_essential() {
    const u32 rm = mem().partition_state(soc.rp0_handle()).rm_id;
    for (u32 f = 1; f < 64; ++f) {
      for (u32 w = 0; w < kFrameWords; ++w) {
        for (u32 b = 0; b < 32; ++b) {
          if (essential_bit(rm, f, w, b)) return {f, w, b};
        }
      }
    }
    ADD_FAILURE() << "no essential bit in 64 frames?";
    return {1, 0, 0};
  }

  ReconfigService svc;
  ScrubService scrub;
  // Owned here, not in run_demo(): the simulator keeps a pointer, and
  // post-demo MMIO reads still tick the kernel.
  std::unique_ptr<SeuProcess> seu;
};

struct ScrubFixture : ::testing::Test, ScrubWorld {};

TEST_F(ScrubFixture, CleanPassFindsNothingAndRaisesDoneIrq) {
  activate("sobel");
  ASSERT_EQ(scrub.scrub_pass(), Status::kOk);
  const auto& st = scrub.stats();
  EXPECT_EQ(st.passes, 1u);
  EXPECT_EQ(st.frames_scrubbed, rp_addrs().size());
  EXPECT_EQ(st.detections, 0u);
  EXPECT_EQ(st.frame_rewrites, 0u);
  EXPECT_EQ(st.done_irqs, 1u);
  EXPECT_GT(st.last_pass_frames_per_sec, 0u);

  // The level line is held until acked; enable the source at the PLIC
  // (keeping the DMA sources the driver enabled) and claim it.
  auto& cpu = soc.cpu();
  const Addr plic = MemoryMap::kPlic.base;
  cpu.store32_uncached(plic + irq::Plic::kEnableBase,
                       (1u << soc::IrqMap::kDmaMm2s) |
                           (1u << soc::IrqMap::kDmaS2mm) |
                           (1u << soc::IrqMap::kScrubDone));
  const u32 src =
      cpu.wait_for_irq(soc.plic(), plic + irq::Plic::kClaimComplete, 10'000);
  EXPECT_EQ(src, soc::IrqMap::kScrubDone);
  scrub.ack_irqs();
  cpu.complete_irq(plic + irq::Plic::kClaimComplete, src);
  EXPECT_FALSE(soc.plic().eip());
}

TEST_F(ScrubFixture, SingleBitUpsetRepairedByOneFrameRewrite) {
  activate("sobel");
  const u64 reconfigs = mgr.stats().reconfigurations;
  soc.sim().obs().sink().set_capacity(usize{1} << 19);
  soc.sim().obs().sink().set_enabled(true);
  ASSERT_TRUE(mem().inject_upset(rp_addrs()[7], 3, 3));
  EXPECT_EQ(scrub.pending_upsets(), 1u);

  ASSERT_EQ(scrub.scrub_pass(), Status::kOk);
  const auto& st = scrub.stats();
  EXPECT_EQ(st.detections, 1u);
  EXPECT_EQ(st.correctable, 1u);
  EXPECT_EQ(st.uncorrectable, 0u);
  EXPECT_EQ(st.frame_rewrites, 1u);
  EXPECT_EQ(st.partition_reloads, 0u);
  EXPECT_EQ(st.essential + st.benign, 1u);
  EXPECT_EQ(scrub.pending_upsets(), 0u);
  EXPECT_EQ(st.upsets_repaired, 1u);
  EXPECT_GT(scrub.mean_mttd_cycles(), 0.0);
  EXPECT_GE(scrub.mean_mttr_cycles(), scrub.mean_mttd_cycles());

  // The repair was in place: module still loaded, no reconfiguration,
  // and the fabric confirms the single-frame restore.
  EXPECT_EQ(mgr.stats().reconfigurations, reconfigs);
  EXPECT_TRUE(mem().partition_state(soc.rp0_handle()).loaded);
  EXPECT_EQ(mem().frame_repairs(), 1u);
  EXPECT_EQ(mem().outstanding_flips(rp_addrs()[7]), 0u);

  // The trace stream tells the whole detect -> repair causality chain
  // with the localized coordinates in the payloads: one verdict, the
  // verified rewrite of frame 7's word 3, bit 3.
  const obs::TraceSink& sink = soc.sim().obs().sink();
  const u32 far = rp_addrs()[7].encode();
  const obs::TraceEvent* upset = test::expect_event(
      sink, obs::EventKind::kScrubUpset, "scrub_service");
  ASSERT_NE(upset, nullptr);
  EXPECT_EQ(upset->a0, far);
  EXPECT_EQ(upset->a1, (u64{3} << 8) | 3);
  const obs::TraceEvent* detect = test::expect_event(
      sink, obs::EventKind::kScrubDetect, "scrub_service");
  ASSERT_NE(detect, nullptr);
  EXPECT_EQ(detect->a0, far);
  EXPECT_EQ(detect->a1, static_cast<u64>(EccClass::kCorrectable));
  const auto rewrites = test::events_of(sink, obs::EventKind::kScrubRewrite,
                                        "scrub_service");
  ASSERT_EQ(rewrites.size(), 1u);
  EXPECT_EQ(rewrites[0].a0, far);
  EXPECT_EQ(rewrites[0].a1, (u64{3} << 8) | 3);
  EXPECT_EQ(rewrites[0].a2 & 0xFF,
            static_cast<u64>(EccClass::kCorrectable));
  test::expect_ordered(sink, obs::EventKind::kScrubUpset,
                       obs::EventKind::kScrubDetect);
  test::expect_ordered(sink, obs::EventKind::kScrubDetect,
                       obs::EventKind::kScrubRewrite);
  for (const auto kind :
       {obs::EventKind::kScrubRewriteFail, obs::EventKind::kScrubReload,
        obs::EventKind::kScrubReadFail}) {
    EXPECT_EQ(test::count_events(sink, kind), 0u) << obs::event_name(kind);
  }
  // MTTD/MTTR histograms recorded the ground-truth latencies.
  const obs::CounterRegistry& reg = soc.sim().obs().counters();
  for (usize i = 0; i < reg.histogram_count(); ++i) {
    if (reg.histogram_name(i) == "scrub.mttd_cycles" ||
        reg.histogram_name(i) == "scrub.mttr_cycles") {
      EXPECT_EQ(reg.histogram_at(i).count(), 1u) << reg.histogram_name(i);
      EXPECT_GT(reg.histogram_at(i).max(), 0u) << reg.histogram_name(i);
    }
  }
}

TEST_F(ScrubFixture, MultiBitDamageEscalatesToPartitionReload) {
  activate("sobel");
  const u64 reconfigs = mgr.stats().reconfigurations;
  // Two flips in one frame: detectable, not localizable.
  ASSERT_TRUE(mem().inject_upset(rp_addrs()[9], 3, 3));
  ASSERT_TRUE(mem().inject_upset(rp_addrs()[9], 100, 17));

  ASSERT_EQ(scrub.scrub_pass(), Status::kOk);
  const auto& st = scrub.stats();
  EXPECT_EQ(st.uncorrectable, 1u);
  EXPECT_EQ(st.frame_rewrites, 0u);
  EXPECT_EQ(st.partition_reloads, 1u);
  EXPECT_EQ(st.upsets_repaired, 2u);
  EXPECT_EQ(scrub.pending_upsets(), 0u);
  // The reload went through the full (forced) reconfiguration path.
  EXPECT_GT(mgr.stats().reconfigurations, reconfigs);
  EXPECT_TRUE(mem().partition_state(soc.rp0_handle()).loaded);
  EXPECT_EQ(mem().outstanding_flips(rp_addrs()[9]), 0u);
}

TEST_F(ScrubFixture, BaseFrameDamageEscalatesEvenWhenCorrectable) {
  activate("sobel");
  ASSERT_TRUE(mem().inject_upset(rp_addrs()[0], 9, 1));
  ASSERT_EQ(scrub.scrub_pass(), Status::kOk);
  const auto& st = scrub.stats();
  EXPECT_EQ(st.correctable, 1u);
  EXPECT_EQ(st.frame_rewrites, 0u);  // never rewrites the manifest frame
  EXPECT_EQ(st.partition_reloads, 1u);
  EXPECT_EQ(scrub.pending_upsets(), 0u);
  EXPECT_TRUE(mem().partition_state(soc.rp0_handle()).loaded);
}

TEST_F(ScrubFixture, JournalKeepsNewestVerdictsPastCapacity) {
  // One single-bit upset in each of frames 1..N (the base frame would
  // escalate to a reload): N verified rewrites, four more than the
  // trace ring retains. Each upset is three scrub_service events: the
  // upset, then a detect and a rewrite per verdict.
  activate("sobel");
  constexpr usize kRetained = 256;
  constexpr usize kExtra = 4;
  constexpr usize kUpsets = kRetained + kExtra;
  obs::TraceSink& sink = soc.sim().obs().sink();
  sink.clear();
  sink.set_capacity(2 * kRetained);
  const auto addrs = rp_addrs();
  ASSERT_GT(addrs.size(), kUpsets);
  for (usize f = 1; f <= kUpsets; ++f) {
    ASSERT_TRUE(mem().inject_upset(addrs[f], 3, 3));
  }
  while (scrub.stats().frames_scrubbed <= kUpsets) {
    ASSERT_EQ(scrub.step(), Status::kOk);
  }
  ASSERT_EQ(scrub.stats().frame_rewrites, kUpsets);

  EXPECT_EQ(sink.total_events(), 3 * kUpsets);
  const auto j =
      test::events_of(sink, obs::EventKind::kScrubRewrite, "scrub_service");
  ASSERT_EQ(j.size(), kRetained);
  // Oldest first, starting right after the kExtra evicted verdicts.
  for (usize i = 0; i < j.size(); ++i) {
    EXPECT_EQ(j[i].a0, addrs[1 + kExtra + i].encode()) << i;
  }
}

TEST_F(ScrubFixture, YieldsToForegroundRequestsMidPass) {
  activate("sobel");
  // Queue a foreground swap but do NOT dispatch it: the scrub slice
  // must dispatch it before touching the ICAP.
  ReconfigService::RequestId id = 0;
  ASSERT_EQ(svc.submit(Req{"median", 9}, &id), Status::kOk);
  ASSERT_EQ(svc.queue_depth(), 1u);

  (void)scrub.step();
  EXPECT_GE(scrub.stats().yields, 1u);
  EXPECT_EQ(svc.queue_depth(), 0u);
  EXPECT_EQ(svc.record(id)->state, ReconfigService::RequestState::kCompleted);
  EXPECT_EQ(mgr.active_module(), "median");
}

TEST_F(ScrubFixture, TelemetryVisibleThroughPerfRegs) {
  activate("sobel");
  ASSERT_TRUE(mem().inject_upset(rp_addrs()[7], 3, 3));
  ASSERT_EQ(scrub.scrub_pass(), Status::kOk);

  auto reg = [&](const char* name) { return test::perf_counter(drv, name); };
  EXPECT_EQ(reg("scrub.passes"), 1u);
  EXPECT_EQ(reg("scrub.frames"), rp_addrs().size());
  EXPECT_EQ(reg("scrub.detections"), 1u);
  EXPECT_EQ(reg("scrub.correctable"), 1u);
  EXPECT_EQ(reg("scrub.rewrites"), 1u);
  EXPECT_EQ(reg("scrub.reloads"), 0u);
  EXPECT_EQ(reg("scrub.pending"), 0u);
  EXPECT_GT(reg("scrub.mean_mttd_cycles"), 0u);
  EXPECT_GE(reg("scrub.mean_mttr_cycles"), reg("scrub.mean_mttd_cycles"));
  EXPECT_GT(reg("scrub.frames_per_sec"), 0u);
}

TEST_F(ScrubFixture, EssentialUpsetCorruptsStreamUntilRepaired) {
  activate("sobel");
  const auto [f, w, b] = find_essential();
  ASSERT_TRUE(mem().inject_upset(rp_addrs()[f], w, b));
  ASSERT_EQ(mem().partition_state(soc.rp0_handle()).essential_upsets, 1u);

  const accel::Image img = accel::make_test_image(512, 512, 21);
  const accel::Image golden =
      accel::apply_golden(accel::FilterKind::kSobel, img);
  soc.ddr().poke(MemoryMap::kImageInBase, img.pixels);
  const u32 bytes = static_cast<u32>(img.pixels.size());

  // Damaged logic visibly corrupts the streamed output.
  ASSERT_EQ(drv.run_accelerator(MemoryMap::kImageInBase, bytes,
                                MemoryMap::kImageOutBase, bytes,
                                DmaMode::kInterrupt),
            Status::kOk);
  std::vector<u8> out(img.pixels.size());
  soc.ddr().peek(MemoryMap::kImageOutBase, out);
  EXPECT_NE(out, golden.pixels);
  EXPECT_GT(soc.rm_slot().corrupted_beats(), 0u);

  // Repair, then stream again: bit-exact.
  ASSERT_EQ(scrub.scrub_pass(), Status::kOk);
  EXPECT_EQ(scrub.stats().essential, 1u);
  EXPECT_EQ(scrub.pending_upsets(), 0u);
  ASSERT_EQ(mem().partition_state(soc.rp0_handle()).essential_upsets, 0u);
  const u64 corrupted_after_repair = soc.rm_slot().corrupted_beats();
  ASSERT_EQ(drv.run_accelerator(MemoryMap::kImageInBase, bytes,
                                MemoryMap::kImageOutBase, bytes,
                                DmaMode::kInterrupt),
            Status::kOk);
  soc.ddr().peek(MemoryMap::kImageOutBase, out);
  EXPECT_EQ(out, golden.pixels);
  EXPECT_EQ(soc.rm_slot().corrupted_beats(), corrupted_after_repair);
}

// ---------------------------------------------------------------------
// Closed-loop acceptance demo: Poisson upsets under live traffic
// ---------------------------------------------------------------------

struct DemoOutcome {
  u64 landed = 0;
  u64 repaired = 0;
  u64 cancelled = 0;
  u64 rewrites = 0;
  u64 reloads = 0;
  Cycles final_cycle = 0;
  std::vector<SeuProcess::Event> events;
  bool final_image_exact = false;
};

DemoOutcome run_demo(ScrubWorld& w, u32 upset_budget) {
  DemoOutcome out;
  w.activate("sobel");

  SeuProcess::Config sc;
  sc.mean_cycles = 30'000;
  sc.targets = {w.soc.rp0_handle()};
  w.seu = std::make_unique<SeuProcess>("seu0", w.mem(), w.fi, sc);
  w.soc.sim().add(w.seu.get());
  w.fi.arm(sites::kSeuUpset, /*count=*/upset_budget);
  SeuProcess& seu = *w.seu;

  const accel::Image img = accel::make_test_image(512, 512, 99);
  const accel::Image golden =
      accel::apply_golden(accel::FilterKind::kSobel, img);
  w.soc.ddr().poke(MemoryMap::kImageInBase, img.pixels);
  const u32 bytes = static_cast<u32>(img.pixels.size());

  // Phase A — stream while the radiation process is live. The image may
  // come out damaged; keep scrubbing until the armed upset budget has
  // fired out AND every landed hit is resolved (each pass advances sim
  // time, so pending events on the wheel get their chance to land).
  EXPECT_EQ(w.drv.run_accelerator(MemoryMap::kImageInBase, bytes,
                                  MemoryMap::kImageOutBase, bytes,
                                  DmaMode::kInterrupt),
            Status::kOk);
  for (int pass = 0; pass < 20; ++pass) {
    if (w.fi.fires(sites::kSeuUpset) >= upset_budget &&
        w.scrub.pending_upsets() == 0) {
      break;
    }
    EXPECT_EQ(w.scrub.scrub_pass(), Status::kOk);
  }
  EXPECT_GE(w.fi.fires(sites::kSeuUpset), upset_budget);
  EXPECT_EQ(w.scrub.pending_upsets(), 0u);
  EXPECT_EQ(w.scrub.max_pending_age(w.soc.sim().now()), 0u);

  // Phase B — the upset budget is exhausted and every hit repaired:
  // the next frame must be bit-exact.
  EXPECT_EQ(w.drv.run_accelerator(MemoryMap::kImageInBase, bytes,
                                  MemoryMap::kImageOutBase, bytes,
                                  DmaMode::kInterrupt),
            Status::kOk);
  std::vector<u8> final_img(img.pixels.size());
  w.soc.ddr().peek(MemoryMap::kImageOutBase, final_img);
  out.final_image_exact = (final_img == golden.pixels);

  out.landed = seu.landed();
  out.repaired = w.scrub.stats().upsets_repaired;
  out.cancelled = w.scrub.stats().upsets_self_cancelled;
  out.rewrites = w.scrub.stats().frame_rewrites;
  out.reloads = w.scrub.stats().partition_reloads;
  out.final_cycle = w.soc.sim().now();
  out.events = seu.log();
  return out;
}

TEST(ScrubDemo, ContinuousUpsetsRepairedUnderLiveTraffic) {
  ScrubWorld w(0xBEEF);
  const DemoOutcome o = run_demo(w, 6);

  // The environment actually did something...
  EXPECT_GT(o.landed, 0u);
  EXPECT_GE(o.events.size(), o.landed);
  // ...every landed upset was detected and repaired (or cancelled out)...
  EXPECT_EQ(o.repaired + o.cancelled, o.landed);
  EXPECT_GT(o.rewrites + o.reloads, 0u);
  EXPECT_GT(w.scrub.mean_mttd_cycles(), 0.0);
  EXPECT_GE(w.scrub.mean_mttr_cycles(), w.scrub.mean_mttd_cycles());
  // ...and the hosted function is fully restored.
  EXPECT_TRUE(o.final_image_exact);

  // MTTD/MTTR remain observable over the bus after the run.
  EXPECT_GT(test::perf_counter(w.drv, "scrub.mean_mttd_cycles"), 0u);
}

TEST(ScrubDemo, SameSeedReplaysIdenticalUpsetAndRepairHistory) {
  ScrubWorld w1(0xBEEF), w2(0xBEEF);
  const DemoOutcome a = run_demo(w1, 6);
  const DemoOutcome b = run_demo(w2, 6);

  EXPECT_EQ(a.final_cycle, b.final_cycle);
  EXPECT_EQ(a.landed, b.landed);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (usize i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].at, b.events[i].at) << i;
    EXPECT_EQ(a.events[i].fa, b.events[i].fa) << i;
    EXPECT_EQ(a.events[i].word, b.events[i].word) << i;
    EXPECT_EQ(a.events[i].bit, b.events[i].bit) << i;
    EXPECT_EQ(a.events[i].landed, b.events[i].landed) << i;
  }
  // Complete histories: a wrapped ring would compare only its tail.
  const obs::TraceSink& sa = w1.soc.sim().obs().sink();
  const obs::TraceSink& sb = w2.soc.sim().obs().sink();
  EXPECT_EQ(sa.dropped_events(), 0u);
  EXPECT_EQ(sb.dropped_events(), 0u);
  EXPECT_GT(test::events_from(sa, "scrub_service").size(), 0u);
  test::expect_same_streams(test::events_by_source(sa),
                            test::events_by_source(sb));
}

TEST(ScrubDemo, DifferentSeedsDiverge) {
  ScrubWorld w1(1), w2(2);
  const DemoOutcome a = run_demo(w1, 4);
  const DemoOutcome b = run_demo(w2, 4);
  EXPECT_TRUE(a.final_cycle != b.final_cycle || a.events.size() != b.events.size());
}

}  // namespace
}  // namespace rvcap
