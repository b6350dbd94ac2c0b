// Dual-mode kernel equivalence (DESIGN.md §9).
//
// The activity-scheduled kernel must be indistinguishable from the flat
// reference loop at cycle granularity: a skipped tick is one that would
// have been a no-op. These tests run complete workloads — end-to-end
// DMA reconfigurations, the HWICAP baseline, SD staging over SPI +
// FAT32, and fault-injected self-healing activations — once under
// Simulator::Mode::kFlat and once under Mode::kScheduled, and assert
// the outcomes are identical: same now() at every milestone, same
// driver timing, same throughput, and bit-for-bit identical driver
// event streams under the same fault seed. Any divergence here means
// a component broke the activity contract (returned false from a tick
// that could progress next cycle, or mutated state without raising a
// wake).
#include <gtest/gtest.h>

#include <memory>
#include <ostream>

#include "accel/rm_slot.hpp"
#include "accel/stream_cipher.hpp"
#include "bitstream/compress.hpp"
#include "bitstream/generator.hpp"
#include "common/bytes.hpp"
#include "driver/dpr_manager.hpp"
#include "driver/primitives.hpp"
#include "driver/hwicap_driver.hpp"
#include "driver/reconfig_service.hpp"
#include "driver/rvcap_driver.hpp"
#include "driver/scrub_service.hpp"
#include "fabric/seu_process.hpp"
#include "obs/trace.hpp"
#include "sim/fault_injector.hpp"
#include "driver/spi_sd.hpp"
#include "soc/ariane_soc.hpp"
#include "storage/fat32.hpp"
#include "testutil.hpp"

namespace rvcap {
namespace {

using driver::DmaMode;
using driver::DprManager;
using sim::FaultInjector;
using sim::Simulator;
using soc::ArianeSoc;
using soc::SocConfig;
namespace sites = sim::fault_sites;

// ---------------------------------------------------------------------
// Clean reconfigurations: both DPR paths, both completion modes
// ---------------------------------------------------------------------

/// Everything observable about one reconfiguration run.
struct ReconfigOutcome {
  Cycles final_cycle = 0;
  Cycles decision_ticks = 0;
  Cycles reconfig_ticks = 0;
  u64 icap_words = 0;
  u64 frames_committed = 0;
  u64 clint_mtime = 0;
  bool loaded = false;

  bool operator==(const ReconfigOutcome&) const = default;
};

ReconfigOutcome run_rvcap(Simulator::Mode mode, DmaMode dma_mode) {
  SocConfig cfg;
  cfg.sim_mode = mode;
  ArianeSoc soc(cfg);
  driver::RvCapDriver drv(soc.cpu(), soc.plic());
  const auto pbit = bitstream::generate_partial_bitstream(
      soc.device(), soc.rp0(), {accel::kRmIdSobel, "sobel"});
  const Addr staging = soc::MemoryMap::kPbitStagingBase;
  soc.ddr().poke(staging, pbit);
  driver::ReconfigModule m{"", accel::kRmIdSobel, staging,
                           static_cast<u32>(pbit.size())};
  const Status st = drv.init_reconfig_process(m, dma_mode);
  ReconfigOutcome o;
  o.final_cycle = soc.sim().now();
  o.decision_ticks = drv.last_timing().decision_ticks;
  o.reconfig_ticks = drv.last_timing().reconfig_ticks;
  o.icap_words = soc.icap().words_consumed();
  o.frames_committed = soc.icap().frames_committed();
  o.clint_mtime = soc.clint().mtime();
  o.loaded = ok(st) &&
             soc.config_memory().partition_state(soc.rp0_handle()).loaded;
  return o;
}

ReconfigOutcome run_hwicap(Simulator::Mode mode, u32 unroll) {
  SocConfig cfg;
  cfg.sim_mode = mode;
  cfg.with_hwicap = true;
  ArianeSoc soc(cfg);
  driver::HwIcapDriver drv(soc.cpu(), unroll);
  const auto pbit = bitstream::generate_partial_bitstream(
      soc.device(), soc.rp0(), {accel::kRmIdSobel, "sobel"});
  const Addr staging = soc::MemoryMap::kPbitStagingBase;
  soc.ddr().poke(staging, pbit);
  driver::ReconfigModule m{"", accel::kRmIdSobel, staging,
                           static_cast<u32>(pbit.size())};
  const Status st = drv.init_reconfig_process(m);
  ReconfigOutcome o;
  o.final_cycle = soc.sim().now();
  o.reconfig_ticks = drv.last_timing().reconfig_ticks;
  o.icap_words = soc.icap().words_consumed();
  o.frames_committed = soc.icap().frames_committed();
  o.clint_mtime = soc.clint().mtime();
  o.loaded = ok(st) &&
             soc.config_memory().partition_state(soc.rp0_handle()).loaded;
  return o;
}

void expect_same(const ReconfigOutcome& flat, const ReconfigOutcome& sched) {
  EXPECT_EQ(flat.final_cycle, sched.final_cycle);
  EXPECT_EQ(flat.decision_ticks, sched.decision_ticks);
  EXPECT_EQ(flat.reconfig_ticks, sched.reconfig_ticks);
  EXPECT_EQ(flat.icap_words, sched.icap_words);
  EXPECT_EQ(flat.frames_committed, sched.frames_committed);
  EXPECT_EQ(flat.clint_mtime, sched.clint_mtime);
  EXPECT_TRUE(flat.loaded);
  EXPECT_TRUE(sched.loaded);
}

TEST(KernelEquivalence, RvcapInterruptModeIdentical) {
  expect_same(run_rvcap(Simulator::Mode::kFlat, DmaMode::kInterrupt),
              run_rvcap(Simulator::Mode::kScheduled, DmaMode::kInterrupt));
}

TEST(KernelEquivalence, RvcapBlockingModeIdentical) {
  expect_same(run_rvcap(Simulator::Mode::kFlat, DmaMode::kBlocking),
              run_rvcap(Simulator::Mode::kScheduled, DmaMode::kBlocking));
}

TEST(KernelEquivalence, HwicapBaselineIdentical) {
  expect_same(run_hwicap(Simulator::Mode::kFlat, 16),
              run_hwicap(Simulator::Mode::kScheduled, 16));
}

// ---------------------------------------------------------------------
// CPU-paced path: SD -> DDR over SPI + FAT32, then the HWICAP keyhole
// ---------------------------------------------------------------------

/// Everything observable about one SD staging + keyhole program run.
struct SdStagingOutcome {
  Cycles staged_cycle = 0;
  Cycles final_cycle = 0;
  std::vector<u8> staged;
  std::vector<std::pair<std::string, u64>> counters;  // outside sim.*
  bool loaded = false;
};

SdStagingOutcome run_sd_staging(Simulator::Mode mode) {
  SocConfig cfg;
  cfg.sim_mode = mode;
  cfg.with_hwicap = true;
  ArianeSoc soc(cfg);
  // A single-CLB-column partition keeps the timed SPI transfer short.
  const auto small = fabric::Partition("RP_SMALL", {{0, 2}});
  const usize handle = soc.add_partition(small);
  const auto pbit = bitstream::generate_partial_bitstream(
      soc.device(), small, {9, "tiny"});
  storage::MemBlockIo host_io(soc.sd_card());
  EXPECT_EQ(storage::fat32_format(host_io), Status::kOk);
  {
    storage::Fat32Volume host_vol(host_io);
    EXPECT_EQ(host_vol.mount(), Status::kOk);
    EXPECT_EQ(host_vol.write_file("TINY.PB", pbit), Status::kOk);
  }

  // Target side: every SD byte is an SPI shift polled by the CPU.
  driver::SpiSdDriver sd(soc.cpu());
  EXPECT_EQ(sd.init_card(), Status::kOk);
  driver::CpuBlockIo io(sd, soc.sd_card().block_count());
  storage::Fat32Volume vol(io);
  EXPECT_EQ(vol.mount(), Status::kOk);
  driver::RvCapDriver loader(soc.cpu(), soc.plic());
  driver::ReconfigModule mods[] = {{"TINY.PB", 9, 0, 0}};
  EXPECT_EQ(loader.init_RModules(mods, vol), Status::kOk);

  SdStagingOutcome o;
  o.staged_cycle = soc.sim().now();
  o.staged.resize(pbit.size());
  soc.ddr().peek(mods[0].start_address, o.staged);
  EXPECT_EQ(o.staged, pbit);

  driver::HwIcapDriver hw(soc.cpu(), 16);
  EXPECT_EQ(hw.init_reconfig_process(mods[0]), Status::kOk);
  o.final_cycle = soc.sim().now();
  o.loaded = soc.config_memory().partition_state(handle).loaded;
  const obs::CounterRegistry& reg = soc.sim().obs().counters();
  for (usize i = 0; i < reg.counter_count(); ++i) {
    const std::string_view name = reg.counter_name(i);
    if (name.starts_with("sim.")) continue;
    o.counters.emplace_back(std::string(name), reg.counter_value(i));
  }
  return o;
}

TEST(KernelEquivalence, SdStagingIdentical) {
  const SdStagingOutcome flat = run_sd_staging(Simulator::Mode::kFlat);
  const SdStagingOutcome sched = run_sd_staging(Simulator::Mode::kScheduled);
  EXPECT_TRUE(flat.loaded);
  EXPECT_TRUE(sched.loaded);
  EXPECT_EQ(flat.staged_cycle, sched.staged_cycle);
  EXPECT_EQ(flat.final_cycle, sched.final_cycle);
  EXPECT_TRUE(flat.staged == sched.staged);
  ASSERT_EQ(flat.counters.size(), sched.counters.size());
  for (usize i = 0; i < flat.counters.size(); ++i) {
    EXPECT_EQ(flat.counters[i], sched.counters[i]);
  }
}

// ---------------------------------------------------------------------
// Long idle stretches: the time-skip must not shift device time bases
// ---------------------------------------------------------------------

TEST(KernelEquivalence, IdleStretchKeepsClintPhase) {
  ReconfigOutcome out[2];
  int i = 0;
  for (const auto mode :
       {Simulator::Mode::kFlat, Simulator::Mode::kScheduled}) {
    SocConfig cfg;
    cfg.sim_mode = mode;
    ArianeSoc soc(cfg);
    // An odd cycle count lands mid-way through a CLINT divider period,
    // so a lazily derived mtime with the wrong phase would show here.
    soc.sim().run_cycles(1'234'567);
    out[i].final_cycle = soc.sim().now();
    out[i].clint_mtime = soc.clint().mtime();
    ++i;
  }
  EXPECT_EQ(out[0].final_cycle, out[1].final_cycle);
  EXPECT_EQ(out[0].clint_mtime, out[1].clint_mtime);
}

// ---------------------------------------------------------------------
// Fault-injected self-healing: bit-identical driver events per seed
// ---------------------------------------------------------------------

/// Both kernels recorded the same driver events, source by source (the
/// sink is disabled, so the ring holds driver events only).
void expect_same_driver_events(test::DprWorld& flat, test::DprWorld& sched) {
  const auto a = test::events_by_source(flat.soc.sim().obs().sink());
  EXPECT_FALSE(a.empty());
  test::expect_same_streams(a,
                            test::events_by_source(sched.soc.sim().obs().sink()));
}

TEST(KernelEquivalence, DmaFaultRecoveryJournalIdentical) {
  test::DprWorld flat(Simulator::Mode::kFlat);
  test::DprWorld sched(Simulator::Mode::kScheduled);
  flat.fi.arm(sites::kDmaMm2sSlvErr, /*count=*/1);
  sched.fi.arm(sites::kDmaMm2sSlvErr, /*count=*/1);
  ASSERT_EQ(flat.mgr.activate("sobel"), Status::kOk);
  ASSERT_EQ(sched.mgr.activate("sobel"), Status::kOk);
  EXPECT_EQ(flat.soc.sim().now(), sched.soc.sim().now());
  EXPECT_EQ(flat.mgr.stats().recoveries, 1u);
  EXPECT_EQ(sched.mgr.stats().recoveries, 1u);
  expect_same_driver_events(flat, sched);
}

TEST(KernelEquivalence, IcapCorruptionRecoveryJournalIdentical) {
  test::DprWorld flat(Simulator::Mode::kFlat);
  test::DprWorld sched(Simulator::Mode::kScheduled);
  flat.fi.arm(sites::kIcapCrcCorrupt, /*count=*/1);
  sched.fi.arm(sites::kIcapCrcCorrupt, /*count=*/1);
  ASSERT_EQ(flat.mgr.activate("sobel"), Status::kOk);
  ASSERT_EQ(sched.mgr.activate("sobel"), Status::kOk);
  EXPECT_EQ(flat.soc.sim().now(), sched.soc.sim().now());
  expect_same_driver_events(flat, sched);
  // The injected-fault streams must also have advanced identically:
  // the scheduled kernel issues the same should_fire() queries in the
  // same order, or the seeds would desynchronize.
  EXPECT_EQ(flat.fi.queries(sites::kIcapCrcCorrupt),
            sched.fi.queries(sites::kIcapCrcCorrupt));
  EXPECT_EQ(flat.fi.total_fires(), sched.fi.total_fires());
}

TEST(KernelEquivalence, BackToBackActivationsIdentical) {
  // Module swaps exercise decouple/recouple, RM slot wake paths and
  // the already-active fast path in both kernels.
  test::DprWorld flat(Simulator::Mode::kFlat);
  test::DprWorld sched(Simulator::Mode::kScheduled);
  for (const char* name : {"sobel", "median", "median", "sobel"}) {
    ASSERT_EQ(flat.mgr.activate(name), Status::kOk);
    ASSERT_EQ(sched.mgr.activate(name), Status::kOk);
    EXPECT_EQ(flat.soc.sim().now(), sched.soc.sim().now()) << name;
  }
  EXPECT_EQ(flat.mgr.stats().reconfigurations,
            sched.mgr.stats().reconfigurations);
  EXPECT_EQ(flat.mgr.stats().already_active_hits,
            sched.mgr.stats().already_active_hits);
}

// ---------------------------------------------------------------------
// Background SEU process + scrub repair: identical histories per seed
// ---------------------------------------------------------------------

/// Everything observable about one radiation-under-scrub run.
struct SeuOutcome {
  Cycles final_cycle = 0;
  std::vector<fabric::SeuProcess::Event> events;
  test::EventStreams driver_events;
  u64 dropped_events = 0;
  u64 landed = 0;
  u64 detections = 0;
  u64 rewrites = 0;
  u64 reloads = 0;
  u64 repaired = 0;
  u64 self_cancelled = 0;
  u64 passes = 0;
  u64 mttd_total = 0;
  u64 mttr_total = 0;
  u64 upset_queries = 0;
};

SeuOutcome run_seu(Simulator::Mode mode) {
  SocConfig cfg;
  cfg.sim_mode = mode;
  ArianeSoc soc(cfg);
  driver::RvCapDriver drv(soc.cpu(), soc.plic());
  FaultInjector fi(0xBEEF);
  soc.attach_fault_injector(&fi);
  DprManager mgr(drv, soc.config_memory(), soc.rp0_handle(), nullptr);
  mgr.set_fault_injector(&fi);
  const auto pbit = bitstream::generate_partial_bitstream(
      soc.device(), soc.rp0(), {accel::kRmIdSobel, "sobel"});
  soc.ddr().poke(0x8A00'0000, pbit);
  EXPECT_EQ(mgr.register_staged("sobel", accel::kRmIdSobel, 0x8A00'0000,
                                static_cast<u32>(pbit.size())),
            Status::kOk);

  driver::ReconfigService svc(mgr, driver::ReconfigService::Config{});
  driver::ScrubService::Config sc;
  sc.cmd_staging = 0x8C00'0000;
  sc.rb_buffer = 0x8D00'0000;
  sc.frames_per_slice = 128;
  driver::ScrubService scrub(drv, soc.config_memory(), svc, sc);
  scrub.watch_partition(soc.rp0_handle(), "sobel");
  scrub.install_upset_feed();

  driver::ReconfigService::ActivationRequest req;
  req.module = "sobel";
  req.priority = 1;
  EXPECT_EQ(svc.submit(req, nullptr), Status::kOk);
  svc.drain();

  fabric::SeuProcess::Config pc;
  pc.mean_cycles = 30'000;
  pc.targets = {soc.rp0_handle()};
  fabric::SeuProcess seu("seu0", soc.config_memory(), fi, pc);
  soc.sim().add(&seu);
  fi.arm(sites::kSeuUpset, /*count=*/5);

  // Scrub until the armed upset budget has fired out and every landed
  // hit is resolved (each pass advances sim time, so pending events on
  // the wheel get their chance to land).
  for (int pass = 0; pass < 20; ++pass) {
    if (fi.fires(sites::kSeuUpset) >= 5 && scrub.pending_upsets() == 0) {
      break;
    }
    EXPECT_EQ(scrub.scrub_pass(), Status::kOk);
  }
  EXPECT_EQ(scrub.pending_upsets(), 0u);

  SeuOutcome o;
  o.final_cycle = soc.sim().now();
  o.events = seu.log();
  o.driver_events = test::events_by_source(soc.sim().obs().sink());
  o.dropped_events = soc.sim().obs().sink().dropped_events();
  o.landed = seu.landed();
  o.detections = scrub.stats().detections;
  o.rewrites = scrub.stats().frame_rewrites;
  o.reloads = scrub.stats().partition_reloads;
  o.repaired = scrub.stats().upsets_repaired;
  o.self_cancelled = scrub.stats().upsets_self_cancelled;
  o.passes = scrub.stats().passes;
  o.mttd_total = scrub.stats().mttd_cycles_total;
  o.mttr_total = scrub.stats().mttr_cycles_total;
  o.upset_queries = fi.queries(sites::kSeuUpset);
  return o;
}

TEST(KernelEquivalence, SeuScrubRepairHistoryIdentical) {
  const SeuOutcome flat = run_seu(Simulator::Mode::kFlat);
  const SeuOutcome sched = run_seu(Simulator::Mode::kScheduled);

  // The run is non-vacuous: upsets landed and repairs happened.
  EXPECT_GT(flat.landed, 0u);
  const auto scrub_events = flat.driver_events.find("scrub_service");
  ASSERT_NE(scrub_events, flat.driver_events.end());
  usize verdicts = 0;
  for (const obs::TraceEvent& e : scrub_events->second) {
    verdicts += e.kind == obs::EventKind::kScrubRewrite ||
                e.kind == obs::EventKind::kScrubRewriteFail ||
                e.kind == obs::EventKind::kScrubReload ||
                e.kind == obs::EventKind::kScrubReadFail;
  }
  EXPECT_GT(verdicts, 0u);

  // Same seed, different kernel: the upset schedule must be identical
  // to the cycle — the SeuProcess rides the time wheel, so a wake
  // delivered early or late would shift every `at` below.
  EXPECT_EQ(flat.final_cycle, sched.final_cycle);
  ASSERT_EQ(flat.events.size(), sched.events.size());
  for (usize i = 0; i < flat.events.size(); ++i) {
    EXPECT_EQ(flat.events[i].at, sched.events[i].at) << i;
    EXPECT_EQ(flat.events[i].fa, sched.events[i].fa) << i;
    EXPECT_EQ(flat.events[i].word, sched.events[i].word) << i;
    EXPECT_EQ(flat.events[i].bit, sched.events[i].bit) << i;
    EXPECT_EQ(flat.events[i].landed, sched.events[i].landed) << i;
  }

  // Detection and repair history, including the cycle stamps feeding
  // MTTD/MTTR, must match event for event in every driver source — and
  // be complete: a wrapped ring would compare only its newest events.
  EXPECT_EQ(flat.dropped_events, 0u);
  EXPECT_EQ(sched.dropped_events, 0u);
  test::expect_same_streams(flat.driver_events, sched.driver_events);
  EXPECT_EQ(flat.landed, sched.landed);
  EXPECT_EQ(flat.detections, sched.detections);
  EXPECT_EQ(flat.rewrites, sched.rewrites);
  EXPECT_EQ(flat.reloads, sched.reloads);
  EXPECT_EQ(flat.repaired, sched.repaired);
  EXPECT_EQ(flat.self_cancelled, sched.self_cancelled);
  EXPECT_EQ(flat.passes, sched.passes);
  EXPECT_EQ(flat.mttd_total, sched.mttd_total);
  EXPECT_EQ(flat.mttr_total, sched.mttr_total);
  EXPECT_EQ(flat.upset_queries, sched.upset_queries);
}

// ---------------------------------------------------------------------
// Trace-stream equivalence: the observability layer sees one history
// ---------------------------------------------------------------------

/// Full event stream of a traced reconfiguration: wrap-proof digest,
/// lifetime count, and the retained ring for entry-level diffing.
struct TraceOutcome {
  u64 digest = 0;
  u64 total = 0;
  std::vector<obs::TraceEvent> events;
  std::vector<std::string> sources;
};

TraceOutcome run_traced_rvcap(Simulator::Mode mode, DmaMode dma_mode) {
  SocConfig cfg;
  cfg.sim_mode = mode;
  ArianeSoc soc(cfg);
  soc.sim().obs().sink().set_enabled(true);
  driver::RvCapDriver drv(soc.cpu(), soc.plic());
  const auto pbit = bitstream::generate_partial_bitstream(
      soc.device(), soc.rp0(), {accel::kRmIdSobel, "sobel"});
  const Addr staging = soc::MemoryMap::kPbitStagingBase;
  soc.ddr().poke(staging, pbit);
  driver::ReconfigModule m{"", accel::kRmIdSobel, staging,
                           static_cast<u32>(pbit.size())};
  EXPECT_TRUE(ok(drv.init_reconfig_process(m, dma_mode)));
  const obs::TraceSink& sink = soc.sim().obs().sink();
  TraceOutcome o;
  o.digest = sink.digest();
  o.total = sink.total_events();
  o.events.assign(sink.events().begin(), sink.events().end());
  o.sources = sink.sources();
  return o;
}

TEST(KernelEquivalence, TraceStreamIdentical) {
  if (!obs::trace_compiled_in()) GTEST_SKIP() << "built with RVCAP_NO_TRACE";
  for (const auto dma_mode : {DmaMode::kInterrupt, DmaMode::kBlocking}) {
    const TraceOutcome flat =
        run_traced_rvcap(Simulator::Mode::kFlat, dma_mode);
    const TraceOutcome sched =
        run_traced_rvcap(Simulator::Mode::kScheduled, dma_mode);

    // A reconfiguration is trace-dense: far more events than the ring
    // retains, so the digest (not the ring) is the real equivalence
    // check. The ring suffix is diffed too for a readable failure.
    EXPECT_GT(flat.total, 0u);
    EXPECT_EQ(flat.sources, sched.sources);
    EXPECT_EQ(flat.total, sched.total);
    ASSERT_EQ(flat.events.size(), sched.events.size());
    for (usize i = 0; i < flat.events.size(); ++i) {
      const obs::TraceEvent& a = flat.events[i];
      const obs::TraceEvent& b = sched.events[i];
      ASSERT_TRUE(a.ts == b.ts && a.kind == b.kind && a.src == b.src &&
                  a.a0 == b.a0 && a.a1 == b.a1 && a.a2 == b.a2)
          << "ring entry " << i << ": flat {ts=" << a.ts << ", "
          << obs::event_name(a.kind) << "} vs sched {ts=" << b.ts << ", "
          << obs::event_name(b.kind) << "}";
    }
    EXPECT_EQ(flat.digest, sched.digest);
  }
}

// ---------------------------------------------------------------------
// Mid-run mode switching stays consistent
// ---------------------------------------------------------------------

TEST(KernelEquivalence, ModeSwitchMidRunMatchesFlat) {
  // Reference: pure flat run. Candidate: flat for the first half of
  // the reconfiguration's setup, then switched to scheduled. The final
  // outcome must match the reference exactly.
  const ReconfigOutcome ref =
      run_rvcap(Simulator::Mode::kFlat, DmaMode::kInterrupt);

  SocConfig cfg;
  cfg.sim_mode = Simulator::Mode::kFlat;
  ArianeSoc soc(cfg);
  driver::RvCapDriver drv(soc.cpu(), soc.plic());
  const auto pbit = bitstream::generate_partial_bitstream(
      soc.device(), soc.rp0(), {accel::kRmIdSobel, "sobel"});
  const Addr staging = soc::MemoryMap::kPbitStagingBase;
  soc.ddr().poke(staging, pbit);
  soc.sim().run_cycles(1000);  // some flat-mode history first
  soc.sim().set_mode(Simulator::Mode::kScheduled);
  driver::ReconfigModule m{"", accel::kRmIdSobel, staging,
                           static_cast<u32>(pbit.size())};
  ASSERT_TRUE(ok(drv.init_reconfig_process(m, DmaMode::kInterrupt)));
  EXPECT_EQ(soc.sim().now() - 1000, ref.final_cycle);
  EXPECT_EQ(drv.last_timing().reconfig_ticks, ref.reconfig_ticks);
  EXPECT_EQ(soc.icap().frames_committed(), ref.frames_committed);
}

// ---------------------------------------------------------------------
// MMIO register windows: exact round trips on all four CPU-side windows
// ---------------------------------------------------------------------

u64 counter_or_none(ArianeSoc& soc, std::string_view name) {
  const obs::CounterRegistry& c = soc.sim().obs().counters();
  const usize i = c.counter_index(name);
  return i < c.counter_count() ? c.counter_value(i) : ~u64{0};
}

/// One CPU register access: cycles from the cycle it leaves the core
/// (after uncached_access_core_cycles) to its return, and the value a
/// load returned.
struct Access {
  Cycles cycles = 0;
  u64 data = 0;

  bool operator==(const Access&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Access& a) {
  return os << "{" << a.cycles << ", 0x" << std::hex << a.data << std::dec
            << "}";
}

template <typename Op>
Access mmio_access(ArianeSoc& soc, Op&& op) {
  const Cycles t0 =
      soc.sim().now() + soc.cpu().timing().uncached_access_core_cycles;
  const u64 data = op(soc.cpu());
  return {soc.sim().now() - t0, data};
}

Access mmio_load32(ArianeSoc& soc, Addr a) {
  return mmio_access(soc, [a](cpu::CpuContext& c) {
    return u64{c.load32_uncached(a)};
  });
}

Access mmio_load64(ArianeSoc& soc, Addr a) {
  return mmio_access(soc,
                     [a](cpu::CpuContext& c) { return c.load64_uncached(a); });
}

Access mmio_store32(ArianeSoc& soc, Addr a, u32 v) {
  return mmio_access(soc, [a, v](cpu::CpuContext& c) {
    c.store32_uncached(a, v);
    return u64{0};
  });
}

/// One register window: a 32-bit register with address bit 2 set (the
/// high lane of the 64-bit bus) and an 8-byte aligned register pair.
struct MmioWindow {
  Addr reg32;
  Addr reg64;
};

constexpr MmioWindow kPeriphWindow{0x0C00'0004, 0x0C00'0008};  // PLIC prio
constexpr MmioWindow kHwicapWindow{0x4000'001C, 0x4000'0028};  // GIER; IER
constexpr MmioWindow kDmaWindow{0x4100'001C, 0x4100'0048};     // SA_MSB; DA
constexpr MmioWindow kRpWindow{0x4200'0004, 0x4200'0000};      // status; ctl

std::unique_ptr<ArianeSoc> mmio_soc(Simulator::Mode mode) {
  SocConfig cfg;
  cfg.sim_mode = mode;
  cfg.with_hwicap = true;
  return std::make_unique<ArianeSoc>(cfg);
}

/// Every access kind the CPU issues to a register window, in a fixed
/// order, each issued as soon as the previous one returned.
std::vector<Access> mmio_script(Simulator::Mode mode, const MmioWindow& w) {
  auto soc = mmio_soc(mode);
  std::vector<Access> out;
  out.push_back(mmio_store32(*soc, w.reg32, 0x5));
  out.push_back(mmio_load32(*soc, w.reg32));
  out.push_back(mmio_store32(*soc, w.reg64, 0x1));
  out.push_back(mmio_store32(*soc, w.reg64 + 4, 0x6));
  out.push_back(mmio_load64(*soc, w.reg64));
  // Back to back, core cost included.
  const Cycles t0 = soc->sim().now();
  soc->cpu().store32_uncached(w.reg32, 0x3);
  soc->cpu().store32_uncached(w.reg32, 0x2);
  const u32 v = soc->cpu().load32_uncached(w.reg32);
  const u64 v64 = soc->cpu().load64_uncached(w.reg64);
  out.push_back({soc->sim().now() - t0, (u64{v} << 32) ^ v64});
  EXPECT_EQ(soc->cpu().bus_errors(), 0u);
  return out;
}

void expect_mmio_script(const MmioWindow& w,
                        const std::vector<Access>& expected) {
  for (const auto mode :
       {Simulator::Mode::kFlat, Simulator::Mode::kScheduled}) {
    const std::vector<Access> got = mmio_script(mode, w);
    ASSERT_EQ(got.size(), expected.size());
    for (usize i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], expected[i])
          << "access " << i << (mode == Simulator::Mode::kFlat
                                     ? " (flat)" : " (scheduled)");
    }
  }
}

// Cycles pinned from the converter chain the timed register call
// reproduces: a response crosses 5 registered hops back from a
// peripheral (address decoder, AXI4-Lite link, protocol converter, AXI
// link, width converter) and 4 from the other windows, which have no
// window decode. A register block answers one cycle after a request
// reaches it, and a 64-bit read's halves are served two cycles apart.
TEST(MmioLatency, PeripheralWindow) {
  expect_mmio_script(kPeriphWindow, {{9, 0},
                                     {8, 5},
                                     {9, 0},
                                     {9, 0},
                                     {10, 0x6'0000'0001},
                                     {180, 0x4'0000'0001}});
}

TEST(MmioLatency, HwicapWindow) {
  expect_mmio_script(kHwicapWindow, {{8, 0},
                                     {7, 0},
                                     {8, 0},
                                     {8, 0},
                                     {9, 0x1},
                                     {176, 0x1}});
}

TEST(MmioLatency, DmaControlWindow) {
  expect_mmio_script(kDmaWindow, {{8, 0},
                                  {7, 5},
                                  {8, 0},
                                  {8, 0},
                                  {9, 0x6'0000'0001},
                                  {176, 0x4'0000'0001}});
}

TEST(MmioLatency, RpControlWindow) {
  expect_mmio_script(kRpWindow, {{8, 0},
                                 {7, 4},
                                 {8, 0},
                                 {8, 0},
                                 {9, 0x5'0000'0001},
                                 {176, 0x1}});
}

TEST(MmioLatency, UnmappedPeripheralAddressGetsDecErr) {
  // The window decoder answers in the request cycle, one hop closer to
  // the CPU than a device; the second half of a 64-bit read decodes one
  // cycle after the first. The bus event is main_xbar's, as for any
  // register access; its decode-error counter is for its own windows.
  constexpr Addr kHole = 0x0300'0000;  // inside kPeripherals, no device
  for (const auto mode :
       {Simulator::Mode::kFlat, Simulator::Mode::kScheduled}) {
    auto soc = mmio_soc(mode);
    obs::TraceSink& sink = soc->sim().obs().sink();
    sink.set_enabled(true);
    EXPECT_EQ(mmio_load32(*soc, kHole + 4), (Access{6, 0}));
    EXPECT_EQ(mmio_load64(*soc, kHole), (Access{7, 0}));
    EXPECT_EQ(mmio_store32(*soc, kHole + 4, 1), (Access{7, 0}));
    EXPECT_EQ(soc->cpu().bus_errors(), 3u);
    EXPECT_EQ(counter_or_none(*soc, "main_xbar.decode_errors"), 0u);
    if (!obs::trace_compiled_in()) continue;
    std::vector<u64> events;
    for (const obs::TraceEvent& e : sink.events()) {
      EXPECT_EQ(sink.source_name(e.src), "main_xbar");
      events.insert(events.end(),
                    {e.ts, static_cast<u64>(e.kind), e.a0, e.a1, e.a2});
    }
    constexpr u64 kRead = static_cast<u64>(obs::EventKind::kAxiRead);
    constexpr u64 kWrite = static_cast<u64>(obs::EventKind::kAxiWrite);
    EXPECT_EQ(events, (std::vector<u64>{41, kRead, kHole + 4, 1, 6,  //
                                        84, kRead, kHole, 1, 7,      //
                                        127, kWrite, kHole + 4, 1, 7}));
  }
}

TEST(MmioLatency, BurstsAndCachedAccessesToARegisterWindowGetDecErr) {
  // Only the uncached 32- and 64-bit accessors reach a register block.
  // A burst or a cached access aimed at one finds no main_xbar window
  // and leaves every register as it was.
  for (const MmioWindow& w :
       {kPeriphWindow, kHwicapWindow, kDmaWindow, kRpWindow}) {
    auto soc = mmio_soc(Simulator::Mode::kScheduled);
    cpu::CpuContext& cpu = soc->cpu();
    cpu.store32_uncached(w.reg32, 0x5);
    cpu.store32_uncached(w.reg64, 0x1);
    cpu.store32_uncached(w.reg64 + 4, 0x6);
    const u32 before32 = cpu.load32_uncached(w.reg32);
    const u64 before64 = cpu.load64_uncached(w.reg64);
    EXPECT_EQ(cpu.load64(w.reg64), 0u);
    cpu.store64(w.reg64, 0);
    std::vector<u8> buf(16, 0xEE);
    cpu.read_buffer(w.reg64, buf);
    EXPECT_EQ(buf, std::vector<u8>(16, 0));
    cpu.write_buffer(w.reg64, std::vector<u8>(16, 0));
    EXPECT_EQ(counter_or_none(*soc, "main_xbar.decode_errors"), 4u);
    // One error per response beat: the read burst answers two.
    EXPECT_EQ(cpu.bus_errors(), 5u);
    EXPECT_EQ(cpu.bus_timeouts(), 0u);
    EXPECT_EQ(cpu.load32_uncached(w.reg32), before32);
    EXPECT_EQ(cpu.load64_uncached(w.reg64), before64);
  }
}

// ---------------------------------------------------------------------
// Memory path: exact CPU and DMA bursts through both crossbars and DDR
// ---------------------------------------------------------------------

/// One memory-path scenario as the SoC sees it: the cycle at each
/// milestone, a digest of the bytes the CPU read, the crossbars'
/// contention census and the DDR controller's beat count.
struct MemOutcome {
  std::vector<Cycles> cycles;
  u32 bytes_crc = 0;
  u64 main_m0_stalls = 0;
  u64 ddr_m0_stalls = 0;
  u64 ddr_m1_stalls = 0;
  u64 ddr_beats = 0;
  u64 bus_errors = 0;

  bool operator==(const MemOutcome&) const = default;
};

std::ostream& operator<<(std::ostream& os, const MemOutcome& o) {
  os << "{cycles {";
  for (const Cycles c : o.cycles) os << c << ", ";
  return os << "}, crc 0x" << std::hex << o.bytes_crc << std::dec
            << ", stalls " << o.main_m0_stalls << "/" << o.ddr_m0_stalls
            << "/" << o.ddr_m1_stalls << ", ddr beats " << o.ddr_beats
            << ", bus errors " << o.bus_errors << "}";
}

u64 counter(ArianeSoc& soc, std::string_view name) {
  const obs::CounterRegistry& c = soc.sim().obs().counters();
  const usize i = c.counter_index(name);
  EXPECT_LT(i, c.counter_count()) << name;
  return i < c.counter_count() ? c.counter_value(i) : 0;
}

void finish(ArianeSoc& soc, MemOutcome& o) {
  o.main_m0_stalls = counter(soc, "main_xbar.m0.stall_cycles");
  o.ddr_m0_stalls = counter(soc, "rvcap.ddr_xbar.m0.stall_cycles");
  o.ddr_m1_stalls = counter(soc, "rvcap.ddr_xbar.m1.stall_cycles");
  o.ddr_beats = soc.ddr().beats_transferred();
  o.bus_errors = soc.cpu().bus_errors();
}

std::vector<u8> pattern(usize n, u8 seed) {
  std::vector<u8> v(n);
  for (usize i = 0; i < n; ++i) v[i] = static_cast<u8>(seed + i * 7 + (i >> 8));
  return v;
}

/// write_buffer then read_buffer of each size at `base` (+3 for the
/// unaligned pass): the cycles of every call and the bytes read back.
MemOutcome cpu_buffers(Simulator::Mode mode, Addr base) {
  SocConfig cfg;
  cfg.sim_mode = mode;
  ArianeSoc soc(cfg);
  cpu::CpuContext& cpu = soc.cpu();
  MemOutcome o;
  u32 crc = 0;
  for (const Addr skew : {Addr{0}, Addr{3}}) {
    for (const usize n : {usize{1}, usize{7}, usize{8}, usize{129},
                          usize{4096}}) {
      const Addr a = base + skew + 0x2000 * (n % 5);
      const std::vector<u8> in = pattern(n, static_cast<u8>(n + skew));
      Cycles t0 = soc.sim().now();
      cpu.write_buffer(a, in);
      o.cycles.push_back(soc.sim().now() - t0);
      std::vector<u8> out(n);
      t0 = soc.sim().now();
      cpu.read_buffer(a, out);
      o.cycles.push_back(soc.sim().now() - t0);
      EXPECT_EQ(out, in) << "n=" << n << " skew=" << skew;
      crc = crc32(out, crc);
    }
  }
  o.bytes_crc = crc;
  o.cycles.push_back(soc.sim().now());
  finish(soc, o);
  return o;
}

/// A CPU ddr_crc over 64 KiB while an MM2S job streams a bitstream
/// into the ICAP through the shared DDR crossbar.
MemOutcome crc_while_mm2s(Simulator::Mode mode) {
  SocConfig cfg;
  cfg.sim_mode = mode;
  ArianeSoc soc(cfg);
  driver::RvCapDriver drv(soc.cpu(), soc.plic());
  cpu::CpuContext& cpu = soc.cpu();
  const auto pbit = bitstream::generate_partial_bitstream(
      soc.device(), soc.rp0(), {accel::kRmIdSobel, "sobel"});
  soc.ddr().poke(soc::MemoryMap::kPbitStagingBase, pbit);
  const std::vector<u8> buf = pattern(64 * 1024, 11);
  soc.ddr().poke(soc::MemoryMap::kImageInBase + 5, buf);
  MemOutcome o;
  drv.decouple_accel(true);
  drv.select_ICAP(true);
  const Addr dma = soc::MemoryMap::kDmaCtrl.base;
  cpu.store32_uncached(dma + rvcap_ctrl::AxiDma::kMm2sCr,
                       rvcap_ctrl::AxiDma::kCrRunStop);
  cpu.store32_uncached(dma + rvcap_ctrl::AxiDma::kMm2sSa,
                       static_cast<u32>(soc::MemoryMap::kPbitStagingBase));
  cpu.store32_uncached(dma + rvcap_ctrl::AxiDma::kMm2sSaMsb, 0);
  cpu.store32_uncached(dma + rvcap_ctrl::AxiDma::kMm2sLength,
                       static_cast<u32>(pbit.size()));
  o.cycles.push_back(soc.sim().now());
  o.bytes_crc =
      driver::ddr_crc(cpu, soc::MemoryMap::kImageInBase + 5,
                      static_cast<u32>(buf.size()));
  EXPECT_EQ(o.bytes_crc, crc32(buf));
  o.cycles.push_back(soc.sim().now());
  EXPECT_FALSE(soc.rvcap().dma().mm2s_idle()) << "CRC outran the MM2S job";
  EXPECT_TRUE(cpu.wait_for([&] { return soc.rvcap().dma().mm2s_idle(); }));
  EXPECT_TRUE(soc.sim().run_until_idle(100'000));
  o.cycles.push_back(soc.sim().now());
  o.cycles.push_back(soc.icap().words_consumed());
  finish(soc, o);
  return o;
}

/// The cipher RM encrypts a buffer in place (MM2S source = S2MM
/// destination), then the CPU reads the result back.
MemOutcome in_place_then_read(Simulator::Mode mode) {
  SocConfig cfg;
  cfg.sim_mode = mode;
  ArianeSoc soc(cfg);
  driver::RvCapDriver drv(soc.cpu(), soc.plic());
  const auto pbit = bitstream::generate_partial_bitstream(
      soc.device(), soc.rp0(), {accel::kRmIdCipher, "cipher"});
  soc.ddr().poke(soc::MemoryMap::kPbitStagingBase, pbit);
  driver::ReconfigModule m{"", accel::kRmIdCipher,
                           soc::MemoryMap::kPbitStagingBase,
                           static_cast<u32>(pbit.size())};
  MemOutcome o;
  EXPECT_EQ(drv.init_reconfig_process(m, DmaMode::kInterrupt), Status::kOk);
  o.cycles.push_back(soc.sim().now());
  drv.rm_reg_write(0, 0x12345678);
  drv.rm_reg_write(1, 0x9ABCDEF0);
  const Addr buf = soc::MemoryMap::kImageInBase;
  const std::vector<u8> plain = pattern(16 * 1024, 3);
  soc.ddr().poke(buf, plain);
  EXPECT_EQ(drv.run_accelerator(buf, static_cast<u32>(plain.size()), buf,
                                static_cast<u32>(plain.size()),
                                DmaMode::kInterrupt),
            Status::kOk);
  o.cycles.push_back(soc.sim().now());
  std::vector<u8> out(plain.size());
  soc.cpu().read_buffer(buf, out);
  o.cycles.push_back(soc.sim().now());
  std::vector<u8> peeked(plain.size());
  soc.ddr().peek(buf, peeked);
  EXPECT_EQ(out, peeked);
  EXPECT_NE(out, plain);
  o.bytes_crc = crc32(out);
  finish(soc, o);
  return o;
}

/// Bursts to an address no window decodes: DECERR beats for a read,
/// one DECERR response for a write.
MemOutcome unmapped_bursts(Simulator::Mode mode) {
  SocConfig cfg;
  cfg.sim_mode = mode;
  ArianeSoc soc(cfg);
  constexpr Addr kHole = 0x6000'0000;
  MemOutcome o;
  std::vector<u8> out(129, 0xAA);
  Cycles t0 = soc.sim().now();
  soc.cpu().read_buffer(kHole + 1, out);
  o.cycles.push_back(soc.sim().now() - t0);
  EXPECT_EQ(out, std::vector<u8>(129, 0));
  t0 = soc.sim().now();
  soc.cpu().write_buffer(kHole, pattern(100, 1));
  o.cycles.push_back(soc.sim().now() - t0);
  o.cycles.push_back(counter(soc, "main_xbar.decode_errors"));
  finish(soc, o);
  return o;
}

void expect_mem(MemOutcome (*run)(Simulator::Mode), const MemOutcome& pinned) {
  for (const auto mode :
       {Simulator::Mode::kFlat, Simulator::Mode::kScheduled}) {
    EXPECT_EQ(run(mode), pinned)
        << (mode == Simulator::Mode::kFlat ? "flat" : "scheduled");
  }
}

MemOutcome ddr_buffers(Simulator::Mode m) {
  return cpu_buffers(m, soc::MemoryMap::kImageOutBase);
}
MemOutcome sram_buffers(Simulator::Mode m) {
  return cpu_buffers(m, soc::MemoryMap::kBootMem.base + 0x100);
}

// Cycles recorded from the per-beat memory path (one beat per channel
// per cycle through main_xbar, rvcap.ddr_xbar and the DDR controller).
// Pairs are write_buffer then read_buffer of 1, 7, 8, 129 and 4096
// bytes, first 8-byte aligned, then at +3; the last entry is the end
// cycle.
TEST(MemoryPath, CpuBuffersOnDdr) {
  expect_mem(ddr_buffers,
             {{14, 19, 14, 19, 14, 19, 43, 53, 928, 1088, 14, 19, 15, 20, 15,
               20, 43, 53, 942, 1107, 4459},
              0x7cae93eb, 0, 0, 0, 2134, 0});
}
TEST(MemoryPath, CpuBuffersOnBootSram) {
  expect_mem(sram_buffers,
             {{3, 3, 3, 3, 3, 3, 21, 21, 576, 576, 3, 3, 4, 4, 4, 4, 21, 21,
               579, 579, 2434},
              0x7cae93eb, 0, 0, 0, 0, 0});
}
// MM2S start, CRC end, MM2S end and ICAP words; the DMA (manager 1 of
// rvcap.ddr_xbar) loses 48 AR arbitrations to the CPU.
TEST(MemoryPath, DdrCrcWhileMm2sStreams) {
  expect_mem(crc_while_mm2s,
             {{395, 35264, 163131, 162724}, 0x84b8ff3e, 0, 0, 48, 89570, 0});
}
// Reconfiguration end, accelerator end, CPU read end.
TEST(MemoryPath, InPlaceAcceleratorThenCpuRead) {
  expect_mem(in_place_then_read,
             {{165239, 169440, 173792}, 0x1bd6727f, 0, 0, 0, 87506, 0});
}
// 17 DECERR read beats and one DECERR write response; the last entry
// is main_xbar's decode-error count.
TEST(MemoryPath, UnmappedBurstGetsDecErr) {
  expect_mem(unmapped_bursts, {{21, 15, 3}, 0, 0, 0, 0, 0, 18});
}


// ---------------------------------------------------------------------
// Stream path: exact per-beat schedule of the DMA -> ICAP datapath
// ---------------------------------------------------------------------

/// Records the cycle of every frame commit: it ticks after the ICAP
/// (registered last) and is woken by every ConfigMemory change, so it
/// sees each commit in the cycle the ICAP made it.
class FrameCommitProbe : public sim::Component {
 public:
  explicit FrameCommitProbe(ArianeSoc& soc)
      : Component("test.frame_probe"), icap_(soc.icap()),
        seen_(soc.icap().frames_committed()) {
    soc.config_memory().add_observer(this);
    soc.sim().add(this);
  }

  bool tick() override {
    const u64 n = icap_.frames_committed();
    if (n != seen_) {
      fold(sim_now());
      fold(n);
      seen_ = n;
      ++commits_;
    }
    return false;
  }

  u64 digest() const { return digest_; }
  u64 commits() const { return commits_; }

 private:
  void fold(u64 v) {
    for (int i = 0; i < 8; ++i) {
      digest_ ^= (v >> (8 * i)) & 0xFF;
      digest_ *= 0x100000001B3ULL;
    }
  }

  const icap::Icap& icap_;
  u64 seen_;
  u64 commits_ = 0;
  u64 digest_ = 0xCBF29CE484222325ULL;
};

/// One stream-path scenario: milestone cycles and case values, the
/// frame-commit schedule, and every stream counter the SoC registers
/// (absent counters read as ~0).
struct StreamOutcome {
  std::vector<u64> values;
  u64 commits = 0;
  u64 commit_digest = 0;
  std::vector<u64> counters;

  bool operator==(const StreamOutcome&) const = default;
};

std::ostream& operator<<(std::ostream& os, const StreamOutcome& o) {
  os << "{{";
  for (const u64 v : o.values) os << v << ", ";
  os << "}, " << o.commits << ", 0x" << std::hex << o.commit_digest
     << std::dec << ", {";
  for (const u64 v : o.counters) os << v << ", ";
  return os << "}}";
}

constexpr const char* kStreamCounters[] = {
    "icap.words",
    "icap.frames",
    "icap.readback_words",
    "icap.desyncs",
    "icap.port_hwm",
    "rvcap.w4.beats",
    "rvcap.w5.beats",
    "rvcap.w6.beats",
    "rvcap.w7.beats",
    "rm_slot.out.beats",
    "rvcap.dma.mm2s_bytes",
    "rvcap.dma.s2mm_bytes",
    "rvcap.dma.mm2s_jobs",
    "rvcap.dma.mm2s_out_hwm",
    "rvcap.dma.s2mm_in_hwm",
    "rvcap.ddr_xbar.m0.stall_cycles",
    "rvcap.ddr_xbar.m1.stall_cycles",
    "main_xbar.m0.stall_cycles",
    "hwicap.words_written",
    "hwicap.write_fifo_hwm",
    "hwicap.read_fifo_hwm",
};

void finish(ArianeSoc& soc, const FrameCommitProbe& probe, StreamOutcome& o) {
  o.values.push_back(soc.sim().now());
  o.commits = probe.commits();
  o.commit_digest = probe.digest();
  for (const char* name : kStreamCounters) {
    o.counters.push_back(counter_or_none(soc, name));
  }
}

driver::ReconfigModule stage_module(ArianeSoc& soc, u32 rm_id, const char* name,
                                    Addr at) {
  const auto pbit = bitstream::generate_partial_bitstream(
      soc.device(), soc.rp0(), {rm_id, name});
  soc.ddr().poke(at, pbit);
  return {"", rm_id, at, static_cast<u32>(pbit.size())};
}

SocConfig stream_config(Simulator::Mode mode, bool with_hwicap = false) {
  SocConfig cfg;
  cfg.sim_mode = mode;
  cfg.with_hwicap = with_hwicap;
  return cfg;
}

void push_timing(const driver::RvCapDriver& drv, StreamOutcome& o) {
  o.values.push_back(drv.last_timing().decision_ticks);
  o.values.push_back(drv.last_timing().reconfig_ticks);
}

/// bench_micro's dma_reconfig load: Sobel into RP0, interrupt mode.
StreamOutcome stream_load(Simulator::Mode mode) {
  ArianeSoc soc(stream_config(mode));
  FrameCommitProbe probe(soc);
  driver::RvCapDriver drv(soc.cpu(), soc.plic());
  const auto m = stage_module(soc, accel::kRmIdSobel, "sobel",
                              soc::MemoryMap::kPbitStagingBase);
  StreamOutcome o;
  EXPECT_EQ(drv.init_reconfig_process(m, DmaMode::kInterrupt), Status::kOk);
  push_timing(drv, o);
  finish(soc, probe, o);
  return o;
}

/// Sobel load, then a 16 KB (32-row) frame through run_accelerator.
StreamOutcome stream_accelerator(Simulator::Mode mode) {
  ArianeSoc soc(stream_config(mode));
  FrameCommitProbe probe(soc);
  driver::RvCapDriver drv(soc.cpu(), soc.plic());
  const auto m = stage_module(soc, accel::kRmIdSobel, "sobel",
                              soc::MemoryMap::kPbitStagingBase);
  StreamOutcome o;
  EXPECT_EQ(drv.init_reconfig_process(m, DmaMode::kInterrupt), Status::kOk);
  o.values.push_back(soc.sim().now());
  drv.rm_reg_write(1, 32);  // height: 32 rows of 512 pixels
  const std::vector<u8> img = pattern(16 * 1024, 5);
  soc.ddr().poke(soc::MemoryMap::kImageInBase, img);
  EXPECT_EQ(drv.run_accelerator(soc::MemoryMap::kImageInBase, 16 * 1024,
                                soc::MemoryMap::kImageOutBase, 16 * 1024,
                                DmaMode::kInterrupt),
            Status::kOk);
  o.values.push_back(soc.sim().now());
  std::vector<u8> out(16 * 1024);
  soc.ddr().peek(soc::MemoryMap::kImageOutBase, out);
  o.values.push_back(crc32(out));
  finish(soc, probe, o);
  return o;
}

/// Sobel load, then every frame of RP0 read back over S2MM.
StreamOutcome stream_readback(Simulator::Mode mode) {
  ArianeSoc soc(stream_config(mode));
  FrameCommitProbe probe(soc);
  driver::RvCapDriver drv(soc.cpu(), soc.plic());
  const auto m = stage_module(soc, accel::kRmIdSobel, "sobel",
                              soc::MemoryMap::kPbitStagingBase);
  StreamOutcome o;
  EXPECT_EQ(drv.init_reconfig_process(m, DmaMode::kInterrupt), Status::kOk);
  o.values.push_back(soc.sim().now());
  u32 words = 0;
  EXPECT_EQ(drv.readback_partition(soc.device(), soc.rp0(), 0x8C00'0000,
                                   0x8D00'0000, &words),
            Status::kOk);
  o.values.push_back(soc.sim().now());
  o.values.push_back(words);
  std::vector<u8> data(usize{words} * 4);
  soc.ddr().peek(0x8D00'0000, data);
  o.values.push_back(crc32(data));
  finish(soc, probe, o);
  return o;
}

/// An RVZ0-compressed Gaussian bitstream through the decompressor.
StreamOutcome stream_compressed(Simulator::Mode mode) {
  ArianeSoc soc(stream_config(mode));
  FrameCommitProbe probe(soc);
  driver::RvCapDriver drv(soc.cpu(), soc.plic());
  const auto pbit = bitstream::generate_partial_bitstream(
      soc.device(), soc.rp0(), {accel::kRmIdGaussian, "g"},
      bitstream::FrameFill::kSparse);
  std::vector<u8> packed;
  EXPECT_EQ(bitstream::compress_bitstream(pbit, &packed), Status::kOk);
  soc.ddr().poke(0x8800'0000, packed);
  const driver::ReconfigModule m{"", accel::kRmIdGaussian, 0x8800'0000,
                                 static_cast<u32>(packed.size())};
  StreamOutcome o;
  EXPECT_EQ(drv.init_reconfig_process_compressed(m, DmaMode::kInterrupt),
            Status::kOk);
  push_timing(drv, o);
  EXPECT_TRUE(soc.sim().run_until_idle(2'000'000));
  o.values.push_back(
      soc.config_memory().partition_state(soc.rp0_handle()).loaded);
  finish(soc, probe, o);
  return o;
}

/// DprManager activations with an MM2S fault mid-burst: the recovery
/// stages and the recovery counts, then the stream counters.
StreamOutcome stream_dma_fault(Simulator::Mode mode, std::string_view site) {
  test::DprWorld w(mode);
  FrameCommitProbe probe(w.soc);
  w.fi.arm(site, FaultInjector::Plan{1, 1.0, 0});
  StreamOutcome o;
  EXPECT_EQ(w.mgr.activate("sobel"), Status::kOk);
  o.values.push_back(w.soc.sim().now());
  for (const auto& e : w.stages()) {
    o.values.push_back(e.mtime);
    o.values.push_back(static_cast<u64>(e.stage));
    o.values.push_back(static_cast<u64>(e.status));
  }
  o.values.push_back(w.mgr.stats().recoveries);
  EXPECT_EQ(w.mgr.activate("median"), Status::kOk);
  finish(w.soc, probe, o);
  return o;
}
StreamOutcome stream_slverr(Simulator::Mode m) {
  return stream_dma_fault(m, sites::kDmaMm2sSlvErr);
}
StreamOutcome stream_early_ioc(Simulator::Mode m) {
  return stream_dma_fault(m, sites::kDmaMm2sEarlyIoc);
}

/// A load polled by firmware: probe_mm2s and two PerfRegs counters
/// every 997 cycles mid-transfer, then a watchdog-fenced load.
StreamOutcome stream_probed(Simulator::Mode mode) {
  ArianeSoc soc(stream_config(mode));
  FrameCommitProbe probe(soc);
  driver::RvCapDriver drv(soc.cpu(), soc.plic());
  cpu::CpuContext& cpu = soc.cpu();
  const auto m = stage_module(soc, accel::kRmIdSobel, "sobel",
                              soc::MemoryMap::kPbitStagingBase);
  const obs::CounterRegistry& reg = soc.sim().obs().counters();
  const u32 words_idx = static_cast<u32>(reg.counter_index("icap.words"));
  const u32 w4_idx = static_cast<u32>(reg.counter_index("rvcap.w4.beats"));
  StreamOutcome o;
  drv.decouple_accel(true);
  drv.select_ICAP(true);
  const Addr dma = soc::MemoryMap::kDmaCtrl.base;
  cpu.store32_uncached(dma + rvcap_ctrl::AxiDma::kMm2sCr,
                       rvcap_ctrl::AxiDma::kCrRunStop);
  cpu.store32_uncached(dma + rvcap_ctrl::AxiDma::kMm2sSa,
                       static_cast<u32>(m.start_address));
  cpu.store32_uncached(dma + rvcap_ctrl::AxiDma::kMm2sSaMsb, 0);
  cpu.store32_uncached(dma + rvcap_ctrl::AxiDma::kMm2sLength, m.pbit_size);
  for (int i = 0; i < 400 && !soc.rvcap().dma().mm2s_idle(); ++i) {
    soc.sim().run_cycles(997);
    const driver::TransferProgress p = drv.probe_mm2s();
    o.values.push_back(p.beats);
    o.values.push_back(p.status);
    o.values.push_back(p.rp_status);
    o.values.push_back(p.mtime);
    drv.perf_select(words_idx);
    o.values.push_back(drv.perf_read());
    drv.perf_select(w4_idx);
    o.values.push_back(drv.perf_read());
  }
  EXPECT_TRUE(soc.sim().run_until_idle(100'000));
  o.values.push_back(soc.sim().now());
  driver::StallWatchdog wd("stream-pin");
  drv.set_watchdog(&wd);
  const auto m2 = stage_module(soc, accel::kRmIdMedian, "median",
                               0x8900'0000);
  EXPECT_EQ(drv.init_reconfig_process(m2, DmaMode::kBlocking), Status::kOk);
  // The hand-started load's IOC is still set: the driver must wait for
  // its own job, so no configuration beat reaches RP0.
  EXPECT_EQ(counter_or_none(soc, "rvcap.w5.beats"), 0u);
  const auto st = soc.config_memory().partition_state(soc.rp0_handle());
  EXPECT_TRUE(st.loaded);
  EXPECT_EQ(st.rm_id, accel::kRmIdMedian);
  push_timing(drv, o);
  finish(soc, probe, o);
  return o;
}

/// A load started by hand and aborted from the RP-control window
/// mid-transfer (the DMA keeps streaming into an unsynced ICAP), then,
/// after the IOC is acknowledged, a full load of another module.
StreamOutcome stream_aborted(Simulator::Mode mode) {
  ArianeSoc soc(stream_config(mode));
  FrameCommitProbe probe(soc);
  driver::RvCapDriver drv(soc.cpu(), soc.plic());
  cpu::CpuContext& cpu = soc.cpu();
  const auto m = stage_module(soc, accel::kRmIdSobel, "sobel",
                              soc::MemoryMap::kPbitStagingBase);
  const u32 words_idx = static_cast<u32>(
      soc.sim().obs().counters().counter_index("icap.words"));
  StreamOutcome o;
  drv.decouple_accel(true);
  drv.select_ICAP(true);
  const Addr dma = soc::MemoryMap::kDmaCtrl.base;
  cpu.store32_uncached(dma + rvcap_ctrl::AxiDma::kMm2sCr,
                       rvcap_ctrl::AxiDma::kCrRunStop);
  cpu.store32_uncached(dma + rvcap_ctrl::AxiDma::kMm2sSa,
                       static_cast<u32>(m.start_address));
  cpu.store32_uncached(dma + rvcap_ctrl::AxiDma::kMm2sSaMsb, 0);
  cpu.store32_uncached(dma + rvcap_ctrl::AxiDma::kMm2sLength, m.pbit_size);
  soc.sim().run_cycles(40'001);
  drv.icap_abort();
  o.values.push_back(soc.sim().now());
  o.values.push_back(soc.icap().frames_committed());
  drv.perf_select(words_idx);
  o.values.push_back(drv.perf_read());
  soc.sim().run_cycles(3);
  drv.icap_abort();  // a second pulse a few cycles later
  o.values.push_back(soc.sim().now());
  EXPECT_TRUE(soc.sim().run_until_idle(400'000));
  o.values.push_back(soc.sim().now());
  o.values.push_back(soc.icap().synced());
  cpu.store32_uncached(dma + rvcap_ctrl::AxiDma::kMm2sSr,
                       rvcap_ctrl::AxiDma::kSrIocIrq);
  const auto m2 = stage_module(soc, accel::kRmIdMedian, "median",
                               0x8900'0000);
  EXPECT_EQ(drv.init_reconfig_process(m2, DmaMode::kInterrupt), Status::kOk);
  push_timing(drv, o);
  finish(soc, probe, o);
  return o;
}

/// An RV-CAP load, then an AXI_HWICAP keyhole program of another
/// module and a HWICAP readback: both controllers share the ICAP's
/// write and read ports.
StreamOutcome stream_shared_ports(Simulator::Mode mode) {
  ArianeSoc soc(stream_config(mode, /*with_hwicap=*/true));
  FrameCommitProbe probe(soc);
  driver::RvCapDriver drv(soc.cpu(), soc.plic());
  driver::HwIcapDriver hw(soc.cpu(), 16);
  const auto m = stage_module(soc, accel::kRmIdSobel, "sobel",
                              soc::MemoryMap::kPbitStagingBase);
  const auto m2 = stage_module(soc, accel::kRmIdMedian, "median",
                               0x8900'0000);
  StreamOutcome o;
  EXPECT_EQ(drv.init_reconfig_process(m, DmaMode::kInterrupt), Status::kOk);
  o.values.push_back(soc.sim().now());
  EXPECT_EQ(hw.init_reconfig_process(m2), Status::kOk);
  o.values.push_back(soc.sim().now());
  const fabric::FrameAddr first = soc.rp0().base_frame(soc.device());
  std::vector<u32> words(2 * fabric::kFrameWords);
  EXPECT_EQ(hw.readback(first, words), Status::kOk);
  o.values.push_back(soc.sim().now());
  o.values.push_back(crc32(std::span<const u8>(
      reinterpret_cast<const u8*>(words.data()), words.size() * 4)));
  finish(soc, probe, o);
  return o;
}

/// Both readers of the ICAP read port in one SoC: an AXI_HWICAP
/// readback, an RV-CAP partition readback over S2MM (through
/// ICAP2AXIS), then another AXI_HWICAP readback.
StreamOutcome stream_both_readers(Simulator::Mode mode) {
  ArianeSoc soc(stream_config(mode, /*with_hwicap=*/true));
  FrameCommitProbe probe(soc);
  driver::RvCapDriver drv(soc.cpu(), soc.plic());
  driver::HwIcapDriver hw(soc.cpu(), 16);
  const auto m = stage_module(soc, accel::kRmIdSobel, "sobel",
                              soc::MemoryMap::kPbitStagingBase);
  StreamOutcome o;
  EXPECT_EQ(drv.init_reconfig_process(m, DmaMode::kInterrupt), Status::kOk);
  o.values.push_back(soc.sim().now());
  const fabric::FrameAddr first = soc.rp0().base_frame(soc.device());
  std::vector<u32> words(2 * fabric::kFrameWords);
  const auto hwicap_readback = [&] {
    EXPECT_EQ(hw.readback(first, words), Status::kOk);
    o.values.push_back(soc.sim().now());
    o.values.push_back(crc32(std::span<const u8>(
        reinterpret_cast<const u8*>(words.data()), words.size() * 4)));
  };
  hwicap_readback();
  u32 n = 0;
  EXPECT_EQ(drv.readback_partition(soc.device(), soc.rp0(), 0x8C00'0000,
                                   0x8D00'0000, &n),
            Status::kOk);
  o.values.push_back(soc.sim().now());
  o.values.push_back(n);
  std::vector<u8> data(usize{n} * 4);
  soc.ddr().peek(0x8D00'0000, data);
  o.values.push_back(crc32(data));
  hwicap_readback();
  finish(soc, probe, o);
  return o;
}

/// An MM2S load with four 16-beat bursts in flight into the ICAP, which
/// takes a 64-bit beat every other cycle: the DMA's 32-beat R FIFO
/// fills, so its bursts cross rvcap.ddr_xbar in pieces, and the CPU's
/// bursts issued mid-load queue behind them at the DDR. Values: MM2S
/// start, CPU write end, CPU read end, CRC of the bytes read, MM2S end,
/// DDR beats.
StreamOutcome mm2s_bursts_in_pieces(Simulator::Mode mode) {
  SocConfig cfg = stream_config(mode);
  cfg.dma.max_outstanding = 4;
  ArianeSoc soc(cfg);
  FrameCommitProbe probe(soc);
  driver::RvCapDriver drv(soc.cpu(), soc.plic());
  cpu::CpuContext& cpu = soc.cpu();
  const auto m = stage_module(soc, accel::kRmIdSobel, "sobel",
                              soc::MemoryMap::kPbitStagingBase);
  StreamOutcome o;
  drv.decouple_accel(true);
  drv.select_ICAP(true);
  const Addr dma = soc::MemoryMap::kDmaCtrl.base;
  cpu.store32_uncached(dma + rvcap_ctrl::AxiDma::kMm2sCr,
                       rvcap_ctrl::AxiDma::kCrRunStop);
  cpu.store32_uncached(dma + rvcap_ctrl::AxiDma::kMm2sSa,
                       static_cast<u32>(m.start_address));
  cpu.store32_uncached(dma + rvcap_ctrl::AxiDma::kMm2sSaMsb, 0);
  cpu.store32_uncached(dma + rvcap_ctrl::AxiDma::kMm2sLength, m.pbit_size);
  o.values.push_back(soc.sim().now());
  soc.sim().run_cycles(700);
  const Addr buf = soc::MemoryMap::kImageInBase + 3;
  const std::vector<u8> in = pattern(4 * 1024 + 5, 13);
  cpu.write_buffer(buf, in);
  o.values.push_back(soc.sim().now());
  std::vector<u8> out(in.size());
  cpu.read_buffer(buf, out);
  o.values.push_back(soc.sim().now());
  EXPECT_EQ(out, in);
  o.values.push_back(crc32(out));
  EXPECT_FALSE(soc.rvcap().dma().mm2s_idle()) << "CPU outran the MM2S job";
  EXPECT_TRUE(cpu.wait_for([&] { return soc.rvcap().dma().mm2s_idle(); }));
  EXPECT_TRUE(soc.sim().run_until_idle(100'000));
  o.values.push_back(soc.sim().now());
  o.values.push_back(soc.ddr().beats_transferred());
  finish(soc, probe, o);
  return o;
}

void expect_stream(StreamOutcome (*run)(Simulator::Mode),
                   const StreamOutcome& pinned) {
  for (const auto mode :
       {Simulator::Mode::kFlat, Simulator::Mode::kScheduled}) {
    EXPECT_EQ(run(mode), pinned)
        << (mode == Simulator::Mode::kFlat ? "flat" : "scheduled");
  }
}

constexpr u64 kNone = ~u64{0};

// Values recorded from the per-beat stream path (the DMA, w4, the
// stream switch and the decompressor one 64-bit beat per cycle,
// AXIS2ICAP and the ICAP one 32-bit word per cycle). Counters are in
// kStreamCounters order; ~0 marks a counter the SoC does not have.
TEST(StreamPath, DmaReconfigLoad) {
  expect_stream(stream_load, {{90, 8154, 165239}, 805, 0x3b66fb7e1d3c655c,
      {162724, 805, 0, 1, 1, 81362, 0, 0, 0, 0, 650892, 0, 1, 8, 0, 0, 0, 0,
      kNone, kNone, kNone}});
}
TEST(StreamPath, AcceleratorFrame) {
  expect_stream(stream_accelerator, {{165239, 169855, 3096761186, 169855},
      805, 0x3b66fb7e1d3c655c, {162724, 805, 0, 1, 1, 83410, 2048, 2048,
      2048, 2048, 667276, 16384, 2, 8, 1, 0, 0, 0, kNone, kNone, kNone}});
}
TEST(StreamPath, PartitionReadbackOverS2mm) {
  expect_stream(stream_readback, {{165239, 328854, 162610, 1740778753,
      328854}, 805, 0x3b66fb7e1d3c655c, {162742, 805, 162610, 2, 4, 81371,
      0, 0, 81305, 0, 650964, 650440, 2, 8, 1, 0, 0, 0, kNone, kNone,
      kNone}});
}
TEST(StreamPath, CompressedBitstream) {
  expect_stream(stream_compressed, {{87, 8168, 1, 165543}, 805,
      0x422fdb7fb171e711, {162723, 805, 0, 1, 1, 15757, 0, 0, 0, 0, 126056,
      0, 1, 8, 0, 0, 0, 0, kNone, kNone, kNone}});
}
TEST(StreamPath, Mm2sSlvErrMidBurst) {
  expect_stream(stream_slverr, {{2389046, 53285, 2, 7, 119449, 7, 0, 1,
      2889960}, 2693, 0x867a3acbf261829a, {544398, 2693, 162610, 4, 4,
      272199, 0, 0, 81305, 0, 1952748, 650440, 4, 8, 1, 0, 0, 0, 0, 0, 0}});
}
TEST(StreamPath, Mm2sEarlyIocMidBurst) {
  expect_stream(stream_early_ioc, {{2346718, 51168, 4, 7, 117333, 7, 0, 1,
      2847632}, 2483, 0x67010fbf8a5f735b, {502072, 2483, 162610, 4, 4,
      251036, 0, 0, 81305, 0, 2603640, 650440, 5, 8, 1, 0, 0, 0, 0, 0, 0}});
}
TEST(StreamPath, FirmwareProbesMidTransfer) {
  expect_stream(stream_probed, {{530, 0, 23, 80, 1328, 741, 1292, 0, 23,
      156, 2852, 1503, 2054, 0, 23, 232, 4376, 2265, 2816, 0, 23, 308, 5900,
      3027, 3578, 0, 23, 384, 7424, 3789, 4340, 0, 23, 461, 8948, 4551,
      5102, 0, 23, 537, 10472, 5313, 5864, 0, 23, 613, 11996, 6075, 6626, 0,
      23, 689, 13520, 6837, 7388, 0, 23, 765, 15044, 7599, 8150, 0, 23, 842,
      16568, 8361, 8912, 0, 23, 918, 18092, 9123, 9674, 0, 23, 994, 19616,
      9885, 10436, 0, 23, 1070, 21140, 10647, 11198, 0, 23, 1146, 22664,
      11409, 11960, 0, 23, 1223, 24188, 12171, 12722, 0, 23, 1299, 25712,
      12933, 13484, 0, 23, 1375, 27236, 13695, 14246, 0, 23, 1451, 28760,
      14457, 15008, 0, 23, 1527, 30284, 15219, 15770, 0, 23, 1604, 31808,
      15981, 16532, 0, 23, 1680, 33332, 16743, 17294, 0, 23, 1756, 34856,
      17505, 18056, 0, 23, 1832, 36380, 18267, 18818, 0, 23, 1908, 37904,
      19029, 19580, 0, 23, 1985, 39428, 19791, 20342, 0, 23, 2061, 40952,
      20553, 21104, 0, 23, 2137, 42476, 21315, 21866, 0, 23, 2213, 44000,
      22077, 22628, 0, 23, 2289, 45524, 22839, 23390, 0, 23, 2366, 47048,
      23601, 24152, 0, 23, 2442, 48572, 24363, 24914, 0, 23, 2518, 50096,
      25125, 25676, 0, 23, 2594, 51620, 25887, 26438, 0, 23, 2670, 53144,
      26649, 27200, 0, 23, 2747, 54668, 27411, 27962, 0, 23, 2823, 56192,
      28173, 28724, 0, 23, 2899, 57716, 28935, 29486, 0, 23, 2975, 59240,
      29697, 30248, 0, 23, 3051, 60764, 30459, 31010, 0, 23, 3128, 62288,
      31221, 31772, 0, 23, 3204, 63812, 31983, 32534, 0, 23, 3280, 65336,
      32745, 33296, 0, 23, 3356, 66860, 33507, 34058, 0, 23, 3432, 68384,
      34269, 34820, 0, 23, 3509, 69908, 35031, 35582, 0, 23, 3585, 71432,
      35793, 36344, 0, 23, 3661, 72956, 36555, 37106, 0, 23, 3737, 74480,
      37317, 37868, 0, 23, 3813, 76004, 38079, 38630, 0, 23, 3890, 77528,
      38841, 39392, 0, 23, 3966, 79052, 39603, 40154, 0, 23, 4042, 80576,
      40365, 40916, 0, 23, 4118, 82100, 41127, 41678, 0, 23, 4194, 83624,
      41889, 42440, 0, 23, 4271, 85148, 42651, 43202, 0, 23, 4347, 86672,
      43413, 43964, 0, 23, 4423, 88196, 44175, 44726, 0, 23, 4499, 89720,
      44937, 45488, 0, 23, 4575, 91244, 45699, 46250, 0, 23, 4652, 92768,
      46461, 47012, 0, 23, 4728, 94292, 47223, 47774, 0, 23, 4804, 95816,
      47985, 48536, 0, 23, 4880, 97340, 48747, 49298, 0, 23, 4956, 98864,
      49509, 50060, 0, 23, 5033, 100388, 50271, 50822, 0, 23, 5109, 101912,
      51033, 51584, 0, 23, 5185, 103436, 51795, 52346, 0, 23, 5261, 104960,
      52557, 53108, 0, 23, 5337, 106484, 53319, 53870, 0, 23, 5414, 108008,
      54081, 54632, 0, 23, 5490, 109532, 54843, 55394, 0, 23, 5566, 111056,
      55605, 56156, 0, 23, 5642, 112580, 56367, 56918, 0, 23, 5718, 114104,
      57129, 57680, 0, 23, 5795, 115628, 57891, 58442, 0, 23, 5871, 117152,
      58653, 59204, 0, 23, 5947, 118676, 59415, 59966, 0, 23, 6023, 120200,
      60177, 60728, 0, 23, 6099, 121724, 60939, 61490, 0, 23, 6176, 123248,
      61701, 62252, 0, 23, 6252, 124772, 62463, 63014, 0, 23, 6328, 126296,
      63225, 63776, 0, 23, 6404, 127820, 63987, 64538, 0, 23, 6480, 129344,
      64749, 65300, 0, 23, 6557, 130868, 65511, 66062, 0, 23, 6633, 132392,
      66273, 66824, 0, 23, 6709, 133916, 67035, 67586, 0, 23, 6785, 135440,
      67797, 68348, 0, 23, 6861, 136964, 68559, 69110, 0, 23, 6938, 138488,
      69321, 69872, 0, 23, 7014, 140012, 70083, 70634, 0, 23, 7090, 141536,
      70845, 71396, 0, 23, 7166, 143060, 71607, 72158, 0, 23, 7242, 144584,
      72369, 72920, 0, 23, 7319, 146108, 73131, 73682, 0, 23, 7395, 147632,
      73893, 74444, 0, 23, 7471, 149156, 74655, 75206, 0, 23, 7547, 150680,
      75417, 75968, 0, 23, 7623, 152204, 76179, 76730, 0, 23, 7700, 153728,
      76941, 77492, 0, 23, 7776, 155252, 77703, 78254, 0, 23, 7852, 156776,
      78465, 79016, 0, 23, 7928, 158300, 79227, 79778, 0, 23, 8004, 159824,
      79989, 80540, 0, 23, 8081, 161348, 80751, 81302, 0, 23, 8157, 162724,
      81362, 163463, 90, 8159, 328746}, 1610, 0xdaced916b87e6703, {325448,
      1610, 0, 2, 1, 162724, 0, 0, 0, 0, 1301784, 0, 2, 8, 0, 0, 0, 0, kNone,
      kNone, kNone}});
}
TEST(StreamPath, IcapAbortMidTransfer) {
  expect_stream(stream_aborted, {{40483, 198, 40158, 40706, 163088, 0, 90,
      8155, 328326}, 1003, 0x4a52397385a86b6, {325405, 1003, 0, 1, 1,
      162724, 0, 0, 0, 0, 1301784, 0, 2, 8, 0, 0, 0, 0, kNone, kNone,
      kNone}});
}
TEST(StreamPath, HwicapSharesTheIcapPorts) {
  expect_stream(stream_shared_ports, {{165239, 8123950, 8177880, 1033266137,
      8177880}, 1610, 0x7d42440b8e642c8c, {325463, 1610, 404, 3, 1, 81362,
      0, 0, 0, 0, 650892, 0, 1, 8, 0, 0, 0, 0, 162739, 1024, 128}});
}

TEST(StreamPath, BothReadersShareTheReadPort) {
  expect_stream(stream_both_readers, {{165239, 219169, 4101703567, 382784,
      162610, 1740778753, 436714, 4101703567, 436714}, 805,
      0x3b66fb7e1d3c655c, {162774, 805, 163418, 4, 4, 81371, 0, 0, 81305, 0,
      650964, 650440, 2, 8, 1, 0, 0, 0, 32, 12, 128}});
}

// Recorded from the per-beat R and W FIFOs, before bursts were queued as
// spans.
TEST(MemoryPath, BurstsCrossTheDdrCrossbarInPieces) {
  expect_stream(mm2s_bursts_in_pieces, {{395, 2037, 4150, 2722748877, 163131,
      82388, 163131}, 805, 0xb4c5b6b24dd4db40, {162724, 805, 0, 1, 1, 81362,
      0, 0, 0, 0, 650892, 0, 1, 8, 0, 0, 0, 0, kNone, kNone, kNone}});
}

// ---------------------------------------------------------------------
// MMIO timelines: CPU-paced driver traffic, cycle for cycle
// ---------------------------------------------------------------------

/// One CPU-paced scenario: milestone cycles and returned values, the
/// CPU's bus counts, the bus-side counters, and the whole trace stream
/// (event count and digest: every main_xbar access event, in order).
struct TimelineOutcome {
  std::vector<u64> values;
  std::vector<u64> counters;
  u64 events = 0;
  u64 digest = 0;

  bool operator==(const TimelineOutcome&) const = default;
};

std::ostream& operator<<(std::ostream& os, const TimelineOutcome& o) {
  os << "{{";
  for (const u64 v : o.values) os << v << ", ";
  os << "}, {";
  for (const u64 v : o.counters) os << v << ", ";
  return os << "}, " << o.events << ", 0x" << std::hex << o.digest
            << std::dec << "}";
}

constexpr const char* kTimelineCounters[] = {
    "main_xbar.decode_errors",
    "main_xbar.m0.stall_cycles",
    "icap.words",
    "icap.frames",
    "icap.readback_words",
    "icap.desyncs",
    "icap.port_hwm",
    "hwicap.words_written",
    "hwicap.dropped_words",
    "hwicap.write_fifo_hwm",
    "hwicap.read_fifo_hwm",
    "rvcap.dma.mm2s_bytes",
    "rvcap.dma.mm2s_jobs",
};

std::unique_ptr<ArianeSoc> traced_soc(Simulator::Mode mode,
                                      bool with_hwicap = false) {
  SocConfig cfg;
  cfg.sim_mode = mode;
  cfg.with_hwicap = with_hwicap;
  auto soc = std::make_unique<ArianeSoc>(cfg);
  soc->sim().obs().sink().set_enabled(true);
  return soc;
}

/// Append one SoC's end cycle, counters and trace stream to `o`.
void finish(ArianeSoc& soc, TimelineOutcome& o) {
  o.values.push_back(soc.sim().now());
  const cpu::CpuContext& cpu = soc.cpu();
  o.counters.insert(o.counters.end(),
                    {cpu.bus_reads(), cpu.bus_writes(), cpu.bus_errors(),
                     cpu.bus_timeouts(), soc.sd_card().blocks_read(),
                     soc.sd_card().blocks_written(),
                     soc.sd_card().crc_errors()});
  for (const char* name : kTimelineCounters) {
    o.counters.push_back(counter_or_none(soc, name));
  }
  const obs::TraceSink& sink = soc.sim().obs().sink();
  o.events += sink.total_events();
  o.digest = o.digest * 0x100000001B3ULL + sink.digest();
}

/// SD card bring-up over SPI, 8 single-block reads and a block write:
/// every byte is a DTR store, an SR poll and a DRR load.
TimelineOutcome timeline_spi_sd(Simulator::Mode mode) {
  auto soc = traced_soc(mode);
  storage::MemBlockIo host(soc->sd_card());
  for (u32 i = 0; i < 8; ++i) {
    EXPECT_EQ(host.write(100 + 3 * i, pattern(512, static_cast<u8>(i))),
              Status::kOk);
  }
  TimelineOutcome o;
  driver::SpiSdDriver sd(soc->cpu());
  o.values.push_back(static_cast<u64>(sd.init_card()));
  o.values.push_back(soc->sim().now());
  std::vector<u8> buf(512);
  for (u32 i = 0; i < 8; ++i) {
    o.values.push_back(static_cast<u64>(sd.read_block(100 + 3 * i, buf)));
    o.values.push_back(crc32(buf));
    EXPECT_EQ(buf, pattern(512, static_cast<u8>(i)));
  }
  o.values.push_back(soc->sim().now());
  const std::vector<u8> out = pattern(512, 0x5A);
  o.values.push_back(static_cast<u64>(sd.write_block(300, out)));
  EXPECT_EQ(host.read(300, buf), Status::kOk);
  EXPECT_EQ(buf, out);
  finish(*soc, o);
  return o;
}

/// The AXI_HWICAP keyhole: a 2-column Fig. 3 window programmed at
/// unroll 1 and at unroll 16, then two of its frames read back.
TimelineOutcome timeline_hwicap(Simulator::Mode mode) {
  auto soc = traced_soc(mode, /*with_hwicap=*/true);
  std::vector<fabric::Partition::ColumnRef> cols;
  const u32 row = soc->device().rows() / 2;
  for (u32 c = 2; c < 4; ++c) cols.push_back({row, c});
  const fabric::Partition window("RP_sweep2", std::move(cols));
  const usize handle = soc->add_partition(window);
  const auto pbit = bitstream::generate_partial_bitstream(
      soc->device(), window, {7, "sweep"});
  soc->ddr().poke(soc::MemoryMap::kPbitStagingBase, pbit);
  const driver::ReconfigModule m{"", 7, soc::MemoryMap::kPbitStagingBase,
                                 static_cast<u32>(pbit.size())};
  TimelineOutcome o;
  driver::HwIcapDriver hw(soc->cpu(), 1);
  for (const u32 unroll : {1u, 16u}) {
    hw.set_unroll(unroll);
    o.values.push_back(static_cast<u64>(hw.init_reconfig_process(m)));
    o.values.push_back(hw.last_timing().reconfig_ticks);
    o.values.push_back(soc->sim().now());
    o.values.push_back(soc->config_memory().partition_state(handle).loaded);
  }
  std::vector<u32> words(2 * fabric::kFrameWords);
  o.values.push_back(static_cast<u64>(
      hw.readback(window.base_frame(soc->device()), words)));
  o.values.push_back(crc32(std::span<const u8>(
      reinterpret_cast<const u8*>(words.data()), words.size() * 4)));
  finish(*soc, o);
  return o;
}

/// Reads whose answer depends on the cycle the device serves them:
/// CLINT mtime at every phase of its 20-cycle divider, and PLIC claims
/// served around the cycle a DMA completion raises its line.
TimelineOutcome timeline_irq(Simulator::Mode mode) {
  constexpr Addr kMtimeLo = soc::MemoryMap::kClint.base + irq::Clint::kMtimeLo;
  constexpr Addr kClaim =
      soc::MemoryMap::kPlic.base + irq::Plic::kClaimComplete;
  constexpr Addr kDma = soc::MemoryMap::kDmaCtrl.base;
  TimelineOutcome o;
  {
    auto soc = traced_soc(mode);
    for (int i = 0; i < 20; ++i) {
      o.values.push_back(soc->cpu().load32_uncached(kMtimeLo));
      soc->sim().run_cycles(17);  // next read one divider phase later
    }
    finish(*soc, o);
  }
  // A 4 KB MM2S job into the unsynced ICAP with its IOC interrupt on;
  // returns the SoC at the cycle the LENGTH store returned.
  const auto start_job = [&] {
    auto soc = traced_soc(mode);
    driver::RvCapDriver drv(soc->cpu(), soc->plic());
    drv.decouple_accel(true);
    drv.select_ICAP(true);
    cpu::CpuContext& cpu = soc->cpu();
    cpu.store32_uncached(kDma + rvcap_ctrl::AxiDma::kMm2sCr,
                         rvcap_ctrl::AxiDma::kCrRunStop |
                             rvcap_ctrl::AxiDma::kCrIocIrqEn);
    cpu.store32_uncached(kDma + rvcap_ctrl::AxiDma::kMm2sSa,
                         static_cast<u32>(soc::MemoryMap::kPbitStagingBase));
    cpu.store32_uncached(kDma + rvcap_ctrl::AxiDma::kMm2sSaMsb, 0);
    cpu.store32_uncached(kDma + rvcap_ctrl::AxiDma::kMm2sLength, 4096);
    return soc;
  };
  Cycles eip_at = 0;  // first boundary with the external interrupt up
  {
    auto soc = start_job();
    const irq::Plic& plic = soc->plic();
    EXPECT_TRUE(soc->sim().run_until_event([&] { return plic.eip(); },
                                           100'000));
    eip_at = soc->sim().now();
    finish(*soc, o);
  }
  // A claim load reaches the PLIC 36 core cycles after it is issued,
  // and the PLIC serves it the cycle after.
  constexpr Cycles kToServe = 37;
  for (Cycles before = 4; before > 0; --before) {
    auto soc = start_job();
    soc->sim().run_cycles(eip_at - before - kToServe - soc->sim().now());
    const u32 src = soc->cpu().load32_uncached(kClaim);
    o.values.push_back(src);
    o.values.push_back(soc->sim().now());
    if (src != 0) soc->cpu().store32_uncached(kClaim, src);
    o.values.push_back(soc->cpu().load32_uncached(kClaim));
    finish(*soc, o);
  }
  return o;
}

void expect_timeline(TimelineOutcome (*run)(Simulator::Mode),
                     TimelineOutcome pinned) {
  // Built with RVCAP_NO_TRACE there is no trace stream to compare.
  if (!obs::trace_compiled_in()) pinned.events = pinned.digest = 0;
  for (const auto mode :
       {Simulator::Mode::kFlat, Simulator::Mode::kScheduled}) {
    TimelineOutcome got = run(mode);
    if (!obs::trace_compiled_in()) got.events = got.digest = 0;
    EXPECT_EQ(got, pinned)
        << (mode == Simulator::Mode::kFlat ? "flat" : "scheduled");
  }
}

// Recorded with every CPU register access carried by main_xbar and a
// tick-driven model of the converter chain; the values, counters and
// event streams are unchanged under the timed register calls. The
// digest also folds each event's interned source index, which moves
// when a component before the source is added or removed. Counters:
// the CPU's reads, writes, errors and timeouts, the SD card's blocks
// read, written and CRC errors, then kTimelineCounters (~0: the SoC has
// no such counter).
TEST(MmioTimeline, SpiSdCardBlocks) {
  expect_timeline(timeline_spi_sd, {{0, 9985, 0, 3511381275, 0, 2003491387, 0,
      767597049, 0, 3516676709, 0, 569825680, 0, 2433617403, 0, 828578047, 0,
      487439453, 568649, 0, 639147}, {9608, 4807, 0, 0, 8, 1, 0, 0, 0, 0, 0, 0,
      0, 0, kNone, kNone, kNone, kNone, 0, 0}, 14415, 0xf340eb7bf237f06f});
}
TEST(MmioTimeline, HwicapKeyholeProgramAndReadback) {
  expect_timeline(timeline_hwicap, {{0, 66095, 1322046, 1, 0, 35868, 2039532, 1,
      0, 1541529250, 2093462}, {2466, 29378, 0, 0, 0, 0, 0, 0, 0, 29330, 144,
      404, 3, 1, 29330, 0, 1024, 128, 0, 0}, 62643, 0x703226b9906ade0e});
}
TEST(MmioTimeline, ClintMtimeAndPlicClaimAtTheIrqEdge) {
  expect_timeline(timeline_irq, {{1, 4, 8, 11, 14, 17, 20, 23, 26, 29, 32, 35,
      38, 41, 44, 47, 50, 53, 56, 59, 1220, 1395, 0, 1398, 1, 1442, 0, 1399, 1,
      1443, 0, 1400, 1, 1444, 1, 1401, 1, 1490}, {20, 0, 0, 0, 0, 0, 0, 0, 0, 0,
      0, 0, 0, 0, kNone, kNone, kNone, kNone, 0, 0, 2, 7, 0, 0, 0, 0, 0, 0, 0,
      988, 0, 0, 0, 1, kNone, kNone, kNone, kNone, 4096, 1, 4, 7, 0, 0, 0, 0, 0,
      0, 0, 1024, 0, 0, 0, 1, kNone, kNone, kNone, kNone, 4096, 1, 4, 7, 0, 0,
      0, 0, 0, 0, 0, 1024, 0, 0, 0, 1, kNone, kNone, kNone, kNone, 4096, 1, 4,
      7, 0, 0, 0, 0, 0, 0, 0, 1024, 0, 0, 0, 1, kNone, kNone, kNone, kNone,
      4096, 1, 4, 8, 0, 0, 0, 0, 0, 0, 0, 1024, 0, 0, 0, 1, kNone, kNone, kNone,
      kNone, 4096, 1}, 7892, 0x0e77c1ff1b3da9db});
}

// ---------------------------------------------------------------------
// SPI shifts around the register calls that start them
// ---------------------------------------------------------------------

/// Every CPU access to the SPI controller is a register call: a DTR
/// store, a CR store or a DRR load can make a byte startable. These
/// scenarios pin the cycle each call returns, every SR and DRR value,
/// and the SD card's counters, on an untraced SoC whose uncached
/// accesses spend `core_cycles` in the core (36 by default).
using storage::SpiController;

class SpiScript {
 public:
  SpiScript(Simulator::Mode mode, u32 core_cycles = 36) {
    SocConfig cfg;
    cfg.sim_mode = mode;
    cfg.timing.uncached_access_core_cycles = core_cycles;
    soc_ = std::make_unique<ArianeSoc>(cfg);
  }

  void write(Addr reg, u32 v) {
    soc_->cpu().store32_uncached(kBase + reg, v);
    o_.values.push_back(soc_->sim().now());
  }
  /// Load `reg`, recording its value and the cycle the load returned.
  u32 read(Addr reg) {
    const u32 v = soc_->cpu().load32_uncached(kBase + reg);
    o_.values.push_back(v);
    o_.values.push_back(soc_->sim().now());
    return v;
  }
  /// Poll SR until nothing shifts and TX is empty (bounded).
  void poll_until_idle() {
    for (int i = 0; i < 64; ++i) {
      const u32 sr = read(SpiController::kSr);
      if ((sr & SpiController::kSrBusy) == 0 &&
          (sr & SpiController::kSrTxEmpty) != 0) {
        return;
      }
    }
  }
  void drain_rx(int n) {
    for (int i = 0; i < n; ++i) read(SpiController::kDrr);
  }
  TimelineOutcome done() {
    finish(*soc_, o_);
    return o_;
  }

 private:
  static constexpr Addr kBase = soc::MemoryMap::kSpi.base;

  std::unique_ptr<ArianeSoc> soc_;
  TimelineOutcome o_;
};

/// A CMD0 frame written back to back at 2 core cycles per call: each
/// DTR store returns in 11 cycles, well inside a byte's 33, so every
/// byte after the first waits in the TX FIFO and chains off the one
/// before it.
TimelineOutcome spi_chained(Simulator::Mode mode) {
  SpiScript s(mode, 2);
  s.write(SpiController::kCr, 1);
  s.write(SpiController::kSsr, 0);
  for (const u8 b : {0x40, 0x00, 0x00, 0x00, 0x00, 0x95, 0xFF, 0xFF}) {
    s.write(SpiController::kDtr, b);
  }
  s.poll_until_idle();
  s.drain_rx(8);
  s.read(SpiController::kSr);
  return s.done();
}

/// Sixteen bytes fill RX; the next DTR store cannot start, and the DRR
/// load that pops the first byte starts it.
TimelineOutcome spi_rx_full(Simulator::Mode mode) {
  SpiScript s(mode);
  s.write(SpiController::kCr, 1);
  s.write(SpiController::kSsr, 0);
  for (int i = 0; i < 16; ++i) {
    s.write(SpiController::kDtr, 0xFF);
    s.poll_until_idle();
  }
  s.write(SpiController::kDtr, 0x40);
  s.read(SpiController::kSr);
  s.read(SpiController::kDrr);
  s.poll_until_idle();
  s.drain_rx(17);
  s.read(SpiController::kSr);
  return s.done();
}

/// Three bytes queued while the controller is disabled; the CR store
/// that enables it starts the first.
TimelineOutcome spi_enable_with_tx_queued(Simulator::Mode mode) {
  SpiScript s(mode);
  s.write(SpiController::kSsr, 0);
  for (const u8 b : {0x40, 0x00, 0x00}) s.write(SpiController::kDtr, b);
  s.read(SpiController::kSr);
  s.write(SpiController::kCr, 1);
  s.poll_until_idle();
  s.drain_rx(4);
  s.read(SpiController::kSr);
  return s.done();
}

/// A TX-FIFO reset while the second of three bytes shifts, chained off
/// the first: it completes and the third is dropped, so RX reads empty
/// after two DRR loads.
TimelineOutcome spi_tx_reset_mid_shift(Simulator::Mode mode) {
  SpiScript s(mode, 2);
  s.write(SpiController::kCr, 1);
  s.write(SpiController::kSsr, 0);
  for (const u8 b : {0x40, 0x00, 0x00}) s.write(SpiController::kDtr, b);
  s.read(SpiController::kSr);
  s.write(SpiController::kCr, 1 | (1u << 5));
  s.read(SpiController::kSr);
  s.poll_until_idle();
  for (int i = 0; i < 2; ++i) {
    s.read(SpiController::kDrr);
    s.read(SpiController::kSr);
  }
  return s.done();
}

/// One byte, then SR polls whose first serve cycle sweeps across the
/// shift's deadline: with the peripheral window's hops, a DTR store
/// served at S returns at S + 7 and the SR load that follows is served
/// at S + 8 + core cycles, against a deadline of S + 33 — before it at
/// 23 and 24 core cycles, on it at 25, after it at 26 and 27.
TimelineOutcome spi_poll_sweep(Simulator::Mode mode) {
  TimelineOutcome o;
  for (u32 core = 23; core <= 27; ++core) {
    SpiScript s(mode, core);
    s.write(SpiController::kCr, 1);
    s.write(SpiController::kSsr, 0);
    s.write(SpiController::kDtr, 0xFF);
    s.read(SpiController::kSr);
    s.read(SpiController::kSr);
    s.drain_rx(2);
    const TimelineOutcome one = s.done();
    o.values.insert(o.values.end(), one.values.begin(), one.values.end());
    o.counters.insert(o.counters.end(), one.counters.begin(),
                      one.counters.end());
    o.digest = o.digest * 0x100000001B3ULL + one.digest;
  }
  return o;
}

// Recorded with the shift started one cycle after the register call
// that made it startable, in a tick of its own.
TEST(MmioTimeline, SpiChainedShiftThroughTxFifo) {
  expect_timeline(spi_chained, {{11, 22, 33, 44, 55, 66, 77, 88, 99, 110, 16,
      120, 16, 130, 16, 140, 16, 150, 16, 160, 16, 170, 16, 180, 16, 190, 16,
      200, 16, 210, 16, 220, 16, 230, 16, 240, 16, 250, 16, 260, 16, 270, 16,
      280, 16, 290, 4, 300, 255, 310, 255, 320, 255, 330, 255, 340, 255, 350,
      255, 360, 255, 370, 1, 380, 5, 390, 390}, {28, 10, 0, 0, 0, 0, 0, 0, 0, 0,
      0, 0, 0, 0, kNone, kNone, kNone, kNone, 0, 0}, 0, 0xcbf29ce484222325});
}
TEST(MmioTimeline, SpiDtrWhileRxFullStartsOnDrrPop) {
  expect_timeline(spi_rx_full, {{45, 90, 135, 4, 179, 224, 4, 268, 313, 4, 357,
      402, 4, 446, 491, 4, 535, 580, 4, 624, 669, 4, 713, 758, 4, 802, 847, 4,
      891, 936, 4, 980, 1025, 4, 1069, 1114, 4, 1158, 1203, 4, 1247, 1292, 4,
      1336, 1381, 4, 1425, 1470, 6, 1514, 1559, 2, 1603, 255, 1647, 6, 1691,
      255, 1735, 255, 1779, 255, 1823, 255, 1867, 255, 1911, 255, 1955, 255,
      1999, 255, 2043, 255, 2087, 255, 2131, 255, 2175, 255, 2219, 255, 2263,
      255, 2307, 255, 2351, 255, 2395, 255, 2439, 5, 2483, 2483}, {37, 19, 0, 0,
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0, kNone, kNone, kNone, kNone, 0, 0}, 0,
      0xcbf29ce484222325});
}
TEST(MmioTimeline, SpiEnableWithTxQueued) {
  expect_timeline(spi_enable_with_tx_queued, {{45, 90, 135, 180, 1, 224, 269,
      16, 313, 16, 357, 4, 401, 255, 445, 255, 489, 255, 533, 255, 577, 5, 621,
      621}, {9, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, kNone, kNone, kNone,
      kNone, 0, 0}, 0, 0xcbf29ce484222325});
}
TEST(MmioTimeline, SpiTxResetMidShift) {
  expect_timeline(spi_tx_reset_mid_shift, {{11, 22, 33, 44, 55, 17, 65, 76, 16,
      86, 16, 96, 4, 106, 255, 116, 4, 126, 255, 136, 5, 146, 146}, {8, 6, 0, 0,
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0, kNone, kNone, kNone, kNone, 0, 0}, 0,
      0xcbf29ce484222325});
}
TEST(MmioTimeline, SpiStatusPollAcrossTheShiftDeadline) {
  expect_timeline(spi_poll_sweep, {{32, 64, 96, 17, 127, 4, 158, 255, 189, 255,
      220, 220, 33, 66, 99, 17, 131, 4, 163, 255, 195, 255, 227, 227, 34, 68,
      102, 4, 135, 4, 168, 255, 201, 255, 234, 234, 35, 70, 105, 4, 139, 4, 173,
      255, 207, 255, 241, 241, 36, 72, 108, 4, 143, 4, 178, 255, 213, 255, 248,
      248}, {4, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, kNone, kNone, kNone,
      kNone, 0, 0, 4, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, kNone, kNone,
      kNone, kNone, 0, 0, 4, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, kNone,
      kNone, kNone, kNone, 0, 0, 4, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
      kNone, kNone, kNone, kNone, 0, 0, 4, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
      0, kNone, kNone, kNone, kNone, 0, 0}, 0, 0xa9fb6ad0c8ec8e9d});
}

// ---------------------------------------------------------------------
// RP-control writes that release beats parked at the stream switch
// ---------------------------------------------------------------------

/// Records the cycle of every beat the stream switch hands on, for a
/// window after a select input changes: it is registered after the
/// switch and woken with its select watchers, so it sees each move in
/// the cycle the switch made it, the cycle of the write included.
class SwitchMoveProbe : public sim::Component {
 public:
  explicit SwitchMoveProbe(ArianeSoc& soc)
      : Component("test.switch_probe"), sw_(soc.rvcap().axis_switch()) {
    sw_.watch_select(this);
    soc.sim().add(this);
  }

  /// Record moves for the next `window` cycles.
  void arm(Cycles window) {
    until_ = sim_now() + window;
    seen_ = totals();
  }

  bool tick() override {
    if (sim_now() >= until_) return false;
    const std::vector<u64> t = totals();
    for (usize i = 0; i < t.size(); ++i) {
      for (u64 n = seen_[i]; n < t[i]; ++n) {
        moves.push_back(sim_now());
        moves.push_back(i);
      }
    }
    seen_ = t;
    return sim_now() + 1 < until_;
  }

  /// Beats handed to each switch output: to_icap, to_dma, then every
  /// RM port.
  std::vector<u64> totals() const {
    std::vector<u64> t{sw_.to_icap().total_pushed(),
                       sw_.to_dma().total_pushed()};
    for (u32 p = 0; p < sw_.num_rm_ports(); ++p) {
      t.push_back(sw_.to_rm(p).total_pushed());
    }
    return t;
  }

  std::vector<u64> moves;  // (cycle, output) per beat

 private:
  axi::AxisSwitch& sw_;
  Cycles until_ = 0;
  std::vector<u64> seen_;
};

enum class RpWrite { kDecouple, kSelectIcap, kRmSelect };

/// Sobel in slot 0 of a two-slot SoC takes a 16 KB frame with S2MM
/// never started: its output backs up, its input with it, and the MM2S
/// beats park at the stream switch until the kernel is idle. Then one
/// RP-control write re-routes them: decouple slot 0 (its isolator drops
/// them), select_ICAP (they stream into the unsynced ICAP), or
/// rm_select = 1 (they reach the empty slot 1, whose fabric drops
/// them). The write is served in a cycle with nothing else to do, and
/// the switch it wakes must move a beat in that same cycle.
StreamOutcome stream_parked(Simulator::Mode mode, RpWrite write) {
  SocConfig cfg = stream_config(mode);
  cfg.num_slots = 2;
  ArianeSoc soc(cfg);
  FrameCommitProbe probe(soc);
  SwitchMoveProbe moves(soc);
  driver::RvCapDriver drv(soc.cpu(), soc.plic());
  cpu::CpuContext& cpu = soc.cpu();
  const auto m = stage_module(soc, accel::kRmIdSobel, "sobel",
                              soc::MemoryMap::kPbitStagingBase);
  StreamOutcome o;
  EXPECT_EQ(drv.init_reconfig_process(m, DmaMode::kInterrupt), Status::kOk);
  drv.rm_reg_write(1, 32);  // height: 32 rows of 512 pixels
  soc.ddr().poke(soc::MemoryMap::kImageInBase, pattern(16 * 1024, 9));
  const Addr dma = soc::MemoryMap::kDmaCtrl.base;
  cpu.store32_uncached(dma + rvcap_ctrl::AxiDma::kMm2sCr,
                       rvcap_ctrl::AxiDma::kCrRunStop);
  cpu.store32_uncached(dma + rvcap_ctrl::AxiDma::kMm2sSa,
                       static_cast<u32>(soc::MemoryMap::kImageInBase));
  cpu.store32_uncached(dma + rvcap_ctrl::AxiDma::kMm2sSaMsb, 0);
  cpu.store32_uncached(dma + rvcap_ctrl::AxiDma::kMm2sLength, 16 * 1024);
  soc.sim().run_cycles(20'000);
  o.values.push_back(soc.sim().now());
  // The store leaves the core 36 cycles after it is issued and reaches
  // the RP-control block 2 cycles later: record 24 cycles from there.
  const Addr rp = soc::MemoryMap::kRpCtrl.base;
  using rvcap_ctrl::RpControl;
  const u32 ctl = cpu.load32_uncached(rp + RpControl::kControl);
  moves.arm(38 + 24);
  switch (write) {
    case RpWrite::kDecouple:
      cpu.store32_uncached(rp + RpControl::kControl,
                           ctl | RpControl::kCtlDecouple);
      break;
    case RpWrite::kSelectIcap:
      cpu.store32_uncached(rp + RpControl::kControl,
                           ctl | RpControl::kCtlSelectIcap);
      break;
    case RpWrite::kRmSelect:
      cpu.store32_uncached(rp + RpControl::kRmSelect, 1);
      break;
  }
  o.values.push_back(soc.sim().now());
  const rvcap_ctrl::AxiDma& engine = soc.rvcap().dma();
  EXPECT_TRUE(cpu.wait_for([&] { return engine.mm2s_idle(); }, 1'000'000));
  o.values.push_back(soc.sim().now());
  o.values.insert(o.values.end(), moves.moves.begin(), moves.moves.end());
  for (const u64 t : moves.totals()) o.values.push_back(t);
  for (u32 s = 0; s < 2; ++s) {
    o.values.push_back(soc.rvcap().isolator(s).dropped_beats());
  }
  finish(soc, probe, o);
  return o;
}

StreamOutcome stream_parked_decouple(Simulator::Mode m) {
  return stream_parked(m, RpWrite::kDecouple);
}
StreamOutcome stream_parked_select_icap(Simulator::Mode m) {
  return stream_parked(m, RpWrite::kSelectIcap);
}
StreamOutcome stream_parked_rm_select(Simulator::Mode m) {
  return stream_parked(m, RpWrite::kRmSelect);
}

// Recorded with the write served from the RP-control block's port in a
// tick of its own.
TEST(StreamPath, DecoupleWriteMovesParkedBeats) {
  expect_stream(stream_parked_decouple, {{185459, 185546, 187301, 185542, 2,
      185543, 2, 185544, 2, 185545, 2, 185546, 2, 185547, 2, 185548, 2, 185549,
      2, 185550, 2, 185551, 2, 185552, 2, 185553, 2, 185554, 2, 185555, 2,
      185556, 2, 185557, 2, 185558, 2, 185559, 2, 185560, 2, 185561, 2, 185562,
      2, 185563, 2, 81362, 12, 2048, 0, 1960, 0, 187301}, 805,
      0x3b66fb7e1d3c655c, {162724, 805, 0, 1, 1, 83410, 2048, 16, 8, 256,
      667276, 0, 2, 8, 8, 0, 0, 0, kNone, kNone, kNone}});
}
TEST(StreamPath, SelectIcapWriteMovesParkedBeats) {
  expect_stream(stream_parked_select_icap, {{185459, 185546, 188935, 185540, 0,
      185541, 0, 185542, 0, 185543, 0, 185544, 0, 185545, 0, 185546, 0, 185547,
      0, 185548, 0, 185549, 0, 185550, 0, 185551, 0, 185552, 0, 185553, 0,
      185554, 0, 185556, 0, 185558, 0, 185560, 0, 185562, 0, 83067, 12, 332, 0,
      0, 0, 188935}, 805, 0x3b66fb7e1d3c655c, {166119, 805, 0, 1, 1, 83402, 328,
      16, 8, 24, 667276, 0, 2, 8, 8, 0, 0, 0, kNone, kNone, kNone}});
}
TEST(StreamPath, RmSelectWriteMovesParkedBeats) {
  expect_stream(stream_parked_rm_select, {{185459, 185546, 187299, 185540, 3,
      185541, 3, 185542, 3, 185543, 3, 185544, 3, 185545, 3, 185546, 3, 185547,
      3, 185548, 3, 185549, 3, 185550, 3, 185551, 3, 185552, 3, 185553, 3,
      185554, 3, 185555, 3, 185556, 3, 185557, 3, 185558, 3, 185559, 3, 185560,
      3, 185561, 3, 185562, 3, 185563, 3, 81362, 12, 332, 1716, 0, 0, 187299},
      805, 0x3b66fb7e1d3c655c, {162724, 805, 0, 1, 1, 83410, 328, 16, 8, 24,
      667276, 0, 2, 8, 8, 0, 0, 0, kNone, kNone, kNone}});
}

}  // namespace
}  // namespace rvcap
