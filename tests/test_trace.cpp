// Observability layer (DESIGN.md §11): TraceSink semantics, histogram
// edge cases, golden-trace determinism, the PerfRegs MMIO window, and
// the Chrome-trace / stats exporters.
//
// The golden-trace tests pin down the event stream of a fixed Sobel
// reconfiguration: a change in what the SoC emits (new event point,
// reordered phase, shifted cycle) shows up as a digest mismatch here
// before it shows up as a confusing Perfetto diff.
#include <gtest/gtest.h>

#include "accel/rm_slot.hpp"
#include "bitstream/generator.hpp"
#include "driver/primitives.hpp"
#include "driver/rvcap_driver.hpp"
#include "obs/counters.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "soc/ariane_soc.hpp"
#include "soc/perf_regs.hpp"
#include "testutil.hpp"

namespace rvcap {
namespace {

using driver::DmaMode;
using obs::EventKind;
using obs::Histogram;
using obs::TraceSink;
using sim::Simulator;
using soc::ArianeSoc;
using soc::SocConfig;

// ---------------------------------------------------------------------
// TraceSink mechanics
// ---------------------------------------------------------------------

TEST(TraceSink, DisabledByDefaultAndEmitIsANoOp) {
  TraceSink sink;
  EXPECT_FALSE(sink.enabled());
  const u64 d0 = sink.digest();
  sink.emit(EventKind::kIcapWord, 0, 100, 42);
  EXPECT_EQ(sink.total_events(), 0u);
  EXPECT_EQ(sink.digest(), d0);
  EXPECT_TRUE(sink.events().empty());
}

TEST(TraceSink, InternDeduplicatesSourceNames) {
  TraceSink sink;
  const u16 a = sink.intern("rvcap.dma");
  const u16 b = sink.intern("icap");
  const u16 c = sink.intern("rvcap.dma");
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
  EXPECT_EQ(sink.source_name(a), "rvcap.dma");
  EXPECT_EQ(sink.source_name(0xFFFF), "?");
}

TEST(TraceSink, DigestCoversEveryFieldAndSurvivesEviction) {
  TraceSink sink(/*capacity=*/4);
  sink.set_enabled(true);
  const u16 src = sink.intern("s");
  for (u64 i = 0; i < 10; ++i) {
    sink.emit(EventKind::kAxisBeat, src, i, i, 0, 0);
  }
  // Ring holds the newest 4; totals and digest see all 10.
  EXPECT_EQ(sink.events().size(), 4u);
  EXPECT_EQ(sink.total_events(), 10u);
  EXPECT_EQ(sink.dropped_events(), 6u);
  EXPECT_EQ(sink.events().front().ts, 6u);

  // An identical replay reproduces the digest; a one-bit payload
  // change anywhere in the stream does not.
  TraceSink replay(4);
  replay.set_enabled(true);
  const u16 rsrc = replay.intern("s");
  for (u64 i = 0; i < 10; ++i) {
    replay.emit(EventKind::kAxisBeat, rsrc, i, i, 0, 0);
  }
  EXPECT_EQ(replay.digest(), sink.digest());

  TraceSink skewed(4);
  skewed.set_enabled(true);
  const u16 ssrc = skewed.intern("s");
  for (u64 i = 0; i < 10; ++i) {
    skewed.emit(EventKind::kAxisBeat, ssrc, i, i == 3 ? i ^ 1 : i, 0, 0);
  }
  EXPECT_NE(skewed.digest(), sink.digest());
}

// The split rule (DESIGN.md §11), in every build: a driver's
// TraceSource appends always, RVCAP_TRACE only while the sink is enabled.
TEST(TraceSink, DriverEventsRecordedAlwaysComponentEventsWhenEnabled) {
  TraceSink sink;
  Cycles now = 10;
  const driver::TraceSource drv(sink, "driver", &now);
  const u16 comp = sink.intern("component");
  TraceSink* const sp = &sink;

  // Disabled: the driver event is retained and folded into the digest
  // and the total; the component event is not.
  RVCAP_TRACE(sp, EventKind::kIcapWord, comp, now, 1);
  drv.emit(EventKind::kSvcSubmit, 7, 1);
  ASSERT_EQ(sink.events().size(), 1u);
  EXPECT_EQ(sink.events()[0].kind, EventKind::kSvcSubmit);
  EXPECT_EQ(sink.source_name(sink.events()[0].src), "driver");
  EXPECT_EQ(sink.total_events(), 1u);
  TraceSink ref;
  const u16 ref_src = ref.intern("driver");
  ref.append(EventKind::kSvcSubmit, ref_src, 10, 7, 1);
  EXPECT_EQ(sink.digest(), ref.digest());

  // Enabled: both are retained, in emission order.
  sink.set_enabled(true);
  now = 11;
  RVCAP_TRACE(sp, EventKind::kIcapWord, comp, now, 2);
  now = 12;
  drv.emit(EventKind::kSvcAdmit, 7, 1);
  std::vector<EventKind> want = {EventKind::kSvcSubmit, EventKind::kIcapWord,
                                 EventKind::kSvcAdmit};
  // Component emission is compiled out under RVCAP_NO_TRACE.
  if (!obs::trace_compiled_in()) want.erase(want.begin() + 1);
  ASSERT_EQ(sink.events().size(), want.size());
  for (usize i = 0; i < want.size(); ++i) {
    EXPECT_EQ(sink.events()[i].kind, want[i]) << i;
  }
  EXPECT_EQ(sink.total_events(), want.size());
}

TEST(TraceSink, ClearResetsStreamState) {
  TraceSink sink;
  sink.set_enabled(true);
  const u64 d0 = sink.digest();
  sink.emit(EventKind::kIcapWord, 0, 1, 2);
  EXPECT_NE(sink.digest(), d0);
  sink.clear();
  EXPECT_EQ(sink.digest(), d0);
  EXPECT_EQ(sink.total_events(), 0u);
  EXPECT_TRUE(sink.events().empty());
  EXPECT_TRUE(sink.enabled()) << "clear() drops events, not the enable";
}

// ---------------------------------------------------------------------
// Histogram edge cases
// ---------------------------------------------------------------------

TEST(Histogram, ZeroWidthSampleLandsInBucketZero) {
  Histogram h;
  h.record(0);
  h.record(0);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.mean(), 0u);
  EXPECT_EQ(h.percentile(0.99), 0u);
}

TEST(Histogram, BucketBoundaries) {
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1), 1u);
  EXPECT_EQ(Histogram::bucket_index(2), 2u);
  EXPECT_EQ(Histogram::bucket_index(3), 2u);
  EXPECT_EQ(Histogram::bucket_index(4), 3u);
  EXPECT_EQ(Histogram::bucket_index((u64{1} << 31)), 32u);
  EXPECT_EQ(Histogram::bucket_index((u64{1} << 32) - 1), 32u);
  EXPECT_EQ(Histogram::bucket_bound(0), 0u);
  EXPECT_EQ(Histogram::bucket_bound(1), 1u);
  EXPECT_EQ(Histogram::bucket_bound(2), 3u);
  EXPECT_EQ(Histogram::bucket_bound(Histogram::kBuckets - 1), ~u64{0});
}

TEST(Histogram, SamplesAtOrAbove2To32Saturate) {
  Histogram h;
  h.record(u64{1} << 32);
  h.record(u64{1} << 40);
  h.record(~u64{0});
  EXPECT_EQ(h.bucket(Histogram::kBuckets - 1), 3u);
  EXPECT_EQ(h.max(), ~u64{0});
  // The percentile clamps to the exact max, not the bucket bound.
  EXPECT_EQ(h.percentile(1.0), ~u64{0});
}

TEST(Histogram, MergeCombinesBucketsAndExactStats) {
  Histogram a;
  a.record(0);
  a.record(5);
  Histogram b;
  b.record(100);
  b.record(u64{1} << 33);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.sum(), 105u + (u64{1} << 33));
  EXPECT_EQ(a.min(), 0u);
  EXPECT_EQ(a.max(), u64{1} << 33);
  EXPECT_EQ(a.bucket(0), 1u);
  EXPECT_EQ(a.bucket(3), 1u);   // 5 -> [4,8)
  EXPECT_EQ(a.bucket(7), 1u);   // 100 -> [64,128)
  EXPECT_EQ(a.bucket(Histogram::kBuckets - 1), 1u);
}

TEST(Histogram, PercentileOnEmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.percentile(0.5), 0u);
  EXPECT_EQ(h.mean(), 0u);
  EXPECT_EQ(h.min(), 0u);
}

// ---------------------------------------------------------------------
// Golden trace: a fixed reconfiguration has one event stream
// ---------------------------------------------------------------------

struct TracedRun {
  explicit TracedRun(Simulator::Mode mode = Simulator::Mode::kScheduled)
      : soc(make_config(mode)), drv(soc.cpu(), soc.plic()) {
    // A full reconfiguration emits ~250k events; keep them all so
    // the golden assertions can see the earliest DMA/service records.
    soc.sim().obs().sink().set_capacity(usize{1} << 19);
    soc.sim().obs().sink().set_enabled(true);
    const auto pbit = bitstream::generate_partial_bitstream(
        soc.device(), soc.rp0(), {accel::kRmIdSobel, "sobel"});
    const Addr staging = soc::MemoryMap::kPbitStagingBase;
    soc.ddr().poke(staging, pbit);
    module = {"", accel::kRmIdSobel, staging, static_cast<u32>(pbit.size())};
  }

  static SocConfig make_config(Simulator::Mode mode) {
    SocConfig cfg;
    cfg.sim_mode = mode;
    return cfg;
  }

  Status reconfigure(DmaMode mode = DmaMode::kInterrupt) {
    return drv.init_reconfig_process(module, mode);
  }

  const TraceSink& sink() { return soc.sim().obs().sink(); }

  ArianeSoc soc;
  driver::RvCapDriver drv;
  driver::ReconfigModule module;
};

TEST(GoldenTrace, ReconfigurationStreamIsDeterministic) {
  if (!obs::trace_compiled_in()) GTEST_SKIP() << "built with RVCAP_NO_TRACE";
  TracedRun a;
  TracedRun b;
  ASSERT_TRUE(ok(a.reconfigure()));
  ASSERT_TRUE(ok(b.reconfigure()));
  EXPECT_GT(a.sink().total_events(), 0u);
  EXPECT_EQ(a.sink().total_events(), b.sink().total_events());
  EXPECT_EQ(a.sink().digest(), b.sink().digest());
}

TEST(GoldenTrace, ReconfigurationEmitsAllTracks) {
  if (!obs::trace_compiled_in()) GTEST_SKIP() << "built with RVCAP_NO_TRACE";
  TracedRun run;
  ASSERT_TRUE(ok(run.reconfigure(DmaMode::kInterrupt)));
  const TraceSink& sink = run.sink();

  // The DMA descriptor lifecycle: at least one MM2S job started and
  // completed, with a positive latency and byte count.
  const obs::TraceEvent* start =
      test::expect_event(sink, EventKind::kDmaMm2sStart, "rvcap.dma");
  const obs::TraceEvent* done =
      test::expect_event(sink, EventKind::kDmaMm2sDone, "rvcap.dma");
  ASSERT_NE(start, nullptr);
  ASSERT_NE(done, nullptr);
  EXPECT_GT(done->a0, 0u);  // bytes
  EXPECT_GT(done->a2, 0u);  // latency cycles
  EXPECT_LE(done->a2, done->ts);

  // ICAP consumed words; the IRQ path raised, was claimed, completed.
  EXPECT_GT(test::count_events(sink, EventKind::kIcapWord), 0u);
  EXPECT_GT(test::count_events(sink, EventKind::kIrqRaise), 0u);
  EXPECT_GT(test::count_events(sink, EventKind::kIrqClaim), 0u);
  EXPECT_GT(test::count_events(sink, EventKind::kIrqComplete), 0u);

  // Causality inside the retained ring: a raise precedes any claim.
  test::expect_ordered(sink, EventKind::kIrqRaise, EventKind::kIrqClaim);
}

TEST(GoldenTrace, EventsBetweenSlicesTheStream) {
  if (!obs::trace_compiled_in()) GTEST_SKIP() << "built with RVCAP_NO_TRACE";
  TracedRun run;
  ASSERT_TRUE(ok(run.reconfigure()));
  const TraceSink& sink = run.sink();
  ASSERT_FALSE(sink.events().empty());
  const Cycles first = sink.events().front().ts;
  const Cycles last = sink.events().back().ts;
  const auto all = test::events_between(sink, first, last);
  EXPECT_EQ(all.size(), sink.events().size());
  EXPECT_TRUE(test::events_between(sink, last + 1, last + 2).empty());
}

// ---------------------------------------------------------------------
// PerfRegs window: firmware-style counter access over the bus
// ---------------------------------------------------------------------

TEST(PerfRegs, CountAndStableSimIndices) {
  TracedRun run;
  const u32 n = run.drv.perf_count();
  ASSERT_GT(n, 0u);
  EXPECT_EQ(n, run.soc.sim().obs().counters().counter_count());
  // The Simulator registers its own counters first: index 0 is
  // sim.ticks_issued in every SoC.
  EXPECT_EQ(run.soc.sim().obs().counters().counter_name(0),
            "sim.ticks_issued");
}

TEST(PerfRegs, ReadsMatchTheRegistry) {
  TracedRun run;
  ASSERT_TRUE(ok(run.reconfigure()));
  const obs::CounterRegistry& reg = run.soc.sim().obs().counters();
  const usize idx = reg.counter_index("icap.words");
  ASSERT_LT(idx, reg.counter_count());
  const u64 expected = reg.counter_value(idx);
  EXPECT_GT(expected, 0u);
  // The ICAP is quiet now, so the MMIO round trips cannot move it.
  run.drv.perf_select(static_cast<u32>(idx));
  EXPECT_EQ(run.drv.perf_read(), expected);
}

TEST(PerfRegs, SelectWrapsModuloCount) {
  TracedRun run;
  ASSERT_TRUE(ok(run.reconfigure()));
  const obs::CounterRegistry& reg = run.soc.sim().obs().counters();
  const u32 n = run.drv.perf_count();
  const u32 idx =
      static_cast<u32>(reg.counter_index("icap.words"));
  ASSERT_LT(idx, n);
  run.drv.perf_select(idx);
  const u64 direct = run.drv.perf_read();
  // A free-running scan index k*count + idx lands on the same counter.
  run.drv.perf_select(2 * n + idx);
  EXPECT_EQ(run.drv.perf_read(), direct);
  run.drv.perf_select(n + idx);
  EXPECT_EQ(run.drv.perf_read(), direct);
}

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

TEST(PerfRegs, ValueLatchIsTearFree) {
  // The LO read latches the full 64-bit value; the HI read returns the
  // latched half even if the counter moved in between.
  soc::PerfRegs regs("perf");
  obs::CounterRegistry reg;
  obs::Counter* c = reg.counter("x");
  regs.bind(&reg);
  sim::Simulator s;
  s.add(&regs);
  c->add(0x1'2345'6789ULL);
  lite_write(s, regs.port(), soc::PerfRegs::kSelect, 0);
  const u64 lo = lite_read(s, regs.port(), soc::PerfRegs::kValueLo);
  c->add(~u64{0} / 2);  // counter races ahead between LO and HI
  const u64 hi = lite_read(s, regs.port(), soc::PerfRegs::kValueHi);
  EXPECT_EQ((hi << 32) | lo, 0x1'2345'6789ULL);
}

TEST(PerfRegs, UnboundWindowReadsZero) {
  soc::PerfRegs regs("perf");
  sim::Simulator s;
  s.add(&regs);
  EXPECT_EQ(lite_read(s, regs.port(), soc::PerfRegs::kCount), 0u);
  EXPECT_EQ(lite_read(s, regs.port(), soc::PerfRegs::kValueLo), 0u);
}

// ---------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------

TEST(Exporter, ChromeTraceJsonHasTracksAndSpans) {
  if (!obs::trace_compiled_in()) GTEST_SKIP() << "built with RVCAP_NO_TRACE";
  TracedRun run;
  ASSERT_TRUE(ok(run.reconfigure()));
  const std::string json = obs::chrome_trace_json(run.soc.sim().obs());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Track (process) metadata for the busy tracks of a reconfiguration.
  for (const char* track : {"ICAP", "DMA", "AXI Bus", "IRQ"}) {
    EXPECT_NE(json.find(std::string("\"name\":\"") + track),
              std::string::npos)
        << track;
  }
  // Completed DMA jobs export as complete-span events with durations.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("dma_mm2s_done"), std::string::npos);
}

TEST(Exporter, StatsTextListsCountersAndHistograms) {
  TracedRun run;
  ASSERT_TRUE(ok(run.reconfigure()));
  const std::string text = obs::stats_text(run.soc.sim().obs());
  EXPECT_NE(text.find("sim.ticks_issued"), std::string::npos);
  EXPECT_NE(text.find("icap.words"), std::string::npos);
  EXPECT_NE(text.find("rvcap.dma.mm2s_job_cycles"), std::string::npos);
}

}  // namespace
}  // namespace rvcap
