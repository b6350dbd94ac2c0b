// Shared test helpers: a bus-functional manager for driving AxiPort /
// AxiLitePort links cycle-accurately from tests, a scriptable register
// device, assertion helpers over the obs:: trace stream, a
// firmware-style counter read through the PerfRegs window, and the
// self-healing DPR world the fault, service, scrub and
// kernel-equivalence suites share.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "axi/lite_slave.hpp"
#include "axi/types.hpp"
#include "bitstream/generator.hpp"
#include "driver/dpr_manager.hpp"
#include "driver/hwicap_driver.hpp"
#include "driver/rvcap_driver.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "sim/fault_injector.hpp"
#include "sim/simulator.hpp"
#include "soc/ariane_soc.hpp"

namespace rvcap::test {

/// Issue a single-beat 64-bit write as a bus manager and wait for B.
inline axi::Resp bfm_write64(sim::Simulator& s, axi::AxiPort& p, Addr addr,
                             u64 data, u8 strb = 0xFF) {
  EXPECT_TRUE(p.aw.push(axi::AxiAw{addr, 0, 3}));
  EXPECT_TRUE(p.w.push(axi::AxiW{data, strb, true}));
  EXPECT_TRUE(s.run_until([&] { return p.b.can_pop(); }, 100000));
  return p.b.pop()->resp;
}

/// Issue a single-beat 64-bit read and wait for the data beat.
inline std::pair<u64, axi::Resp> bfm_read64(sim::Simulator& s, axi::AxiPort& p,
                                            Addr addr) {
  EXPECT_TRUE(p.ar.push(axi::AxiAr{addr, 0, 3}));
  EXPECT_TRUE(s.run_until([&] { return p.r.can_pop(); }, 100000));
  const axi::AxiR r = *p.r.pop();
  EXPECT_TRUE(r.last);
  return {r.data, r.resp};
}

/// Issue a burst read of `beats` 64-bit beats; returns the payload.
inline std::vector<u64> bfm_read_burst(sim::Simulator& s, axi::AxiPort& p,
                                       Addr addr, u32 beats) {
  EXPECT_TRUE(p.ar.push(axi::AxiAr{addr, static_cast<u8>(beats - 1), 3}));
  std::vector<u64> out;
  while (out.size() < beats) {
    EXPECT_TRUE(s.run_until([&] { return p.r.can_pop(); }, 100000));
    const axi::AxiR r = *p.r.pop();
    out.push_back(r.data);
    if (r.last) break;
  }
  EXPECT_EQ(out.size(), beats);
  return out;
}

/// Issue a burst write; waits for the B response.
inline axi::Resp bfm_write_burst(sim::Simulator& s, axi::AxiPort& p, Addr addr,
                                 std::span<const u64> data) {
  EXPECT_TRUE(p.aw.push(
      axi::AxiAw{addr, static_cast<u8>(data.size() - 1), 3}));
  usize i = 0;
  while (i < data.size()) {
    if (p.w.push(axi::AxiW{data[i], 0xFF, i + 1 == data.size()})) {
      ++i;
    } else {
      s.step();
    }
  }
  EXPECT_TRUE(s.run_until([&] { return p.b.can_pop(); }, 100000));
  return p.b.pop()->resp;
}

/// Sparse 32-bit register file with access logging — stands in for any
/// AXI4-Lite device under test.
class ScratchRegs : public axi::AxiLiteSlave {
 public:
  explicit ScratchRegs(std::string name)
      : AxiLiteSlave(std::move(name)) {}

  std::map<Addr, u32> regs;
  std::vector<std::pair<Addr, u32>> write_log;

 protected:
  u32 read_reg(Addr addr) override {
    const auto it = regs.find(addr);
    return it == regs.end() ? 0 : it->second;
  }
  void write_reg(Addr addr, u32 value) override {
    regs[addr] = value;
    write_log.emplace_back(addr, value);
  }
};

// ---- trace-stream assertion helpers (obs::TraceSink) ----
//
// These read the retained ring only, so tests using them should size
// the sink (or keep runs short) such that the events they assert on
// are not evicted. Driver events (driver::TraceSource) are recorded in
// every build, with the sink enabled or not, so assertions on them run
// unguarded. Component events (RVCAP_TRACE) need the sink enabled and
// are compiled out under RVCAP_NO_TRACE; guard those with
//   if (!obs::trace_compiled_in()) GTEST_SKIP();

/// All retained events of one kind, optionally restricted to a source.
inline std::vector<obs::TraceEvent> events_of(const obs::TraceSink& sink,
                                              obs::EventKind kind,
                                              std::string_view src = {}) {
  std::vector<obs::TraceEvent> out;
  for (const obs::TraceEvent& e : sink.events()) {
    if (e.kind != kind) continue;
    if (!src.empty() && sink.source_name(e.src) != src) continue;
    out.push_back(e);
  }
  return out;
}

/// Retained events with ts in [from, to] (inclusive), oldest first.
inline std::vector<obs::TraceEvent> events_between(const obs::TraceSink& sink,
                                                   Cycles from, Cycles to) {
  std::vector<obs::TraceEvent> out;
  for (const obs::TraceEvent& e : sink.events()) {
    if (e.ts >= from && e.ts <= to) out.push_back(e);
  }
  return out;
}

/// All retained events of one source, every kind, oldest first.
inline std::vector<obs::TraceEvent> events_from(const obs::TraceSink& sink,
                                                std::string_view src) {
  std::vector<obs::TraceEvent> out;
  for (const obs::TraceEvent& e : sink.events()) {
    if (sink.source_name(e.src) == src) out.push_back(e);
  }
  return out;
}

/// Retained events grouped by source name, each group oldest first.
using EventStreams = std::map<std::string, std::vector<obs::TraceEvent>>;
inline EventStreams events_by_source(const obs::TraceSink& sink) {
  EventStreams out;
  for (const obs::TraceEvent& e : sink.events()) {
    out[std::string(sink.source_name(e.src))].push_back(e);
  }
  return out;
}

/// EXPECT two runs' event streams identical, source by source and
/// event by event (the interned source ids may differ).
inline void expect_same_streams(const EventStreams& a, const EventStreams& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [src, ea] : a) {
    const auto it = b.find(src);
    ASSERT_NE(it, b.end()) << "no events from " << src;
    const auto& eb = it->second;
    ASSERT_EQ(ea.size(), eb.size()) << src;
    for (usize i = 0; i < ea.size(); ++i) {
      EXPECT_EQ(ea[i].ts, eb[i].ts) << src << " event " << i;
      EXPECT_EQ(ea[i].kind, eb[i].kind) << src << " event " << i;
      EXPECT_EQ(ea[i].a0, eb[i].a0) << src << " event " << i;
      EXPECT_EQ(ea[i].a1, eb[i].a1) << src << " event " << i;
      EXPECT_EQ(ea[i].a2, eb[i].a2) << src << " event " << i;
    }
  }
}

/// One DprManager recovery stage, decoded from its kDprStage event.
struct DprStage {
  Cycles ts = 0;
  u32 rm_id = 0;
  driver::FailStage stage{};
  Status status{};
  u32 attempt = 0;
  u64 mtime = 0;  // CLINT timestamp the firmware stamped the record with
};

/// The retained recovery stages of slot `slot`'s DprManager, oldest
/// first.
inline std::vector<DprStage> dpr_stages(const obs::TraceSink& sink,
                                        u32 slot = 0) {
  std::vector<DprStage> out;
  for (const obs::TraceEvent& e :
       events_of(sink, obs::EventKind::kDprStage,
                 "dpr.slot" + std::to_string(slot))) {
    out.push_back({e.ts, static_cast<u32>(e.a0),
                   static_cast<driver::FailStage>(e.a1 & 0xFF),
                   static_cast<Status>((e.a1 >> 8) & 0xFF),
                   static_cast<u32>(e.a1 >> 16), e.a2});
  }
  return out;
}

/// Count of retained events of one kind.
inline usize count_events(const obs::TraceSink& sink, obs::EventKind kind,
                          std::string_view src = {}) {
  return events_of(sink, kind, src).size();
}

/// EXPECT that at least one event of `kind` was retained; returns a
/// pointer to the first match (nullptr on failure) so callers can
/// assert on its payload.
inline const obs::TraceEvent* expect_event(const obs::TraceSink& sink,
                                           obs::EventKind kind,
                                           std::string_view src = {}) {
  for (const obs::TraceEvent& e : sink.events()) {
    if (e.kind != kind) continue;
    if (!src.empty() && sink.source_name(e.src) != src) continue;
    return &e;
  }
  ADD_FAILURE() << "no retained trace event of kind '"
                << obs::event_name(kind) << "'"
                << (src.empty() ? "" : " from source '")
                << (src.empty() ? "" : std::string(src) + "'");
  return nullptr;
}

/// EXPECT that every `before` event precedes every `after` event in
/// emission order (causality: e.g. all kSvcDispatch before kSvcHang).
inline void expect_ordered(const obs::TraceSink& sink, obs::EventKind before,
                           obs::EventKind after) {
  bool saw_after = false;
  usize idx = 0;
  for (const obs::TraceEvent& e : sink.events()) {
    if (e.kind == after) saw_after = true;
    if (e.kind == before && saw_after) {
      ADD_FAILURE() << "trace ordering violated: '"
                    << obs::event_name(before) << "' at ring index " << idx
                    << " appears after an '" << obs::event_name(after)
                    << "'";
      return;
    }
    ++idx;
  }
}

// ---- telemetry over the bus (PerfRegs window) ----

/// Read a registered counter the way firmware does: select its index
/// in the PerfRegs window, then read the latched value. Fails the test
/// when no counter carries `name`.
inline u64 perf_counter(driver::RvCapDriver& drv, std::string_view name) {
  const obs::CounterRegistry& reg =
      drv.cpu_context().simulator().obs().counters();
  const usize idx = reg.counter_index(name);
  EXPECT_LT(idx, reg.counter_count()) << "no counter named " << name;
  drv.perf_select(static_cast<u32>(idx));
  return drv.perf_read();
}

// ---- shared DPR world ----

/// A SoC with the AXI_HWICAP fallback, a seeded fault injector and a
/// self-healing DprManager on RP0 with the post-recovery verify on;
/// "sobel" and "median" are pre-staged in DDR.
struct DprWorld {
  explicit DprWorld(
      sim::Simulator::Mode sim_mode = sim::Simulator::Mode::kScheduled,
      u64 seed = 0x5EED)
      : soc(make_config(sim_mode)),
        drv(soc.cpu(), soc.plic()),
        hwicap_drv(soc.cpu()),
        fi(seed),
        mgr(drv, soc.config_memory(), soc.rp0_handle(), nullptr) {
    soc.attach_fault_injector(&fi);
    mgr.set_fault_injector(&fi);
    mgr.attach_fallback(&hwicap_drv);
    driver::DprManager::RecoveryPolicy p;
    p.scrub_after_recovery = true;
    mgr.set_policy(p);
    stage("sobel", accel::kRmIdSobel, 0x8A00'0000);
    stage("median", accel::kRmIdMedian, 0x8B00'0000);
  }

  static soc::SocConfig make_config(sim::Simulator::Mode sim_mode) {
    soc::SocConfig cfg;
    cfg.sim_mode = sim_mode;
    cfg.with_hwicap = true;  // fallback path available
    return cfg;
  }

  /// Generate `name`'s RP0 bitstream, poke it at `addr` and register it.
  void stage(const char* name, u32 rm_id, Addr addr) {
    const auto pbit = bitstream::generate_partial_bitstream(
        soc.device(), soc.rp0(), {rm_id, name});
    soc.ddr().poke(addr, pbit);
    ASSERT_EQ(mgr.register_staged(name, rm_id, addr,
                                  static_cast<u32>(pbit.size())),
              Status::kOk);
  }

  bool decoupled() { return soc.rvcap().rp_control().decoupled(); }
  /// The rp0 manager's recovery stages, oldest first.
  std::vector<DprStage> stages() {
    return dpr_stages(soc.sim().obs().sink());
  }

  soc::ArianeSoc soc;
  driver::RvCapDriver drv;
  driver::HwIcapDriver hwicap_drv;
  sim::FaultInjector fi;
  driver::DprManager mgr;
};

}  // namespace rvcap::test
