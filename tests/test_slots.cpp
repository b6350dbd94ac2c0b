// Multi-RP slot serving: floorplan validation, concurrent residency,
// preemptive capture/restore, and fail-safe swap recovery.
//
// Covers the slot scheduler end to end over a live multi-slot SoC:
//  * floorplan — overlapping or out-of-geometry regions are hard
//    construction errors with a diagnostic;
//  * serving — two RMs resident concurrently on distinct slots, each
//    producing its golden output through the shared stream switch;
//  * preemption — a high-priority arrival captures the victim's frames
//    and architectural state, runs, and the victim resumes
//    bit-identically in the same slot;
//  * fail-safe swap — torn captures, stale frames, captures taken
//    under an essential upset, and wedged swap transfers all end in a
//    diagnosed rollback to a golden reload, never corrupted output;
//  * degradation — priority-safe shedding, aging against starvation,
//    deadline expiry, and kFlat vs kScheduled kernel equivalence for
//    the whole scheduling scenario.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "accel/filters.hpp"
#include "accel/fir_filter.hpp"
#include "accel/stream_cipher.hpp"
#include "bitstream/generator.hpp"
#include "common/rng.hpp"
#include "driver/dpr_manager.hpp"
#include "driver/reconfig_service.hpp"
#include "driver/slot_scheduler.hpp"
#include "fabric/floorplan.hpp"
#include "fabric/frame_ecc.hpp"
#include "sim/fault_injector.hpp"
#include "soc/ariane_soc.hpp"
#include "testutil.hpp"

namespace rvcap {
namespace {

using accel::StreamCipher;
using driver::DprManager;
using driver::ReconfigService;
using driver::SlotScheduler;
using sim::FaultInjector;
using soc::ArianeSoc;
using soc::SocConfig;
namespace sites = sim::fault_sites;

using Task = SlotScheduler::HwTask;
using TaskState = SlotScheduler::TaskState;
using Rollback = SlotScheduler::RollbackReason;

// ---------------------------------------------------------------------
// Floorplan validation (construction-time geometry checks)
// ---------------------------------------------------------------------

TEST(Floorplan, OverlapIsAHardError) {
  ArianeSoc soc((SocConfig()));
  const auto& rp0 = soc.rp0();
  // A partition sharing rp0's first column cell.
  fabric::Partition alias("RPX", {rp0.columns()[0]});

  std::string diag;
  std::vector<fabric::FloorplanRegion> regions{{"RP0", &rp0, '0'},
                                               {"RPX", &alias, 'X'}};
  EXPECT_EQ(fabric::Floorplan::validate(soc.device(), regions, &diag),
            Status::kInvalidArgument);
  EXPECT_NE(diag.find("overlap"), std::string::npos) << diag;
  EXPECT_NE(diag.find("RP0"), std::string::npos) << diag;
  EXPECT_NE(diag.find("RPX"), std::string::npos) << diag;
  EXPECT_THROW(fabric::Floorplan(soc.device(), regions),
               std::invalid_argument);
}

TEST(Floorplan, OutOfGeometryAndSelfAliasAreErrors) {
  ArianeSoc soc((SocConfig()));
  auto& dev = soc.device();

  fabric::Partition beyond("RPY", {{0, dev.num_columns()}});
  std::string diag;
  std::vector<fabric::FloorplanRegion> regions{{"RPY", &beyond, 'Y'}};
  EXPECT_EQ(fabric::Floorplan::validate(dev, regions, &diag),
            Status::kInvalidArgument);
  EXPECT_NE(diag.find("RPY"), std::string::npos) << diag;

  fabric::Partition twice("RPZ", {{0, 1}, {0, 1}});
  regions = {{"RPZ", &twice, 'Z'}};
  EXPECT_EQ(fabric::Floorplan::validate(dev, regions, &diag),
            Status::kInvalidArgument);
  EXPECT_NE(diag.find("twice"), std::string::npos) << diag;

  regions = {{"null", nullptr, 'n'}};
  EXPECT_EQ(fabric::Floorplan::validate(dev, regions, &diag),
            Status::kInvalidArgument);

  // A valid floorplan passes and renders.
  std::vector<fabric::FloorplanRegion> good{{"RP0", &soc.rp0(), '0'}};
  EXPECT_EQ(fabric::Floorplan::validate(dev, good, nullptr), Status::kOk);
  fabric::Floorplan fp(dev, good);
  EXPECT_EQ(fp.num_regions(), 1u);
  EXPECT_FALSE(fp.render().empty());
}

TEST(Floorplan, MultiSlotSocPlansDisjointPartitions) {
  SocConfig cfg;
  cfg.num_slots = 2;
  ArianeSoc soc(cfg);
  ASSERT_EQ(soc.num_slots(), 2u);
  // The geometry check ran at construction; verify disjointness too.
  const auto& a = soc.slot_partition(0).columns();
  const auto& b = soc.slot_partition(1).columns();
  for (const auto& ca : a) {
    for (const auto& cb : b) {
      EXPECT_FALSE(ca == cb) << "slots share (" << ca.row << "," << ca.column
                             << ")";
    }
  }
}

TEST(Floorplan, SocRejectsMoreSlotsThanTheDeviceHosts) {
  SocConfig cfg;
  cfg.device = soc::DeviceModel::kArtix7_100t;
  cfg.num_slots = 16;
  EXPECT_THROW(ArianeSoc{cfg}, std::invalid_argument);
}

// ---------------------------------------------------------------------
// World: two-slot SoC with per-slot manager/service stacks.
// ---------------------------------------------------------------------

constexpr Addr kGoldenBase = 0xA000'0000;      // per-slot golden pbits
constexpr Addr kCaptureArena = 0x9800'0000;
constexpr Addr kRestoreStaging = 0x9E00'0000;
constexpr Addr kCmdStaging = 0x9F00'0000;      // + slot * 0x10000
constexpr Addr kDataBase = 0xB000'0000;        // task src/dst buffers

SlotScheduler::Config sched_config() {
  SlotScheduler::Config cc;
  cc.capture_arena = kCaptureArena;
  cc.capture_areas = 4;
  cc.restore_staging = kRestoreStaging;
  cc.default_chunk_bytes = 512;
  cc.aging_quantum_mtime = 0;  // aging off unless a test turns it on
  return cc;
}

struct SlotWorld {
  explicit SlotWorld(u32 num_slots = 2,
                     sim::Simulator::Mode mode =
                         sim::Simulator::Mode::kScheduled)
      : soc(make_config(num_slots, mode)), drv(soc.cpu(), soc.plic()),
        fi(0x5EED) {
    soc.attach_fault_injector(&fi);
    for (u32 s = 0; s < num_slots; ++s) {
      DprManager::Config mc;
      mc.staging_base = 0x8E00'0000 + u64{s} * 0x0100'0000;
      mc.slot_id = s;
      mgrs.push_back(std::make_unique<DprManager>(
          drv, soc.config_memory(), soc.slot_handle(s), nullptr, mc));
      mgrs.back()->set_fault_injector(&fi);
      ReconfigService::Config sc;
      sc.slot_id = s;
      svcs.push_back(std::make_unique<ReconfigService>(*mgrs[s], sc));
      stage(s, "cipher", accel::kRmIdCipher);
      stage(s, "fir", accel::kRmIdFir);
      stage(s, "sobel", accel::kRmIdSobel);
    }
    rebuild_scheduler(sched_config());
  }

  static SocConfig make_config(u32 num_slots, sim::Simulator::Mode mode) {
    SocConfig cfg;
    cfg.num_slots = num_slots;
    cfg.sim_mode = mode;
    return cfg;
  }

  void rebuild_scheduler(const SlotScheduler::Config& cc) {
    sched = std::make_unique<SlotScheduler>(drv, cc);
    sched->set_fault_injector(&fi);
    for (u32 s = 0; s < soc.num_slots(); ++s) {
      sched->add_slot({s, svcs[s].get(), mgrs[s].get(), &soc.slot_rm(s),
                       &soc.config_memory(), soc.slot_handle(s),
                       kCmdStaging + u64{s} * 0x10000});
    }
  }

  /// Generate a slot's golden pbit (frame addresses are per-partition)
  /// and register it with that slot's manager.
  void stage(u32 s, const char* name, u32 rm_id) {
    const auto pbit = bitstream::generate_partial_bitstream(
        soc.device(), soc.slot_partition(s), {rm_id, name});
    const Addr addr = kGoldenBase + (u64{s} * 3 + staged_[s]) * 0x0040'0000;
    ++staged_[s];
    soc.ddr().poke(addr, pbit);
    ASSERT_EQ(mgrs[s]->register_staged(name, rm_id, addr,
                                       static_cast<u32>(pbit.size())),
              Status::kOk);
  }

  /// A cipher task: `bytes` of seeded data XOR-encrypted under `key`.
  Task cipher_task(u64 key, u32 bytes, u32 priority, Addr src, Addr dst,
                   u64 seed) {
    SplitMix64 rng(seed);
    std::vector<u8> plain(bytes);
    for (auto& b : plain) b = rng.next_byte();
    soc.ddr().poke(src, plain);
    Task t;
    t.module = "cipher";
    t.rm_id = accel::kRmIdCipher;
    t.priority = priority;
    t.src = src;
    t.dst = dst;
    t.total_bytes = bytes;
    t.setup_regs = {{0, static_cast<u32>(key)},
                    {1, static_cast<u32>(key >> 32)}};
    return t;
  }

  /// Expected cipher output: the keystream restarts per chunk (each
  /// run_accelerator transfer is one AXI-Stream packet).
  std::vector<u8> cipher_golden(u64 key, Addr src, u32 bytes,
                                u32 chunk_bytes) {
    std::vector<u8> plain(bytes);
    soc.ddr().peek(src, plain);
    std::vector<u8> out(bytes);
    for (u32 off = 0; off < bytes; off += chunk_bytes) {
      const u32 n = std::min(chunk_bytes, bytes - off);
      for (u32 beat = 0; beat < n / 8; ++beat) {
        u64 p = 0;
        std::memcpy(&p, plain.data() + off + beat * 8, 8);
        const u64 c = p ^ StreamCipher::keystream(key, beat);
        std::memcpy(out.data() + off + beat * 8, &c, 8);
      }
    }
    return out;
  }

  /// A Sobel task over one `dim` x `dim` frame.
  Task sobel_task(u32 dim, u32 priority, Addr src, Addr dst, u64 seed) {
    const accel::Image img = accel::make_test_image(dim, dim, seed);
    soc.ddr().poke(src, img.pixels);
    Task t;
    t.module = "sobel";
    t.rm_id = accel::kRmIdSobel;
    t.priority = priority;
    t.src = src;
    t.dst = dst;
    t.total_bytes = dim * dim;
    t.chunk_bytes = dim * dim;  // whole frames (pipeline skew)
    t.setup_regs = {{0, dim}, {1, dim}};
    return t;
  }

  std::vector<u8> sobel_golden(u32 dim, u64 seed) {
    const accel::Image img = accel::make_test_image(dim, dim, seed);
    return accel::apply_golden(accel::FilterKind::kSobel, img).pixels;
  }

  std::vector<u8> read_dst(Addr dst, u32 bytes) {
    std::vector<u8> out(bytes);
    soc.ddr().peek(dst, out);
    return out;
  }

  /// The scheduler's retained kSlot* events of one kind.
  std::vector<obs::TraceEvent> slot_events(obs::EventKind kind) {
    return test::events_of(soc.sim().obs().sink(), kind, "slot_scheduler");
  }
  bool has_event(obs::EventKind kind) { return !slot_events(kind).empty(); }
  bool has_rollback(Rollback reason) {
    for (const auto& e : slot_events(obs::EventKind::kSlotRollback)) {
      if (e.a1 == static_cast<u64>(reason)) return true;
    }
    return false;
  }

  ArianeSoc soc;
  driver::RvCapDriver drv;
  FaultInjector fi;
  std::vector<std::unique_ptr<DprManager>> mgrs;
  std::vector<std::unique_ptr<ReconfigService>> svcs;
  std::unique_ptr<SlotScheduler> sched;
  u32 staged_[16] = {};
};

// ---------------------------------------------------------------------
// Concurrent residency and basic serving
// ---------------------------------------------------------------------

TEST(SlotServing, TwoModulesResidentConcurrently) {
  SlotWorld w;
  const u64 key = 0x9ABCDEF012345678ULL;
  SlotScheduler::TaskId a = 0, b = 0;
  ASSERT_EQ(w.sched->submit(w.cipher_task(key, 4096, 1, kDataBase,
                                          kDataBase + 0x10000, 11),
                            &a),
            Status::kOk);
  ASSERT_EQ(w.sched->submit(w.sobel_task(64, 1, kDataBase + 0x20000,
                                         kDataBase + 0x30000, 22),
                            &b),
            Status::kOk);
  // Equal priority: the least-recently-progressed tie-break places the
  // second task on the second slot instead of starving it.
  ASSERT_TRUE(w.sched->step());
  ASSERT_TRUE(w.sched->step());
  const auto* ta = w.sched->task(a);
  const auto* tb = w.sched->task(b);
  ASSERT_NE(ta, nullptr);
  ASSERT_NE(tb, nullptr);
  EXPECT_NE(ta->slot, tb->slot);
  // Both partitions hold their modules simultaneously.
  const auto ps0 = w.soc.config_memory().partition_state(w.soc.slot_handle(0));
  const auto ps1 = w.soc.config_memory().partition_state(w.soc.slot_handle(1));
  EXPECT_TRUE(ps0.loaded);
  EXPECT_TRUE(ps1.loaded);
  EXPECT_NE(ps0.rm_id, ps1.rm_id);

  w.sched->drain();
  EXPECT_EQ(w.sched->task(a)->state, TaskState::kCompleted);
  EXPECT_EQ(w.sched->task(b)->state, TaskState::kCompleted);
  EXPECT_EQ(w.read_dst(kDataBase + 0x10000, 4096),
            w.cipher_golden(key, kDataBase, 4096, 512));
  EXPECT_EQ(w.read_dst(kDataBase + 0x30000, 64 * 64), w.sobel_golden(64, 22));
  EXPECT_EQ(w.sched->stats().completed, 2u);
  EXPECT_EQ(w.sched->stats().preemptions, 0u);
}

TEST(SlotServing, QueuedDeadlineExpiresInsteadOfDispatching) {
  SlotWorld w;
  w.soc.sim().run_cycles(kCyclesPerClintTick * 100);
  SlotScheduler::TaskId id = 0;
  Task t = w.cipher_task(1, 1024, 1, kDataBase, kDataBase + 0x10000, 33);
  t.deadline_mtime = 1;  // long past
  ASSERT_EQ(w.sched->submit(t, &id), Status::kOk);
  w.sched->drain();
  EXPECT_EQ(w.sched->task(id)->state, TaskState::kDeadlineMissed);
  EXPECT_EQ(w.sched->task(id)->status, Status::kDeadlineMissed);
  EXPECT_EQ(w.sched->stats().deadline_misses, 1u);
  EXPECT_TRUE(w.has_event(obs::EventKind::kSlotDeadlineMiss));
}

// ---------------------------------------------------------------------
// Preemptive capture/restore
// ---------------------------------------------------------------------

/// Shared scenario: cipher A and fir B (equal priority) fill both
/// slots; sobel C (priority 9) preempts the least-recently-progressed
/// resident. Used by the happy path, the fault variants, and the
/// kernel-equivalence sweep.
struct PreemptScenario {
  static constexpr u64 kKey = 0x0F1E2D3C4B5A6978ULL;
  SlotScheduler::TaskId a = 0, b = 0, c = 0;

  void run(SlotWorld& w) {
    Task ta = w.cipher_task(kKey, 8 * 512, 1, kDataBase,
                            kDataBase + 0x10000, 111);
    Task tb;
    {
      SplitMix64 rng(222);
      std::vector<u8> samples(4 * 512);
      for (auto& s : samples) s = rng.next_byte();
      w.soc.ddr().poke(kDataBase + 0x20000, samples);
      tb.module = "fir";
      tb.rm_id = accel::kRmIdFir;
      tb.priority = 1;
      tb.src = kDataBase + 0x20000;
      tb.dst = kDataBase + 0x30000;
      tb.total_bytes = 4 * 512;
      const auto coeffs = accel::fir_passthrough_coeffs();
      for (u32 i = 0; i + 1 < coeffs.size(); i += 2) {
        const u32 lo = static_cast<u16>(coeffs[i]);
        const u32 hi = static_cast<u16>(coeffs[i + 1]);
        tb.setup_regs.push_back({i / 2, (hi << 16) | lo});
      }
    }
    ASSERT_EQ(w.sched->submit(ta, &a), Status::kOk);
    ASSERT_EQ(w.sched->submit(tb, &b), Status::kOk);
    // Both resident, a couple of chunks in.
    for (int i = 0; i < 4; ++i) ASSERT_TRUE(w.sched->step());
    ASSERT_EQ(w.sched->task(a)->state, TaskState::kRunning);
    ASSERT_EQ(w.sched->task(b)->state, TaskState::kRunning);

    ASSERT_EQ(w.sched->submit(w.sobel_task(64, 9, kDataBase + 0x40000,
                                           kDataBase + 0x50000, 333),
                              &c),
              Status::kOk);
    w.sched->drain();
  }

  void expect_all_golden(SlotWorld& w) {
    EXPECT_EQ(w.sched->task(a)->state, TaskState::kCompleted);
    EXPECT_EQ(w.sched->task(b)->state, TaskState::kCompleted);
    EXPECT_EQ(w.sched->task(c)->state, TaskState::kCompleted);
    EXPECT_EQ(w.read_dst(kDataBase + 0x10000, 8 * 512),
              w.cipher_golden(kKey, kDataBase, 8 * 512, 512));
    EXPECT_EQ(w.read_dst(kDataBase + 0x50000, 64 * 64),
              w.sobel_golden(64, 333));
    // FIR golden: the delay line resets per chunk packet.
    std::vector<u8> in(4 * 512);
    w.soc.ddr().peek(kDataBase + 0x20000, in);
    const auto coeffs = accel::fir_passthrough_coeffs();
    std::vector<u8> expect(in.size());
    for (u32 off = 0; off < in.size(); off += 512) {
      std::vector<i16> samples(256);
      std::memcpy(samples.data(), in.data() + off, 512);
      const auto out = accel::fir_reference(samples, coeffs);
      std::memcpy(expect.data() + off, out.data(), 512);
    }
    EXPECT_EQ(w.read_dst(kDataBase + 0x30000, 4 * 512), expect);
  }
};

TEST(SlotPreempt, CaptureSwapRestoreRoundTrip) {
  SlotWorld w;
  PreemptScenario sc;
  sc.run(w);
  sc.expect_all_golden(w);

  // One of the residents was preempted, captured, and later restored
  // in its original slot; the trace records the full swap.
  EXPECT_EQ(w.sched->stats().preemptions, 1u);
  EXPECT_EQ(w.sched->stats().captures, 1u);
  EXPECT_EQ(w.sched->stats().restores, 1u);
  EXPECT_EQ(w.sched->stats().rollbacks, 0u);
  EXPECT_TRUE(w.has_event(obs::EventKind::kSlotCapture));
  EXPECT_TRUE(w.has_event(obs::EventKind::kSlotRestore));
  // kSlotPreempt (a1 = slot) directly precedes its kSlotCapture.
  SlotScheduler::TaskId victim = 0;
  u32 capture_slot = ~u32{0};
  bool same_slot_restore = false;
  for (const auto& e : test::events_from(w.soc.sim().obs().sink(),
                                         "slot_scheduler")) {
    if (e.kind == obs::EventKind::kSlotPreempt) {
      victim = e.a0;
      capture_slot = static_cast<u32>(e.a1);
    }
    if (e.kind == obs::EventKind::kSlotRestore && e.a0 == victim &&
        e.a1 == capture_slot) {
      same_slot_restore = true;
    }
  }
  EXPECT_TRUE(same_slot_restore);
  ASSERT_NE(w.sched->task(victim), nullptr);
  EXPECT_GE(w.sched->task(victim)->preemptions, 1u);
  EXPECT_EQ(w.sched->task(victim)->rollbacks, 0u);
}

TEST(SlotPreempt, RestoredOutputMatchesUninterruptedRun) {
  // The preemption scenario and an uninterrupted control run of the
  // same cipher task must produce byte-identical ciphertext: the
  // captured register file (the key) and stream counters survived the
  // capture/restore round trip exactly.
  SlotWorld w;
  PreemptScenario sc;
  sc.run(w);
  sc.expect_all_golden(w);

  SlotWorld control;
  SlotScheduler::TaskId ca = 0;
  ASSERT_EQ(control.sched->submit(
                control.cipher_task(PreemptScenario::kKey, 8 * 512, 1,
                                    kDataBase, kDataBase + 0x10000, 111),
                &ca),
            Status::kOk);
  control.sched->drain();
  ASSERT_EQ(control.sched->task(ca)->state, TaskState::kCompleted);
  EXPECT_EQ(w.read_dst(kDataBase + 0x10000, 8 * 512),
            control.read_dst(kDataBase + 0x10000, 8 * 512));
}

// ---------------------------------------------------------------------
// Fail-safe swap recovery
// ---------------------------------------------------------------------

TEST(SlotRecovery, TornCaptureRollsBackToGoldenReload) {
  SlotWorld w;
  ASSERT_EQ(w.fi.arm(sites::kSlotCaptureTorn, 1), Status::kOk);
  PreemptScenario sc;
  sc.run(w);
  sc.expect_all_golden(w);  // rollback restarted the task: still golden

  EXPECT_EQ(w.sched->stats().torn_detected, 1u);
  EXPECT_GE(w.sched->stats().rollbacks, 1u);
  EXPECT_EQ(w.sched->stats().restores, 0u);
  EXPECT_TRUE(w.has_rollback(Rollback::kDigest));
}

TEST(SlotRecovery, StaleFramesRollBackToGoldenReload) {
  SlotWorld w;
  ASSERT_EQ(w.fi.arm(sites::kSlotRestoreStale, 1), Status::kOk);
  PreemptScenario sc;
  sc.run(w);
  sc.expect_all_golden(w);

  EXPECT_EQ(w.sched->stats().stale_detected, 1u);
  EXPECT_GE(w.sched->stats().rollbacks, 1u);
  EXPECT_EQ(w.sched->stats().restores, 0u);
  EXPECT_TRUE(w.has_rollback(Rollback::kStale));
}

TEST(SlotRecovery, PoisonedCaptureIsNeverRestored) {
  SlotWorld w;
  const u64 key = 0x1122334455667788ULL;
  SlotScheduler::TaskId a = 0;
  ASSERT_EQ(w.sched->submit(w.cipher_task(key, 8 * 512, 1, kDataBase,
                                          kDataBase + 0x10000, 44),
                            &a),
            Status::kOk);
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(w.sched->step());
  ASSERT_EQ(w.sched->task(a)->state, TaskState::kRunning);
  const u32 slot = w.sched->task(a)->slot;
  const usize handle = w.soc.slot_handle(slot);

  // Land an essential upset in the task's partition: the capture will
  // serialize corrupted logic, so the restore must refuse it.
  const auto& cols = w.soc.slot_partition(slot).columns();
  const fabric::FrameAddr fa{cols[0].row, cols[0].column, 0};
  bool landed = false;
  for (u32 word = 0; word < fabric::kFrameWords && !landed; ++word) {
    for (u32 bit = 0; bit < 32 && !landed; ++bit) {
      if (fabric::essential_bit(accel::kRmIdCipher, 0, word, bit)) {
        ASSERT_TRUE(w.soc.config_memory().inject_upset(fa, word, bit));
        landed = true;
      }
    }
  }
  ASSERT_TRUE(landed);
  ASSERT_GT(w.soc.config_memory().partition_state(handle).essential_upsets,
            0u);

  ASSERT_EQ(w.sched->preempt_slot(slot), Status::kOk);
  EXPECT_EQ(w.sched->task(a)->state, TaskState::kPreempted);
  w.sched->drain();

  EXPECT_EQ(w.sched->task(a)->state, TaskState::kCompleted);
  EXPECT_EQ(w.sched->stats().poisoned_detected, 1u);
  EXPECT_GE(w.sched->stats().rollbacks, 1u);
  EXPECT_EQ(w.sched->stats().restores, 0u);
  EXPECT_TRUE(w.has_rollback(Rollback::kPoisoned));
  // The rollback reloaded golden frames (clearing the upset) and
  // restarted from byte 0: the output carries no trace of it.
  EXPECT_EQ(w.soc.config_memory().partition_state(handle).essential_upsets,
            0u);
  EXPECT_EQ(w.read_dst(kDataBase + 0x10000, 8 * 512),
            w.cipher_golden(key, kDataBase, 8 * 512, 512));
}

TEST(SlotRecovery, WedgedSwapBecomesDiagnosedHang) {
  SlotWorld w;
  ASSERT_EQ(w.fi.arm(sites::kSlotSwapStall, 1), Status::kOk);
  const u64 key = 0xC001D00DCAFEF00DULL;
  SlotScheduler::TaskId a = 0;
  ASSERT_EQ(w.sched->submit(w.cipher_task(key, 4 * 512, 1, kDataBase,
                                          kDataBase + 0x10000, 55),
                            &a),
            Status::kOk);
  w.sched->drain();

  // The first swap-in wedged; the slot service's watchdog diagnosed a
  // kHang, the manager's recovery machine retried, and the task still
  // completed with golden output — no silent corruption, no lost task.
  EXPECT_EQ(w.sched->task(a)->state, TaskState::kCompleted);
  EXPECT_GE(w.sched->stats().swap_hangs, 1u);
  EXPECT_GE(w.svcs[w.sched->task(a)->slot]->stats().hangs, 1u);
  EXPECT_TRUE(w.has_event(obs::EventKind::kSlotSwapHang));
  EXPECT_EQ(w.read_dst(kDataBase + 0x10000, 4 * 512),
            w.cipher_golden(key, kDataBase, 4 * 512, 512));
}

TEST(SlotRecovery, DrainFinishesEveryTaskAfterOneExhaustsItsRollbacks) {
  // Both slots vacant, a parked task owning each, and the best task a
  // queued one that may not displace them. The fallback then restores a
  // parked task whose torn capture spends its only rollback and fails
  // it. That failure is progress: drain() must go on to run the rest
  // instead of stopping with work still queued.
  SlotWorld w;
  SlotScheduler::Config cc = sched_config();
  cc.max_rollbacks = 0;
  w.rebuild_scheduler(cc);
  const u64 key = 0x7E57AB1E5EEDF00DULL;
  std::vector<SlotScheduler::TaskId> ids(3, 0);
  for (u32 i = 0; i < 2; ++i) {
    ASSERT_EQ(w.sched->submit(w.cipher_task(key, 8 * 512, 1,
                                            kDataBase + u64{i} * 0x20000,
                                            kDataBase + u64{i} * 0x20000 +
                                                0x10000,
                                            300 + i),
                              &ids[i]),
              Status::kOk);
  }
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(w.sched->step());
  ASSERT_EQ(w.sched->task(ids[0])->state, TaskState::kRunning);
  ASSERT_EQ(w.sched->task(ids[1])->state, TaskState::kRunning);
  ASSERT_EQ(w.fi.arm(sites::kSlotCaptureTorn, 1), Status::kOk);
  ASSERT_EQ(w.sched->preempt_slot(w.sched->task(ids[0])->slot), Status::kOk);
  ASSERT_EQ(w.sched->preempt_slot(w.sched->task(ids[1])->slot), Status::kOk);

  // Equal priority; the deadline wins the tie, so the queued task is
  // picked first but cannot take a slot a parked equal owns.
  Task late = w.cipher_task(key, 4 * 512, 1, kDataBase + 0x40000,
                            kDataBase + 0x50000, 302);
  late.deadline_mtime = ~u64{0} - 1;
  ASSERT_EQ(w.sched->submit(late, &ids[2]), Status::kOk);
  w.sched->drain();

  EXPECT_EQ(w.sched->task(ids[0])->state, TaskState::kFailed);
  EXPECT_EQ(w.sched->task(ids[0])->status, Status::kCrcError);
  EXPECT_EQ(w.sched->task(ids[1])->state, TaskState::kCompleted);
  EXPECT_EQ(w.sched->task(ids[2])->state, TaskState::kCompleted);
  EXPECT_EQ(w.sched->stats().torn_detected, 1u);
  EXPECT_EQ(w.read_dst(kDataBase + 0x30000, 8 * 512),
            w.cipher_golden(key, kDataBase + 0x20000, 8 * 512, 512));
  EXPECT_EQ(w.read_dst(kDataBase + 0x50000, 4 * 512),
            w.cipher_golden(key, kDataBase + 0x40000, 4 * 512, 512));
  EXPECT_FALSE(w.sched->step());  // nothing left to do
}

// ---------------------------------------------------------------------
// Oversubscription: priority-safe shedding and aging
// ---------------------------------------------------------------------

TEST(SlotOversubscription, ShedsArePrioritySafeBothWays) {
  SlotWorld w(1);
  SlotScheduler::Config cc = sched_config();
  cc.queue_capacity = 2;
  w.rebuild_scheduler(cc);

  const u64 key = 0xFEED5EED0BADF00DULL;
  std::vector<SlotScheduler::TaskId> ids(4, 0);
  for (u32 i = 0; i < 4; ++i) {
    const Status st = w.sched->submit(
        w.cipher_task(key, 2 * 512, i < 2 ? 1 : 5,
                      kDataBase + u64{i} * 0x20000,
                      kDataBase + u64{i} * 0x20000 + 0x10000, 100 + i),
        &ids[i]);
    EXPECT_EQ(st, Status::kOk) << i;
  }
  // The two priority-5 arrivals shed the two priority-1 entries (never
  // the reverse).
  u32 shed_low = 0;
  for (const auto& t : w.sched->tasks()) {
    if (t.state == TaskState::kShed) {
      EXPECT_EQ(t.task.priority, 1u);
      ++shed_low;
    }
  }
  EXPECT_EQ(shed_low, 2u);
  EXPECT_EQ(w.sched->stats().sheds, 2u);
  EXPECT_TRUE(w.has_event(obs::EventKind::kSlotShed));

  // A low-priority submit against a full high-priority queue is
  // refused (the arrival itself sheds) — priority-safe both ways.
  SlotScheduler::TaskId low = 0;
  EXPECT_EQ(w.sched->submit(w.cipher_task(key, 2 * 512, 0,
                                          kDataBase + 0x100000,
                                          kDataBase + 0x110000, 200),
                            &low),
            Status::kRejected);
  ASSERT_NE(w.sched->task(low), nullptr);
  EXPECT_EQ(w.sched->task(low)->state, TaskState::kShed);
  EXPECT_EQ(w.sched->task(low)->status, Status::kRejected);

  // The surviving high-priority tasks complete with golden output.
  w.sched->drain();
  for (u32 i = 2; i < 4; ++i) {
    EXPECT_EQ(w.sched->task(ids[i])->state, TaskState::kCompleted);
    EXPECT_EQ(w.read_dst(kDataBase + u64{i} * 0x20000 + 0x10000, 2 * 512),
              w.cipher_golden(key, kDataBase + u64{i} * 0x20000, 2 * 512,
                              512));
  }
}

TEST(SlotOversubscription, AgingLetsAStarvedTaskPreempt) {
  SlotWorld w(1);
  SlotScheduler::Config cc = sched_config();
  cc.aging_quantum_mtime = 500;  // fast aging for the test
  w.rebuild_scheduler(cc);

  const u64 key = 0x5107A61267890123ULL;
  // A long-running priority-2 hog and a queued priority-0 task.
  SlotScheduler::TaskId hog = 0, starved = 0;
  ASSERT_EQ(w.sched->submit(w.cipher_task(key, 16 * 512, 2, kDataBase,
                                          kDataBase + 0x10000, 77),
                            &hog),
            Status::kOk);
  ASSERT_EQ(w.sched->submit(w.cipher_task(key, 2 * 512, 0,
                                          kDataBase + 0x20000,
                                          kDataBase + 0x30000, 78),
                            &starved),
            Status::kOk);
  w.sched->drain();

  // Waiting-time credit eventually let the priority-0 task strictly
  // outrank the hog and preempt it mid-flight; the hog was captured,
  // later restored, and both still produced golden output.
  EXPECT_EQ(w.sched->task(hog)->state, TaskState::kCompleted);
  EXPECT_EQ(w.sched->task(starved)->state, TaskState::kCompleted);
  EXPECT_GE(w.sched->task(hog)->preemptions, 1u);
  EXPECT_GE(w.sched->stats().captures, 1u);
  EXPECT_GE(w.sched->stats().restores, 1u);
  EXPECT_EQ(w.read_dst(kDataBase + 0x10000, 16 * 512),
            w.cipher_golden(key, kDataBase, 16 * 512, 512));
  EXPECT_EQ(w.read_dst(kDataBase + 0x30000, 2 * 512),
            w.cipher_golden(key, kDataBase + 0x20000, 2 * 512, 512));
}

// ---------------------------------------------------------------------
// Journal slot-id attribution and per-slot telemetry
// ---------------------------------------------------------------------

TEST(SlotJournal, ManagerJournalCarriesTheSlotId) {
  SlotWorld w;
  // Corrupt slot 1's staged cipher image: activation fails its golden
  // CRC and every recovery stage must attribute to slot 1.
  DprManager::StagedInfo info;
  ASSERT_EQ(w.mgrs[1]->staged_image("cipher", &info), Status::kOk);
  u8 byte = 0;
  w.soc.ddr().peek(info.addr + 100, std::span(&byte, 1));
  byte ^= 0x40;
  w.soc.ddr().poke(info.addr + 100, std::span(&byte, 1));
  EXPECT_NE(w.mgrs[1]->activate("cipher"), Status::kOk);
  const obs::TraceSink& sink = w.soc.sim().obs().sink();
  const usize slot1_stages = test::dpr_stages(sink, 1).size();
  EXPECT_GT(slot1_stages, 0u);
  // Every kDprStage so far came from slot 1's manager.
  EXPECT_EQ(test::count_events(sink, obs::EventKind::kDprStage),
            slot1_stages);
  // Slot 0's manager is unaffected: its activation still succeeds, and
  // a failure of its own is recorded under slot 0, not slot 1.
  EXPECT_EQ(w.mgrs[0]->activate("cipher"), Status::kOk);
  EXPECT_TRUE(test::dpr_stages(sink, 0).empty());
  ASSERT_EQ(w.mgrs[0]->staged_image("fir", &info), Status::kOk);
  w.soc.ddr().peek(info.addr + 100, std::span(&byte, 1));
  byte ^= 0x40;
  w.soc.ddr().poke(info.addr + 100, std::span(&byte, 1));
  EXPECT_NE(w.mgrs[0]->activate("fir"), Status::kOk);
  EXPECT_FALSE(test::dpr_stages(sink, 0).empty());
  EXPECT_EQ(test::dpr_stages(sink, 1).size(), slot1_stages);
  EXPECT_EQ(test::count_events(sink, obs::EventKind::kDprStage),
            slot1_stages + test::dpr_stages(sink, 0).size());
}

TEST(SlotJournal, MailboxPublishesSlotIdAndSwapCounters) {
  SlotWorld w;
  PreemptScenario scn;
  scn.run(w);
  scn.expect_all_golden(w);

  auto reg = [&](const char* name) { return test::perf_counter(w.drv, name); };
  // Slot 1's service reports under its own slot id.
  EXPECT_GT(reg("service.slot1.completed"), 0u);
  EXPECT_EQ(reg("service.slot1.completed"), w.svcs[1]->stats().completed);
  EXPECT_EQ(reg("slots.submitted"), 3u);
  EXPECT_EQ(reg("slots.completed"), 3u);
  EXPECT_EQ(reg("slots.preemptions"), 1u);
  EXPECT_EQ(reg("slots.captures"), 1u);
  EXPECT_EQ(reg("slots.restores"), 1u);
  EXPECT_EQ(reg("slots.rollbacks"), 0u);
  EXPECT_EQ(reg("slots.queue_depth"), 0u);
}

// One service and one manager per slot: their counters carry the slot
// id, so serving slot 0 leaves slot 1's counters untouched instead of
// the last-registered slot shadowing the others.
TEST(SlotTelemetry, PerSlotServiceCountersDoNotCollide) {
  SlotWorld w;
  ReconfigService::ActivationRequest req;
  req.module = "cipher";
  req.priority = 1;
  ASSERT_EQ(w.svcs[0]->submit(req), Status::kOk);
  EXPECT_EQ(w.svcs[0]->drain(), 1u);

  auto reg = [&](const char* name) { return test::perf_counter(w.drv, name); };
  EXPECT_EQ(reg("service.slot0.accepted"), 1u);
  EXPECT_EQ(reg("service.slot0.completed"), 1u);
  EXPECT_EQ(reg("service.slot1.accepted"), 0u);
  EXPECT_EQ(reg("service.slot1.completed"), 0u);
  EXPECT_EQ(reg("dpr.slot0.reconfigurations"), 1u);
  EXPECT_EQ(reg("dpr.slot1.reconfigurations"), 0u);
}

// Firmware addresses a counter by its PerfRegs index (registry order),
// so the stream wires' registration order is part of the register map:
// slot 0's wires ahead of rvcap.w7, further slots after it, then one RM
// out-wire per slot.
TEST(SlotTelemetry, StreamWireBeatsKeepTheirPerfRegsOrder) {
  auto beats_run = [](u32 num_slots) {
    SocConfig cfg;
    cfg.num_slots = num_slots;
    ArianeSoc soc(cfg);
    const obs::CounterRegistry& reg = soc.sim().obs().counters();
    const usize first = reg.counter_index("rvcap.w4.beats");
    EXPECT_EQ(first, 15u) << num_slots << " slots";
    std::vector<std::string> wires;
    for (usize i = first; i < reg.counter_count(); ++i) {
      const std::string_view n = reg.counter_name(i);
      if (!n.ends_with(".beats")) break;
      wires.emplace_back(n.substr(0, n.size() - 6));
    }
    return wires;
  };
  EXPECT_EQ(beats_run(1),
            (std::vector<std::string>{"rvcap.w4", "rvcap.w5", "rvcap.w6",
                                      "rvcap.w7", "rm_slot.out"}));
  EXPECT_EQ(beats_run(3),
            (std::vector<std::string>{
                "rvcap.w4", "rvcap.w5", "rvcap.w6", "rvcap.w7",
                "rvcap.w_slot1.in", "rvcap.w_slot1.out", "rvcap.w_slot2.in",
                "rvcap.w_slot2.out", "rm_slot.out", "rm_slot1.out",
                "rm_slot2.out"}));
}

// ---------------------------------------------------------------------
// Kernel equivalence: kFlat vs kScheduled
// ---------------------------------------------------------------------

TEST(SlotKernelEquivalence, SchedulingScenarioMatchesAcrossKernels) {
  struct Result {
    std::vector<u8> a, b, c;
    u64 captures, restores, rollbacks, completed;
    u64 cycles;
  };
  auto run = [](sim::Simulator::Mode mode) {
    auto w = std::make_unique<SlotWorld>(2, mode);
    PreemptScenario sc;
    sc.run(*w);
    sc.expect_all_golden(*w);
    return Result{w->read_dst(kDataBase + 0x10000, 8 * 512),
                  w->read_dst(kDataBase + 0x30000, 4 * 512),
                  w->read_dst(kDataBase + 0x50000, 64 * 64),
                  w->sched->stats().captures,
                  w->sched->stats().restores,
                  w->sched->stats().rollbacks,
                  w->sched->stats().completed,
                  w->soc.sim().now()};
  };
  const Result flat = run(sim::Simulator::Mode::kFlat);
  const Result act = run(sim::Simulator::Mode::kScheduled);
  EXPECT_EQ(flat.a, act.a);
  EXPECT_EQ(flat.b, act.b);
  EXPECT_EQ(flat.c, act.c);
  EXPECT_EQ(flat.captures, act.captures);
  EXPECT_EQ(flat.restores, act.restores);
  EXPECT_EQ(flat.rollbacks, act.rollbacks);
  EXPECT_EQ(flat.completed, act.completed);
  EXPECT_EQ(flat.cycles, act.cycles);
}

}  // namespace
}  // namespace rvcap
