// Relocation-aware placement and the defragmenting fabric allocator
// (DESIGN.md §14).
//
// Covers the placement layer end to end over a live multi-slot SoC:
//  * allocator — compatibility classes derived from the geometry,
//    region lifecycle, adjacency chains, free-span search, the
//    compaction planner and the fragmentation metric;
//  * relocation — compatibility negative paths (mismatched column
//    types, unequal range counts, broken contiguity), compressed-image
//    fast-fail, foreign-FAR rejection, and preflight re-validation of
//    a retargeted image against the DESTINATION partition;
//  * serving — ONE registered RM image serves every compatible slot
//    via on-demand relocation with bit-identical streamed outputs;
//    repeat placements are verified cache hits, and a corrupted arena
//    variant is re-relocated instead of trusted;
//  * migration/compaction — a span reservation migrates a parked task
//    to a free compatible slot through the capture/restore path, and
//    a compaction pass recovers a wide-span placement that
//    fragmentation would otherwise starve;
//  * delivery — one network fetch of the source image serves every
//    slot of the class, and the (source digest, target region) variant
//    cache serves a second engine without re-relocating;
//  * equivalence — the relocating workload is kFlat/kScheduled
//    bit-identical, and the layer's place.* counters read back over
//    the PerfRegs window.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "accel/filters.hpp"
#include "accel/stream_cipher.hpp"
#include "bitstream/compress.hpp"
#include "bitstream/generator.hpp"
#include "bitstream/packets.hpp"
#include "bitstream/preflight.hpp"
#include "bitstream/relocate.hpp"
#include "common/rng.hpp"
#include "driver/bitstream_source.hpp"
#include "driver/dpr_manager.hpp"
#include "driver/placement_engine.hpp"
#include "driver/reconfig_service.hpp"
#include "driver/slot_scheduler.hpp"
#include "fabric/placement.hpp"
#include "sim/fault_injector.hpp"
#include "soc/ariane_soc.hpp"
#include "testutil.hpp"

namespace rvcap {
namespace {

using accel::StreamCipher;
using driver::BitstreamCache;
using driver::BitstreamSource;
using driver::DprManager;
using driver::PlacementEngine;
using driver::ReconfigService;
using driver::SlotScheduler;
using fabric::FabricAllocator;
using fabric::RegionState;
using sim::FaultInjector;
using soc::ArianeSoc;
using soc::SocConfig;

using Task = SlotScheduler::HwTask;
using TaskState = SlotScheduler::TaskState;

constexpr Addr kGoldenBase = 0xA000'0000;     // home (source) pbits
constexpr Addr kRelocArena = 0x9400'0000;     // materialized variants
constexpr Addr kVariantCache = 0xA800'0000;   // shared (digest, region) cache
constexpr Addr kCaptureArena = 0x9800'0000;
constexpr Addr kRestoreStaging = 0x9E00'0000;
constexpr Addr kCmdStaging = 0x9F00'0000;     // + slot * 0x10000
constexpr Addr kDataBase = 0xB000'0000;       // task src/dst buffers

SlotScheduler::Config sched_config() {
  SlotScheduler::Config cc;
  cc.capture_arena = kCaptureArena;
  cc.capture_areas = 4;
  cc.restore_staging = kRestoreStaging;
  cc.default_chunk_bytes = 512;
  cc.aging_quantum_mtime = 0;
  return cc;
}

PlacementEngine::Config engine_config() {
  PlacementEngine::Config ec;
  ec.reloc_arena = kRelocArena;
  ec.reloc_slot_bytes = 1 << 20;
  ec.reloc_slots = 16;
  return ec;
}

// ---------------------------------------------------------------------
// World: N-slot SoC, per-slot manager/service stacks, ONE placement
// engine holding the module catalogue. No per-slot staging: every
// module is registered once, against its home region (slot 0).
// ---------------------------------------------------------------------

struct PlaceWorld {
  explicit PlaceWorld(u32 num_slots = 3,
                      sim::Simulator::Mode mode = sim::Simulator::Mode::kScheduled)
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
    }
    engine = std::make_unique<PlacementEngine>(drv, soc.allocator(),
                                               engine_config());
    stage("cipher", accel::kRmIdCipher);
    stage("sobel", accel::kRmIdSobel);
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
    sched->attach_placement(engine.get());
  }

  /// Generate the module's HOME image (frame addresses target slot 0's
  /// partition) and register it ONCE with the engine.
  void stage(const char* name, u32 rm_id) {
    const auto pbit = bitstream::generate_partial_bitstream(
        soc.device(), soc.slot_partition(0), {rm_id, name});
    const Addr addr = kGoldenBase + u64{staged_} * 0x0010'0000;
    ++staged_;
    soc.ddr().poke(addr, pbit);
    ASSERT_EQ(engine->register_module(name, rm_id, /*home_region=*/0, addr,
                                      static_cast<u32>(pbit.size())),
              Status::kOk);
  }

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

  std::vector<u8> read_dst(Addr dst, u32 bytes) {
    std::vector<u8> out(bytes);
    soc.ddr().peek(dst, out);
    return out;
  }

  ArianeSoc soc;
  driver::RvCapDriver drv;
  FaultInjector fi;
  std::vector<std::unique_ptr<DprManager>> mgrs;
  std::vector<std::unique_ptr<ReconfigService>> svcs;
  std::unique_ptr<PlacementEngine> engine;
  std::unique_ptr<SlotScheduler> sched;
  u32 staged_ = 0;
};

// ---------------------------------------------------------------------
// FabricAllocator: classes, lifecycle, spans, compaction planning
// ---------------------------------------------------------------------

TEST(PlaceAllocator, SlotRegionsFormOneCompatibilityClass) {
  SocConfig cfg;
  cfg.num_slots = 4;
  ArianeSoc soc(cfg);
  FabricAllocator& a = soc.allocator();
  ASSERT_EQ(a.num_regions(), 4u);
  EXPECT_EQ(a.num_classes(), 1u);
  for (u32 r = 0; r < 4; ++r) {
    EXPECT_EQ(a.class_of(r), a.class_of(0));
    EXPECT_TRUE(a.compatible(0, r));
    EXPECT_EQ(a.state(r), RegionState::kFree);
  }
  EXPECT_EQ(a.class_size(a.class_of(0)), 4u);
  // Replicated rows stack into one adjacency chain: extra slots fill
  // rows 0.. below rp0's row, so the whole class is span-able.
  EXPECT_EQ(a.largest_free_run(a.class_of(0)), 4u);
  EXPECT_EQ(a.fragmentation(a.class_of(0)), 0.0);
  auto span = a.find_free_span(a.class_of(0), 4);
  ASSERT_TRUE(span.has_value());
  EXPECT_EQ(span->size(), 4u);
  for (usize i = 0; i + 1 < span->size(); ++i) {
    EXPECT_TRUE(a.adjacent((*span)[i], (*span)[i + 1]));
  }
}

TEST(PlaceAllocator, RegionLifecycleIsEnforced) {
  SocConfig cfg;
  cfg.num_slots = 2;
  ArianeSoc soc(cfg);
  FabricAllocator& a = soc.allocator();
  EXPECT_EQ(a.acquire(0, 7), Status::kOk);
  EXPECT_EQ(a.state(0), RegionState::kBusy);
  EXPECT_EQ(a.owner(0), 7u);
  EXPECT_EQ(a.acquire(0, 8), Status::kDeviceBusy);
  EXPECT_EQ(a.reserve(0, 8), Status::kDeviceBusy);
  EXPECT_EQ(a.reserve(1, 9), Status::kOk);
  EXPECT_EQ(a.state(1), RegionState::kReserved);
  EXPECT_EQ(a.release(0), Status::kOk);
  EXPECT_EQ(a.release(1), Status::kOk);
  EXPECT_EQ(a.state(0), RegionState::kFree);
  const u32 cls = a.class_of(0);
  EXPECT_EQ(a.free_count(cls), 2u);
  EXPECT_EQ(a.find_free(cls).value_or(~0u), 0u);
}

TEST(PlaceAllocator, CompactionPlanClearsAWindowWithMinimalMigrations) {
  SocConfig cfg;
  cfg.num_slots = 4;
  ArianeSoc soc(cfg);
  FabricAllocator& a = soc.allocator();
  const u32 cls = a.class_of(0);
  // Chain order is rows 0,1,2 then rp0's row: regions 1,2,3,0. Busy
  // regions 0 and 2 splinter the free pair {1,3} into singletons.
  ASSERT_EQ(a.acquire(0, 100), Status::kOk);
  ASSERT_EQ(a.acquire(2, 200), Status::kOk);
  EXPECT_EQ(a.free_count(cls), 2u);
  EXPECT_EQ(a.largest_free_run(cls), 1u);
  EXPECT_EQ(a.fragmentation(cls), 0.5);
  EXPECT_FALSE(a.find_free_span(cls, 2).has_value());

  std::vector<u32> window;
  auto plan = a.plan_compaction(cls, 2, &window);
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->size(), 1u);  // one migration suffices
  EXPECT_EQ((*plan)[0].from, 2u);
  EXPECT_EQ((*plan)[0].to, 3u);
  ASSERT_EQ(window.size(), 2u);

  // Execute the plan at the allocator level: the window becomes a span.
  ASSERT_EQ(a.acquire((*plan)[0].to, 200), Status::kOk);
  ASSERT_EQ(a.release((*plan)[0].from), Status::kOk);
  EXPECT_TRUE(a.find_free_span(cls, 2).has_value());

  // A reserved blocker is never migrated: reserve the remaining free
  // region and ask for a 3-span — no clearable window exists.
  ASSERT_EQ(a.release(0), Status::kOk);
  ASSERT_EQ(a.reserve(2, 300), Status::kOk);
  EXPECT_FALSE(a.plan_compaction(cls, 4, &window).has_value());
}

TEST(PlaceAllocator, MergedPartitionCoversTheSpan) {
  SocConfig cfg;
  cfg.num_slots = 3;
  ArianeSoc soc(cfg);
  FabricAllocator& a = soc.allocator();
  auto span = a.find_free_span(a.class_of(0), 2);
  ASSERT_TRUE(span.has_value());
  const fabric::Partition wide = a.merged_partition("WIDE", *span);
  EXPECT_EQ(wide.columns().size(), a.partition((*span)[0]).columns().size() +
                                       a.partition((*span)[1]).columns().size());
  EXPECT_EQ(wide.frame_count(soc.device()),
            a.partition((*span)[0]).frame_count(soc.device()) +
                a.partition((*span)[1]).frame_count(soc.device()));
  // The merged area is a real reconfigurable partition: a pbit
  // generated for it passes preflight against it.
  const auto pbit = bitstream::generate_partial_bitstream(
      soc.device(), wide, {accel::kRmIdCipher, "wide"});
  const auto report = bitstream::preflight_check(pbit, soc.device(), wide,
                                                 bitstream::kIdCode);
  EXPECT_EQ(report.status, Status::kOk);
}

// ---------------------------------------------------------------------
// Relocation compatibility: negative paths
// ---------------------------------------------------------------------

TEST(RelocCompat, MismatchedColumnTypesAreIncompatible) {
  ArianeSoc soc((SocConfig()));
  const auto& dev = soc.device();
  const u32 w = dev.accel_window_start();
  // Window layout is CLK + 8 CLB + 3 BRAM + 1 DSP: pick one CLB and
  // one BRAM column.
  u32 clb = ~0u, bram = ~0u;
  for (u32 c = w; c < dev.num_columns(); ++c) {
    if (clb == ~0u && dev.column(c) == fabric::ColumnType::kClb) clb = c;
    if (bram == ~0u && dev.column(c) == fabric::ColumnType::kBram) bram = c;
  }
  ASSERT_NE(clb, ~0u);
  ASSERT_NE(bram, ~0u);
  fabric::Partition a("A", {{0, clb}});
  fabric::Partition b("B", {{0, bram}});
  EXPECT_FALSE(bitstream::partitions_compatible(dev, a, b));
  std::vector<u8> out;
  const auto pbit = bitstream::generate_partial_bitstream(
      dev, a, {accel::kRmIdCipher, "a"});
  EXPECT_EQ(bitstream::relocate_bitstream(dev, a, b, pbit, &out),
            Status::kInvalidArgument);
}

TEST(RelocCompat, UnequalRangeCountsAreIncompatible) {
  ArianeSoc soc((SocConfig()));
  const auto& dev = soc.device();
  const u32 w = dev.accel_window_start();
  fabric::Partition one("ONE", {{0, w + 1}});
  fabric::Partition two("TWO", {{0, w + 1}, {0, w + 2}});
  EXPECT_FALSE(bitstream::partitions_compatible(dev, one, two));
  EXPECT_FALSE(bitstream::partitions_compatible(dev, two, one));
}

TEST(RelocCompat, BrokenContiguityIsIncompatible) {
  ArianeSoc soc((SocConfig()));
  const auto& dev = soc.device();
  // Find two adjacent same-type columns plus a third of that type
  // further right: contiguous pair vs a split pair of the SAME types —
  // the per-range FAR/FDRI sections would not line up.
  u32 c0 = 0, c1 = 0, c2 = 0;
  bool found = false;
  for (u32 c = 0; c + 1 < dev.num_columns() && !found; ++c) {
    if (dev.column(c) != dev.column(c + 1)) continue;
    for (u32 d = c + 2; d < dev.num_columns(); ++d) {
      if (dev.column(d) == dev.column(c)) {
        c0 = c;
        c1 = c + 1;
        c2 = d;
        found = true;
        break;
      }
    }
  }
  ASSERT_TRUE(found) << "no adjacent same-type column pair on the device";
  fabric::Partition contiguous("C", {{0, c0}, {0, c1}});
  fabric::Partition split("S", {{1, c0}, {1, c2}});
  EXPECT_FALSE(bitstream::partitions_compatible(dev, contiguous, split));
}

TEST(RelocCompat, SameFootprintDifferentRowIsCompatible) {
  SocConfig cfg;
  cfg.num_slots = 3;
  ArianeSoc soc(cfg);
  EXPECT_TRUE(bitstream::partitions_compatible(
      soc.device(), soc.slot_partition(0), soc.slot_partition(1)));
  EXPECT_TRUE(bitstream::partitions_compatible(
      soc.device(), soc.slot_partition(1), soc.slot_partition(2)));
}

// ---------------------------------------------------------------------
// relocate_bitstream: compressed fast-fail, foreign FARs, preflight
// ---------------------------------------------------------------------

TEST(Reloc, CompressedImageFailsFastWithProtocolError) {
  SocConfig cfg;
  cfg.num_slots = 2;
  ArianeSoc soc(cfg);
  const auto pbit = bitstream::generate_partial_bitstream(
      soc.device(), soc.slot_partition(0), {accel::kRmIdCipher, "cipher"});
  std::vector<u8> packed;
  ASSERT_EQ(bitstream::compress_bitstream(pbit, &packed), Status::kOk);
  std::vector<u8> out;
  EXPECT_EQ(bitstream::relocate_bitstream(soc.device(), soc.slot_partition(0),
                                          soc.slot_partition(1), packed, &out),
            Status::kProtocolError);
  // Decompressing first makes the same image relocatable.
  std::vector<u8> raw;
  ASSERT_EQ(bitstream::decompress_bitstream(packed, &raw), Status::kOk);
  EXPECT_EQ(bitstream::relocate_bitstream(soc.device(), soc.slot_partition(0),
                                          soc.slot_partition(1), raw, &out),
            Status::kOk);
}

TEST(Reloc, FarOutsideTheSourcePartitionIsRejected) {
  SocConfig cfg;
  cfg.num_slots = 3;
  ArianeSoc soc(cfg);
  // The image targets slot 0's partition, but we claim it was
  // implemented for slot 1: every FAR is untranslatable.
  const auto pbit = bitstream::generate_partial_bitstream(
      soc.device(), soc.slot_partition(0), {accel::kRmIdCipher, "cipher"});
  std::vector<u8> out;
  EXPECT_EQ(bitstream::relocate_bitstream(soc.device(), soc.slot_partition(1),
                                          soc.slot_partition(2), pbit, &out),
            Status::kProtocolError);
}

TEST(Reloc, RetargetedImagePassesPreflightOnlyAgainstDestination) {
  SocConfig cfg;
  cfg.num_slots = 2;
  ArianeSoc soc(cfg);
  const auto& dev = soc.device();
  const auto& from = soc.slot_partition(0);
  const auto& to = soc.slot_partition(1);
  const auto pbit = bitstream::generate_partial_bitstream(
      dev, from, {accel::kRmIdCipher, "cipher"});
  std::vector<u8> moved;
  ASSERT_EQ(bitstream::relocate_bitstream(dev, from, to, pbit, &moved),
            Status::kOk);
  const auto ok_report =
      bitstream::preflight_check(moved, dev, to, bitstream::kIdCode);
  EXPECT_EQ(ok_report.status, Status::kOk);
  EXPECT_EQ(ok_report.frames, to.frame_count(dev));
  // The same bytes against the SOURCE partition are out of bounds —
  // the relocation really moved every frame.
  const auto bad_report =
      bitstream::preflight_check(moved, dev, from, bitstream::kIdCode);
  EXPECT_NE(bad_report.status, Status::kOk);
}

// ---------------------------------------------------------------------
// Serving: one image, every compatible slot
// ---------------------------------------------------------------------

TEST(PlaceServing, OneImageServesAllCompatibleSlots) {
  PlaceWorld w(3);
  const u64 keys[3] = {0x1111'2222'3333'4444ULL, 0x5555'6666'7777'8888ULL,
                       0x9999'AAAA'BBBB'CCCCULL};
  SlotScheduler::TaskId ids[3] = {};
  for (u32 i = 0; i < 3; ++i) {
    ASSERT_EQ(w.sched->submit(
                  w.cipher_task(keys[i], 4 * 512, 1, kDataBase + i * 0x20000,
                                kDataBase + i * 0x20000 + 0x10000, 500 + i),
                  &ids[i]),
              Status::kOk);
  }
  w.sched->drain();

  // All three tasks completed with golden output, on three DISTINCT
  // slots, from ONE registered image: two on-demand relocations.
  std::vector<bool> used(3, false);
  for (u32 i = 0; i < 3; ++i) {
    ASSERT_EQ(w.sched->task(ids[i])->state, TaskState::kCompleted) << i;
    const u32 slot = w.sched->task(ids[i])->slot;
    ASSERT_LT(slot, 3u);
    EXPECT_FALSE(used[slot]) << "two tasks shared slot " << slot;
    used[slot] = true;
    EXPECT_EQ(w.read_dst(kDataBase + i * 0x20000 + 0x10000, 4 * 512),
              w.cipher_golden(keys[i], kDataBase + i * 0x20000, 4 * 512, 512))
        << i;
  }
  EXPECT_EQ(w.engine->stats().relocations, 2u);
  EXPECT_GE(w.engine->stats().requests, 3u);
  EXPECT_EQ(w.engine->stats().reloc_failures, 0u);
  // Every slot's manager now serves the module locally.
  for (u32 s = 0; s < 3; ++s) {
    EXPECT_TRUE(w.mgrs[s]->has_module("cipher")) << s;
  }
}

TEST(PlaceServing, RepeatPlacementIsAVerifiedCacheHit) {
  PlaceWorld w(2);
  DprManager::StagedInfo first, second;
  ASSERT_EQ(w.engine->materialize("cipher", 1, &first), Status::kOk);
  EXPECT_EQ(w.engine->stats().relocations, 1u);
  ASSERT_EQ(w.engine->materialize("cipher", 1, &second), Status::kOk);
  EXPECT_EQ(w.engine->stats().relocations, 1u);  // no second rewrite
  EXPECT_EQ(w.engine->stats().reloc_cache_hits, 1u);
  EXPECT_EQ(first.addr, second.addr);
  EXPECT_EQ(first.bytes, second.bytes);

  // A corrupted arena variant fails its seal re-check and is
  // re-relocated instead of served blindly.
  u8 byte = 0;
  w.soc.ddr().peek(first.addr + 64, std::span(&byte, 1));
  byte ^= 0x01;
  w.soc.ddr().poke(first.addr + 64, std::span(&byte, 1));
  DprManager::StagedInfo third;
  ASSERT_EQ(w.engine->materialize("cipher", 1, &third), Status::kOk);
  EXPECT_EQ(w.engine->stats().relocations, 2u);
  EXPECT_NE(third.addr, first.addr);  // fresh permanent arena slot
}

TEST(PlaceServing, HomeRegionServesTheGoldenSourceDirectly) {
  PlaceWorld w(2);
  DprManager::StagedInfo info;
  ASSERT_EQ(w.engine->materialize("cipher", 0, &info), Status::kOk);
  EXPECT_EQ(info.addr, w.engine->module("cipher")->src_addr);
  EXPECT_EQ(w.engine->stats().relocations, 0u);
  // Incompatible region id is a clean reject.
  EXPECT_EQ(w.engine->materialize("cipher", 99, &info),
            Status::kInvalidArgument);
  EXPECT_FALSE(w.engine->can_place("cipher", 99));
}

// ---------------------------------------------------------------------
// Migration and compaction through the scheduler
// ---------------------------------------------------------------------

TEST(PlaceMigrate, ReservedRegionMigratesAParkedTaskToAFreeSlot) {
  PlaceWorld w(2);
  const u64 key = 0xDEAD'BEEF'F00D'CAFEULL;
  SlotScheduler::TaskId a = 0;
  ASSERT_EQ(w.sched->submit(w.cipher_task(key, 8 * 512, 1, kDataBase,
                                          kDataBase + 0x10000, 600),
                            &a),
            Status::kOk);
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(w.sched->step());
  ASSERT_EQ(w.sched->task(a)->state, TaskState::kRunning);
  const u32 home_slot = w.sched->task(a)->slot;
  ASSERT_EQ(w.sched->preempt_slot(home_slot), Status::kOk);
  ASSERT_EQ(w.sched->task(a)->state, TaskState::kPreempted);

  // Reserve the parked task's region for a span: its resume must
  // migrate to the other (compatible) slot via capture/restore.
  std::vector<u32> span;
  ASSERT_EQ(w.sched->acquire_span(w.soc.allocator().class_of(0), 1,
                                  /*allow_compaction=*/false, &span),
            Status::kOk);
  ASSERT_EQ(span.size(), 1u);
  const u32 reserved_slot = span[0];  // region id == slot id
  w.sched->drain();

  EXPECT_EQ(w.sched->task(a)->state, TaskState::kCompleted);
  EXPECT_NE(w.sched->task(a)->slot, reserved_slot);
  if (reserved_slot == home_slot) {
    EXPECT_GE(w.engine->stats().migrations, 1u);
  }
  EXPECT_EQ(w.read_dst(kDataBase + 0x10000, 8 * 512),
            w.cipher_golden(key, kDataBase, 8 * 512, 512));
  // The reserved region stayed untouched, then releases cleanly.
  EXPECT_EQ(w.soc.allocator().state(reserved_slot), RegionState::kReserved);
  EXPECT_EQ(w.sched->release_span(span), Status::kOk);
  EXPECT_EQ(w.soc.allocator().state(reserved_slot), RegionState::kFree);
}

TEST(PlaceSpan, CompactionRecoversAWideSpanPlacement) {
  PlaceWorld w(4);
  const u32 cls = w.soc.allocator().class_of(0);
  // Fill all four slots, then let the tasks on slots 1 and 3 finish:
  // busy slots {0, 2} splinter the free regions into singletons. The
  // short tasks are 2 chunks so every slot stays occupied until all
  // four tasks have been placed (a 1-chunk task would vacate its slot
  // before the next submission landed, shifting the layout).
  const u64 key = 0x0123'4567'89AB'CDEFULL;
  SlotScheduler::TaskId ids[4] = {};
  for (u32 i = 0; i < 4; ++i) {
    const u32 bytes = (i % 2 == 0) ? 64 * 512 : 2 * 512;  // long / short
    ASSERT_EQ(w.sched->submit(
                  w.cipher_task(key + i, bytes, 1, kDataBase + i * 0x40000,
                                kDataBase + i * 0x40000 + 0x20000, 700 + i),
                  &ids[i]),
              Status::kOk);
  }
  for (int guard = 0; guard < 64; ++guard) {
    if (w.sched->task(ids[1])->state == TaskState::kCompleted &&
        w.sched->task(ids[3])->state == TaskState::kCompleted) {
      break;
    }
    ASSERT_TRUE(w.sched->step());
  }
  ASSERT_EQ(w.sched->task(ids[1])->state, TaskState::kCompleted);
  ASSERT_EQ(w.sched->task(ids[3])->state, TaskState::kCompleted);
  ASSERT_EQ(w.sched->task(ids[0])->state, TaskState::kRunning);
  ASSERT_EQ(w.sched->task(ids[2])->state, TaskState::kRunning);
  ASSERT_EQ(w.sched->task(ids[0])->slot, 0u);
  ASSERT_EQ(w.sched->task(ids[2])->slot, 2u);

  // Without compaction the wide request starves on fragmentation...
  std::vector<u32> span;
  ASSERT_EQ(w.sched->acquire_span(cls, 2, /*allow_compaction=*/false, &span),
            Status::kNoSpace);
  EXPECT_EQ(w.engine->stats().span_rejects, 1u);
  // ...and with it, one live migration coalesces the free space.
  ASSERT_EQ(w.sched->acquire_span(cls, 2, /*allow_compaction=*/true, &span),
            Status::kOk);
  ASSERT_EQ(span.size(), 2u);
  EXPECT_TRUE(w.soc.allocator().adjacent(span[0], span[1]));
  EXPECT_EQ(w.engine->stats().compactions, 1u);
  EXPECT_GE(w.engine->stats().migrations, 1u);
  for (u32 r : span) {
    EXPECT_EQ(w.soc.allocator().state(r), RegionState::kReserved);
  }

  // The migrated resident survived the move bit-identically: both
  // long-running tasks still stream golden output to completion.
  w.sched->drain();
  for (u32 i = 0; i < 4; ++i) {
    const u32 bytes = (i % 2 == 0) ? 64 * 512 : 2 * 512;
    EXPECT_EQ(w.sched->task(ids[i])->state, TaskState::kCompleted) << i;
    EXPECT_EQ(w.read_dst(kDataBase + i * 0x40000 + 0x20000, bytes),
              w.cipher_golden(key + i, kDataBase + i * 0x40000, bytes, 512))
        << i;
  }

  // The span is a usable contiguous reconfigurable area.
  const fabric::Partition wide =
      w.soc.allocator().merged_partition("WIDE", span);
  const auto pbit = bitstream::generate_partial_bitstream(
      w.soc.device(), wide, {accel::kRmIdSobel, "wide"});
  EXPECT_EQ(bitstream::preflight_check(pbit, w.soc.device(), wide,
                                       bitstream::kIdCode)
                .status,
            Status::kOk);
  EXPECT_EQ(w.sched->release_span(span), Status::kOk);
}

// ---------------------------------------------------------------------
// Delivery: one network fetch serves every slot of the class
// ---------------------------------------------------------------------

/// A counting in-memory source: serves one image, tallies fetches.
struct CountingSource final : BitstreamSource {
  ArianeSoc& soc;
  std::string image_name;
  std::vector<u8> bytes;
  u32 fetches = 0;

  CountingSource(ArianeSoc& s, std::string name, std::vector<u8> b)
      : soc(s), image_name(std::move(name)), bytes(std::move(b)) {}

  Status fetch(std::string_view image, Addr dest, u32 capacity,
               u32* bytes_out) override {
    if (image != image_name) return Status::kNotFound;
    if (bytes.size() > capacity) return Status::kNoSpace;
    ++fetches;
    soc.ddr().poke(dest, bytes);
    *bytes_out = static_cast<u32>(bytes.size());
    return Status::kOk;
  }
  bool has_image(std::string_view image) const override {
    return image == image_name;
  }
  std::string_view source_name() const override { return "counting"; }
};

TEST(PlaceDelivery, OneFetchServesEverySlotAndTheVariantCacheIsShared) {
  PlaceWorld w(3);
  const auto pbit = bitstream::generate_partial_bitstream(
      w.soc.device(), w.soc.slot_partition(0), {accel::kRmIdFir, "fir"});
  CountingSource net(w.soc, "fir.pbit", pbit);
  BitstreamCache::Config cc;
  cc.base = kVariantCache;
  cc.slot_bytes = 1 << 20;
  cc.slots = 4;
  BitstreamCache variants(w.drv.cpu_context(), cc);
  w.engine->attach_delivery(&net, &variants);
  ASSERT_EQ(w.engine->register_remote("fir", accel::kRmIdFir,
                                      /*home_region=*/0, "fir.pbit"),
            Status::kOk);

  // Materialize for every region: ONE fetch, two relocations.
  DprManager::StagedInfo info;
  for (u32 r = 0; r < 3; ++r) {
    ASSERT_EQ(w.engine->materialize("fir", r, &info), Status::kOk) << r;
  }
  EXPECT_EQ(net.fetches, 1u);
  EXPECT_EQ(w.engine->stats().relocations, 2u);

  // A second engine sharing the (source digest, target region) cache
  // serves the relocated variant without re-fetching OR re-relocating.
  PlacementEngine::Config ec2 = engine_config();
  ec2.reloc_arena = kRelocArena + 0x0100'0000;
  PlacementEngine engine2(w.drv, w.soc.allocator(), ec2);
  engine2.attach_delivery(&net, &variants);
  ASSERT_EQ(engine2.register_remote("fir", accel::kRmIdFir, 0, "fir.pbit"),
            Status::kOk);
  ASSERT_EQ(engine2.materialize("fir", 1, &info), Status::kOk);
  EXPECT_EQ(net.fetches, 2u);  // its own source copy...
  EXPECT_EQ(engine2.stats().relocations, 0u);  // ...but the variant was shared
  EXPECT_EQ(engine2.stats().reloc_cache_hits, 1u);
  EXPECT_GE(variants.hits(), 1u);
}

// ---------------------------------------------------------------------
// Kernel equivalence and placement telemetry
// ---------------------------------------------------------------------

TEST(PlaceKernelEquivalence, RelocatingWorkloadMatchesAcrossKernels) {
  struct Result {
    std::vector<u8> out[3];
    u64 relocations, hits, completed;
    u64 cycles;
  };
  auto run = [](sim::Simulator::Mode mode) {
    auto w = std::make_unique<PlaceWorld>(3, mode);
    const u64 keys[3] = {0xAAAA'0001ULL, 0xBBBB'0002ULL, 0xCCCC'0003ULL};
    SlotScheduler::TaskId ids[3] = {};
    for (u32 i = 0; i < 3; ++i) {
      EXPECT_EQ(w->sched->submit(
                    w->cipher_task(keys[i], 4 * 512, 1,
                                   kDataBase + i * 0x20000,
                                   kDataBase + i * 0x20000 + 0x10000, 800 + i),
                    &ids[i]),
                Status::kOk);
    }
    w->sched->drain();
    Result r;
    for (u32 i = 0; i < 3; ++i) {
      EXPECT_EQ(w->sched->task(ids[i])->state, TaskState::kCompleted);
      r.out[i] = w->read_dst(kDataBase + i * 0x20000 + 0x10000, 4 * 512);
    }
    r.relocations = w->engine->stats().relocations;
    r.hits = w->engine->stats().reloc_cache_hits;
    r.completed = w->sched->stats().completed;
    r.cycles = w->soc.sim().now();
    return r;
  };
  const Result flat = run(sim::Simulator::Mode::kFlat);
  const Result act = run(sim::Simulator::Mode::kScheduled);
  for (u32 i = 0; i < 3; ++i) EXPECT_EQ(flat.out[i], act.out[i]) << i;
  EXPECT_EQ(flat.relocations, act.relocations);
  EXPECT_EQ(flat.hits, act.hits);
  EXPECT_EQ(flat.completed, act.completed);
  EXPECT_EQ(flat.cycles, act.cycles);
}

TEST(PlaceMailbox, PublishesPlacementCountersAndFragmentation) {
  PlaceWorld w(3);
  SlotScheduler::TaskId ids[3] = {};
  for (u32 i = 0; i < 3; ++i) {
    ASSERT_EQ(w.sched->submit(
                  w.cipher_task(0x77 + i, 2 * 512, 1, kDataBase + i * 0x20000,
                                kDataBase + i * 0x20000 + 0x10000, 900 + i),
                  &ids[i]),
              Status::kOk);
  }
  w.sched->drain();
  auto reg = [&](const char* name) { return test::perf_counter(w.drv, name); };
  EXPECT_GE(reg("place.requests"), 3u);
  EXPECT_EQ(reg("place.relocations"), 2u);
  EXPECT_EQ(reg("place.migrations"), 0u);
  EXPECT_EQ(reg("place.span_rejects"), 0u);
  // All tasks done: every region free. The 3-slot class is rows
  // {0, 1} + rp0's row — largest adjacent run 2 of 3 free, so the
  // published fragmentation is (1 - 2/3) * 100 = 33.
  EXPECT_EQ(reg("place.free_regions"), 3u);
  EXPECT_EQ(reg("place.frag_pct"), 33u);
}

}  // namespace
}  // namespace rvcap
