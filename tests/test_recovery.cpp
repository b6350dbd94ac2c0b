// Power-loss-safe reconfiguration (DESIGN.md §15).
//
// A seeded run that loses power at an arbitrary cycle — pre-staging,
// mid-DMA, mid-ICAP, post-commit, mid-journal-sector — must reboot
// from the surviving (possibly torn) SD card to a fully verified
// state: every slot either carries its CRC-verified golden module or
// is deliberately blank/quarantined, deterministically per seed and
// identically under both simulation kernels. Covers the persistent
// intent journal (torn-tail truncation, corrupt-record skipping, ring
// wrap), the torn-sector SD power model, the cold-boot
// RecoveryManager (classification, golden reload, crash-loop
// quarantine, pending-request replay/shed, recovery counters) and the
// new fault sites.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bitstream/generator.hpp"
#include "driver/dpr_manager.hpp"
#include "driver/recovery_journal.hpp"
#include "driver/recovery_manager.hpp"
#include "driver/reconfig_service.hpp"
#include "driver/spi_sd.hpp"
#include "sim/fault_injector.hpp"
#include "sim/power_loss.hpp"
#include "soc/ariane_soc.hpp"
#include "storage/fat32.hpp"
#include "storage/sd_card.hpp"
#include "testutil.hpp"

namespace rvcap {
namespace {

using driver::DprManager;
using driver::IntentOp;
using driver::IntentRecord;
using driver::ReconfigService;
using driver::RecoveryJournal;
using driver::RecoveryManager;
using soc::ArianeSoc;
using soc::SocConfig;
namespace sites = sim::fault_sites;

constexpr u32 kCardBlocks = 32768;  // 16 MiB card
constexpr u32 kJournalBlocks = 8;   // 128 intent records

fabric::Partition small_partition() {
  return fabric::Partition("RPA", {{0, 2}});
}

RecoveryJournal::Config journal_region() {
  return RecoveryJournal::region_for(kCardBlocks, kJournalBlocks);
}

// ---------------------------------------------------------------------
// New fault sites are canonical (satellite: sim registry coverage).
// ---------------------------------------------------------------------

TEST(RecoveryFaultSites, NewSitesCanonicalSortedAndArmable) {
  const auto& all = sites::all();
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
  const std::set<std::string_view> s(all.begin(), all.end());
  EXPECT_TRUE(s.count(sites::kPowerLoss));
  EXPECT_TRUE(s.count(sites::kSdWriteTorn));
  EXPECT_TRUE(s.count(sites::kJournalCorrupt));
  sim::FaultInjector fi(11);
  EXPECT_EQ(fi.arm(sites::kPowerLoss, 1), Status::kOk);
  EXPECT_EQ(fi.arm(sites::kSdWriteTorn, 1), Status::kOk);
  EXPECT_EQ(fi.arm(sites::kJournalCorrupt, 1), Status::kOk);
  EXPECT_EQ(fi.arm("power.los", 1), Status::kNotFound);
}

// ---------------------------------------------------------------------
// SD power model: a sector write in flight tears to a prefix.
// ---------------------------------------------------------------------

// Drive CMD24 halfway by hand: command frame, R1, start token, then
// only part of the 512-byte payload before the rail collapses.
TEST(SdPowerModel, MidWriteTearsToPersistedPrefix) {
  storage::SdCard card(1024);
  sim::FaultInjector fi(3);
  ASSERT_EQ(fi.arm(sites::kSdWriteTorn, /*count=*/8), Status::kOk);
  card.set_fault_injector(&fi);

  auto send_cmd = [&](u8 idx, u32 arg) {
    std::array<u8, 6> cmd{};
    cmd[0] = static_cast<u8>(0x40 | idx);
    cmd[1] = static_cast<u8>(arg >> 24);
    cmd[2] = static_cast<u8>(arg >> 16);
    cmd[3] = static_cast<u8>(arg >> 8);
    cmd[4] = static_cast<u8>(arg);
    cmd[5] =
        static_cast<u8>((storage::SdCard::crc7({cmd.data(), 5}) << 1) | 1);
    for (u8 b : cmd) card.exchange(b, true);
    u8 r1 = 0xFF;
    for (int i = 0; i < 16 && r1 == 0xFF; ++i) r1 = card.exchange(0xFF, true);
    return r1;
  };
  // SPI-mode init: CMD0, then ACMD41 until the card leaves idle.
  ASSERT_EQ(send_cmd(0, 0), 0x01);
  u8 r1 = 0x01;
  for (int i = 0; i < 8 && r1 != 0x00; ++i) {
    (void)send_cmd(55, 0);
    r1 = send_cmd(41, 0x4000'0000);
  }
  ASSERT_EQ(r1, 0x00);

  const u32 lba = 100;
  r1 = send_cmd(24, lba);
  ASSERT_EQ(r1, 0x00);
  card.exchange(0xFE, true);  // start token
  for (int i = 0; i < 300; ++i) card.exchange(0xAB, true);  // partial data

  ASSERT_TRUE(card.mid_write());
  card.power_fail();
  EXPECT_FALSE(card.powered());
  EXPECT_EQ(card.torn_writes(), 1u);
  // Dead card: the bus reads tristate until power returns.
  EXPECT_EQ(card.exchange(0xFF, true), 0xFF);
  card.power_on();

  std::array<u8, storage::kBlockSize> blk{};
  ASSERT_EQ(card.backdoor_read(lba, blk), Status::kOk);
  // A strict prefix of the in-flight payload persisted; the rest of
  // the sector still reads as the old (blank) contents.
  const auto first_zero =
      std::find(blk.begin(), blk.end(), static_cast<u8>(0));
  const usize prefix = static_cast<usize>(first_zero - blk.begin());
  EXPECT_GT(prefix, 0u);
  EXPECT_LE(prefix, 300u);
  for (usize i = 0; i < prefix; ++i) EXPECT_EQ(blk[i], 0xAB);
  for (usize i = prefix; i < blk.size(); ++i) EXPECT_EQ(blk[i], 0x00);
}

// Power loss with no write in flight persists everything committed.
TEST(SdPowerModel, IdleLossKeepsFlashIntact) {
  storage::SdCard card(256);
  std::array<u8, storage::kBlockSize> pat{};
  pat.fill(0x5A);
  ASSERT_EQ(card.backdoor_write(7, pat), Status::kOk);
  card.power_fail();
  EXPECT_EQ(card.torn_writes(), 0u);
  card.power_on();
  std::array<u8, storage::kBlockSize> blk{};
  ASSERT_EQ(card.backdoor_read(7, blk), Status::kOk);
  EXPECT_EQ(blk, pat);
}

// ---------------------------------------------------------------------
// RecoveryJournal unit behaviour (host-side BlockIo, no SoC).
// ---------------------------------------------------------------------

struct JournalFixture : ::testing::Test {
  JournalFixture() : card(kCardBlocks), io(card) {
    RecoveryJournal j(io, journal_region());
    EXPECT_EQ(j.reset(), Status::kOk);
  }

  IntentRecord rec(IntentOp op, u32 rm, u16 slot = 0) {
    IntentRecord r;
    r.op = op;
    r.slot = slot;
    r.rm_id = rm;
    r.mtime = 1000 + rm;
    r.arg0 = rm * 3;
    return r;
  }

  storage::SdCard card;
  storage::MemBlockIo io;
};

TEST_F(JournalFixture, AppendReplayRoundTrip) {
  {
    RecoveryJournal j(io, journal_region());
    ASSERT_EQ(j.replay(), Status::kOk);
    ASSERT_EQ(j.append(rec(IntentOp::kReconfigStart, 40)), Status::kOk);
    ASSERT_EQ(j.append(rec(IntentOp::kReconfigCommit, 40)), Status::kOk);
    ASSERT_EQ(j.append(rec(IntentOp::kSvcPending, 41)), Status::kOk);
    EXPECT_EQ(j.appends(), 3u);
  }
  RecoveryJournal j2(io, journal_region());
  RecoveryJournal::ReplayReport rep;
  ASSERT_EQ(j2.replay(&rep), Status::kOk);
  EXPECT_EQ(rep.valid_records, 3u);
  EXPECT_EQ(rep.torn_tail_cells, 0u);
  EXPECT_EQ(rep.corrupt_records, 0u);
  EXPECT_EQ(rep.max_seq, 3u);
  ASSERT_EQ(j2.records().size(), 3u);
  EXPECT_EQ(j2.records()[0].op, IntentOp::kReconfigStart);
  EXPECT_EQ(j2.records()[2].op, IntentOp::kSvcPending);
  EXPECT_EQ(j2.records()[2].rm_id, 41u);
  EXPECT_EQ(j2.next_seq(), 4u);
  const IntentRecord* last = j2.last_of(IntentOp::kReconfigCommit);
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->rm_id, 40u);
  EXPECT_EQ(j2.last_of(IntentOp::kQuarantine), nullptr);
}

TEST_F(JournalFixture, TornTailCellIsTruncatedSilently) {
  {
    RecoveryJournal j(io, journal_region());
    ASSERT_EQ(j.replay(), Status::kOk);
    for (u32 i = 0; i < 5; ++i) {
      ASSERT_EQ(j.append(rec(IntentOp::kSvcPending, 40 + i)), Status::kOk);
    }
  }
  // Tear the NEWEST record: flip bits in its cell, as a power loss mid
  // sector write would leave them.
  const auto cfg = journal_region();
  std::array<u8, storage::kBlockSize> blk{};
  ASSERT_EQ(card.backdoor_read(cfg.base_lba, blk), Status::kOk);
  const usize off = 4 * RecoveryJournal::kRecordSize;
  blk[off + 8] ^= 0xFF;
  ASSERT_EQ(card.backdoor_write(cfg.base_lba, blk), Status::kOk);

  RecoveryJournal j2(io, journal_region());
  RecoveryJournal::ReplayReport rep;
  ASSERT_EQ(j2.replay(&rep), Status::kOk);
  EXPECT_EQ(rep.valid_records, 4u);
  EXPECT_EQ(rep.torn_tail_cells, 1u);
  EXPECT_EQ(rep.corrupt_records, 0u);
  EXPECT_EQ(rep.max_seq, 4u);
  // The append cursor moves past the torn cell: new appends must not
  // collide with it.
  ASSERT_EQ(j2.append(rec(IntentOp::kBootMark, 0)), Status::kOk);
  EXPECT_EQ(j2.records().back().seq, 5u);
}

TEST_F(JournalFixture, CorruptMidStreamRecordIsCountedAndSkipped) {
  {
    RecoveryJournal j(io, journal_region());
    ASSERT_EQ(j.replay(), Status::kOk);
    for (u32 i = 0; i < 5; ++i) {
      ASSERT_EQ(j.append(rec(IntentOp::kSvcPending, 40 + i)), Status::kOk);
    }
  }
  // Damage record #2 (not the tail): a latent medium error.
  const auto cfg = journal_region();
  std::array<u8, storage::kBlockSize> blk{};
  ASSERT_EQ(card.backdoor_read(cfg.base_lba, blk), Status::kOk);
  blk[1 * RecoveryJournal::kRecordSize + 16] ^= 0x10;
  ASSERT_EQ(card.backdoor_write(cfg.base_lba, blk), Status::kOk);

  RecoveryJournal j2(io, journal_region());
  RecoveryJournal::ReplayReport rep;
  ASSERT_EQ(j2.replay(&rep), Status::kOk);
  EXPECT_EQ(rep.valid_records, 4u);
  EXPECT_EQ(rep.torn_tail_cells, 0u);
  EXPECT_EQ(rep.corrupt_records, 1u);
  // Survivors keep seq order with the gap in place.
  ASSERT_EQ(j2.records().size(), 4u);
  EXPECT_EQ(j2.records()[0].seq, 1u);
  EXPECT_EQ(j2.records()[1].seq, 3u);
}

TEST_F(JournalFixture, RingWrapsAndRetainsNewestRecords) {
  const u32 cells = kJournalBlocks * RecoveryJournal::kRecordsPerBlock;
  RecoveryJournal j(io, journal_region());
  ASSERT_EQ(j.replay(), Status::kOk);
  for (u32 i = 0; i < cells + 20; ++i) {
    ASSERT_EQ(j.append(rec(IntentOp::kSvcPending, i)), Status::kOk);
  }
  RecoveryJournal j2(io, journal_region());
  RecoveryJournal::ReplayReport rep;
  ASSERT_EQ(j2.replay(&rep), Status::kOk);
  EXPECT_EQ(rep.max_seq, cells + 20);
  EXPECT_LE(rep.valid_records, cells);
  EXPECT_GT(rep.valid_records, 0u);
  // Newest record survives the wrap; replay is oldest-first.
  EXPECT_EQ(j2.records().back().seq, cells + 20);
  EXPECT_TRUE(std::is_sorted(
      j2.records().begin(), j2.records().end(),
      [](const IntentRecord& a, const IntentRecord& b) { return a.seq < b.seq; }));
}

TEST_F(JournalFixture, JournalCorruptSiteDamagesAppendedRecord) {
  sim::FaultInjector fi(17);
  ASSERT_EQ(fi.arm(sites::kJournalCorrupt, 1), Status::kOk);
  RecoveryJournal j(io, journal_region());
  j.set_fault_injector(&fi);
  ASSERT_EQ(j.replay(), Status::kOk);
  ASSERT_EQ(j.append(rec(IntentOp::kReconfigStart, 40)), Status::kOk);
  ASSERT_EQ(j.append(rec(IntentOp::kReconfigCommit, 40)), Status::kOk);

  RecoveryJournal j2(io, journal_region());
  RecoveryJournal::ReplayReport rep;
  ASSERT_EQ(j2.replay(&rep), Status::kOk);
  // Exactly one of the two records was corrupted on its way to flash.
  EXPECT_EQ(rep.valid_records + rep.corrupt_records + rep.torn_tail_cells, 2u);
  EXPECT_EQ(rep.corrupt_records + rep.torn_tail_cells, 1u);
}

// ---------------------------------------------------------------------
// Full-stack reboot rig.
// ---------------------------------------------------------------------

// Provisions a surviving SD card once (FAT32 volume with three golden
// module images + a zeroed journal tail region), then builds/discards
// whole SoC "boots" over it.
struct RecoveryRig {
  RecoveryRig() : card(kCardBlocks), host_io(card) {
    storage::Fat32FormatParams p;
    p.reserved_tail_blocks = kJournalBlocks;
    EXPECT_EQ(storage::fat32_format(host_io, p), Status::kOk);
    storage::Fat32Volume host_vol(host_io);
    EXPECT_EQ(host_vol.mount(), Status::kOk);
    const fabric::DeviceGeometry dev = fabric::DeviceGeometry::kintex7_325t();
    const fabric::Partition part = small_partition();
    for (u32 id : {40u, 41u, 42u}) {
      const auto pbit = bitstream::generate_partial_bitstream(
          dev, part, {id, "m"});
      EXPECT_EQ(host_vol.write_file("M" + std::to_string(id) + ".PB", pbit),
                Status::kOk);
    }
    RecoveryJournal j(host_io, journal_region());
    EXPECT_EQ(j.reset(), Status::kOk);
  }

  storage::SdCard card;
  storage::MemBlockIo host_io;
};

// One boot of the full stack over the surviving card: SoC + SPI/SD
// driver + FAT32 volume + DprManager + ReconfigService + journal.
struct Boot {
  Boot(storage::SdCard& card, sim::FaultInjector* fi,
       sim::Simulator::Mode mode)
      : part(small_partition()) {
    SocConfig cfg;
    cfg.sim_mode = mode;
    cfg.external_sd = &card;
    soc = std::make_unique<ArianeSoc>(cfg);
    handle = soc->add_partition(part);
    if (fi != nullptr) soc->attach_fault_injector(fi);
    drv = std::make_unique<driver::RvCapDriver>(soc->cpu(), soc->plic());
    sd = std::make_unique<driver::SpiSdDriver>(soc->cpu());
    sd_ok = ok(sd->init_card());
    io = std::make_unique<driver::CpuBlockIo>(*sd, card.block_count());
    vol = std::make_unique<storage::Fat32Volume>(*io);
    if (sd_ok) sd_ok = ok(vol->mount());
    journal = std::make_unique<RecoveryJournal>(*io, journal_region());
    journal->set_fault_injector(fi);
    journal->bind_trace(&soc->sim().obs().sink(), soc->sim().now_ptr());
    DprManager::Config mcfg;
    mcfg.slot_bytes = 64 * 1024;
    mcfg.num_slots = 2;
    mgr = std::make_unique<DprManager>(*drv, soc->config_memory(), handle,
                                       vol.get(), mcfg);
    mgr->set_fault_injector(fi);
    for (u32 id : {40u, 41u, 42u}) {
      (void)mgr->register_module("m" + std::to_string(id), id,
                                 "M" + std::to_string(id) + ".PB");
    }
    mgr->attach_intent_journal(journal.get());
    svc = std::make_unique<ReconfigService>(*mgr);
    svc->attach_intent_journal(journal.get());
  }

  Status request(u32 rm_id, u64 deadline = 0, u32 priority = 1) {
    ReconfigService::ActivationRequest req;
    req.module = "m" + std::to_string(rm_id);
    req.priority = priority;
    req.deadline_mtime = deadline;
    Status st = svc->submit(req);
    if (ok(st)) svc->drain();
    return st;
  }

  fabric::Partition part;
  usize handle = 0;
  bool sd_ok = false;
  std::unique_ptr<ArianeSoc> soc;
  std::unique_ptr<driver::RvCapDriver> drv;
  std::unique_ptr<driver::SpiSdDriver> sd;
  std::unique_ptr<driver::CpuBlockIo> io;
  std::unique_ptr<storage::Fat32Volume> vol;
  std::unique_ptr<RecoveryJournal> journal;
  std::unique_ptr<DprManager> mgr;
  std::unique_ptr<ReconfigService> svc;
};

// The canonical pre-crash workload: three sequential activations
// through the service (each leaves kSvcPending/kSvcDone plus the
// reconfig start/commit bracket in the journal).
void workload(Boot& b) {
  (void)b.request(40);
  (void)b.request(41);
  (void)b.request(42);
}

struct RecoveredState {
  RecoveryManager::Report report;
  Status status = Status::kOk;
  std::string active;
  u32 fabric_rm = 0;
  std::vector<IntentRecord> records;
};

RecoveredState recover_boot(storage::SdCard& card,
                            sim::Simulator::Mode mode) {
  card.power_on();
  Boot b(card, nullptr, mode);
  EXPECT_TRUE(b.sd_ok);
  RecoveryManager rman(b.soc->cpu(), *b.journal);
  rman.add_slot(0, b.mgr.get(), b.svc.get());
  RecoveredState out;
  out.status = rman.recover(&out.report);
  out.active = b.mgr->active_module();
  out.fabric_rm = b.soc->config_memory().partition_state(b.handle).rm_id;
  out.records = b.journal->records();
  return out;
}

// ---------------------------------------------------------------------
// Reset-anywhere sweep: power loss at scattered points of the workload
// (pre-staging, mid-transfer, post-commit) always reboots to a fully
// verified state, deterministically per seed.
// ---------------------------------------------------------------------

TEST(RecoveryEndToEnd, ResetAnywhereConvergesToVerified) {
  // Baseline run (no power loss) to learn the workload's span.
  u64 total = 0;
  {
    RecoveryRig rig;
    Boot b(rig.card, nullptr, sim::Simulator::Mode::kScheduled);
    ASSERT_TRUE(b.sd_ok);
    workload(b);
    EXPECT_EQ(b.mgr->active_module(), "m42");
    total = b.soc->sim().now();
  }
  ASSERT_GT(total, 0u);

  for (const double frac : {0.05, 0.30, 0.55, 0.80, 1.05}) {
    SCOPED_TRACE(frac);
    const Cycles trip = static_cast<Cycles>(static_cast<double>(total) * frac);
    RecoveryRig rig;
    sim::FaultInjector fi(99);
    ASSERT_EQ(fi.arm(sites::kSdWriteTorn, 1000), Status::kOk);
    {
      Boot b(rig.card, &fi, sim::Simulator::Mode::kScheduled);
      ASSERT_TRUE(b.sd_ok);
      sim::PowerLoss power;
      b.soc->sim().add(&power);
      power.on_trip([&] { rig.card.power_fail(); });
      power.arm_at(trip);
      workload(b);
      // Trips past the workload end fire here: a post-commit loss.
      if (!power.tripped()) {
        b.soc->sim().run_cycles(trip > b.soc->sim().now()
                                    ? trip - b.soc->sim().now() + 1
                                    : 1);
      }
      EXPECT_TRUE(power.tripped());
      EXPECT_FALSE(rig.card.powered());
    }  // the whole SoC object dies here — that IS the power loss

    const RecoveredState r =
        recover_boot(rig.card, sim::Simulator::Mode::kScheduled);
    EXPECT_EQ(r.status, Status::kOk);
    EXPECT_TRUE(r.report.all_verified);
    ASSERT_EQ(r.report.slots.size(), 1u);
    EXPECT_TRUE(r.report.slots[0].verified);
    // Whatever module recovery chose, the fabric must actually carry
    // it (bit-golden: activate() verified the staged CRC and the
    // partition state before recoupling).
    if (r.report.slots[0].rm_id != 0) {
      EXPECT_EQ(r.fabric_rm, r.report.slots[0].rm_id);
      EXPECT_EQ(r.active, "m" + std::to_string(r.report.slots[0].rm_id));
      EXPECT_GE(r.report.golden_reloads, 1u);
    }
    // Recovery sealed the journal with done-markers.
    EXPECT_NE(r.records.empty(), true);
    EXPECT_EQ(r.records.back().op, IntentOp::kRecoveryDone);
    EXPECT_EQ(r.records.back().flags, 1u);

    // Determinism: the identical seeded scenario replays to the
    // identical outcome.
    RecoveryRig rig2;
    sim::FaultInjector fi2(99);
    ASSERT_EQ(fi2.arm(sites::kSdWriteTorn, 1000), Status::kOk);
    {
      Boot b(rig2.card, &fi2, sim::Simulator::Mode::kScheduled);
      ASSERT_TRUE(b.sd_ok);
      sim::PowerLoss power;
      b.soc->sim().add(&power);
      power.on_trip([&] { rig2.card.power_fail(); });
      power.arm_at(trip);
      workload(b);
      if (!power.tripped()) {
        b.soc->sim().run_cycles(trip > b.soc->sim().now()
                                    ? trip - b.soc->sim().now() + 1
                                    : 1);
      }
    }
    const RecoveredState r2 =
        recover_boot(rig2.card, sim::Simulator::Mode::kScheduled);
    EXPECT_EQ(r2.active, r.active);
    EXPECT_EQ(r2.fabric_rm, r.fabric_rm);
    ASSERT_EQ(r2.records.size(), r.records.size());
    for (usize i = 0; i < r.records.size(); ++i) {
      EXPECT_EQ(r2.records[i].op, r.records[i].op) << i;
      EXPECT_EQ(r2.records[i].rm_id, r.records[i].rm_id) << i;
      EXPECT_EQ(r2.records[i].mtime, r.records[i].mtime) << i;
    }
  }
}

// The site-driven variant: power.loss picks the trip cycle from the
// seeded decision stream instead of an explicit arm_at.
TEST(RecoveryEndToEnd, SiteDrawnTripCycleIsDeterministic) {
  Cycles trips[2] = {0, 0};
  for (int run = 0; run < 2; ++run) {
    RecoveryRig rig;
    sim::FaultInjector fi(7);
    ASSERT_EQ(fi.arm(sites::kPowerLoss, 1), Status::kOk);
    ASSERT_EQ(fi.arm(sites::kSdWriteTorn, 1000), Status::kOk);
    Boot b(rig.card, &fi, sim::Simulator::Mode::kScheduled);
    ASSERT_TRUE(b.sd_ok);
    sim::PowerLoss power(&fi);
    b.soc->sim().add(&power);
    power.on_trip([&] { rig.card.power_fail(); });
    power.arm_from_site(/*horizon=*/40'000'000);
    ASSERT_TRUE(power.armed());
    workload(b);
    if (!power.tripped()) b.soc->sim().run_until_idle();
    trips[run] = power.trip_cycle();
    EXPECT_TRUE(power.tripped());
  }
  EXPECT_EQ(trips[0], trips[1]);
  EXPECT_GT(trips[0], 0u);
}

// ---------------------------------------------------------------------
// Dual-kernel equivalence: the same seeded crash-and-recover scenario
// lands on identical journals, verdicts and fabric state under the
// flat and scheduled kernels.
// ---------------------------------------------------------------------

TEST(RecoveryEndToEnd, FlatAndScheduledKernelsAgree) {
  RecoveredState results[2];
  const sim::Simulator::Mode modes[2] = {sim::Simulator::Mode::kFlat,
                                         sim::Simulator::Mode::kScheduled};
  for (int k = 0; k < 2; ++k) {
    RecoveryRig rig;
    sim::FaultInjector fi(42);
    ASSERT_EQ(fi.arm(sites::kSdWriteTorn, 1000), Status::kOk);
    {
      Boot b(rig.card, &fi, modes[k]);
      ASSERT_TRUE(b.sd_ok);
      sim::PowerLoss power;
      b.soc->sim().add(&power);
      power.on_trip([&] { rig.card.power_fail(); });
      power.arm_at(9'000'000);  // mid-workload under both kernels
      workload(b);
      EXPECT_TRUE(power.tripped());
    }
    results[k] = recover_boot(rig.card, modes[k]);
  }
  EXPECT_EQ(results[0].status, results[1].status);
  EXPECT_EQ(results[0].active, results[1].active);
  EXPECT_EQ(results[0].fabric_rm, results[1].fabric_rm);
  EXPECT_EQ(results[0].report.all_verified, results[1].report.all_verified);
  ASSERT_EQ(results[0].records.size(), results[1].records.size());
  for (usize i = 0; i < results[0].records.size(); ++i) {
    EXPECT_EQ(results[0].records[i].seq, results[1].records[i].seq) << i;
    EXPECT_EQ(results[0].records[i].op, results[1].records[i].op) << i;
    EXPECT_EQ(results[0].records[i].rm_id, results[1].records[i].rm_id) << i;
    EXPECT_EQ(results[0].records[i].mtime, results[1].records[i].mtime) << i;
    EXPECT_EQ(results[0].records[i].arg0, results[1].records[i].arg0) << i;
  }
}

// ---------------------------------------------------------------------
// RecoveryManager policy behaviour over hand-crafted journals.
// ---------------------------------------------------------------------

struct PolicyFixture : ::testing::Test {
  PolicyFixture() : rig() {}

  // Host-side journal authoring (no simulated time).
  void author(const std::vector<IntentRecord>& recs) {
    RecoveryJournal j(rig.host_io, journal_region());
    EXPECT_EQ(j.replay(), Status::kOk);
    for (IntentRecord r : recs) EXPECT_EQ(j.append(r), Status::kOk);
  }

  static IntentRecord make(IntentOp op, u32 rm, u64 mtime, u32 arg0 = 0,
                           u8 flags = 0) {
    IntentRecord r;
    r.op = op;
    r.flags = flags;
    r.slot = 0;
    r.rm_id = rm;
    r.mtime = mtime;
    r.arg0 = arg0;
    return r;
  }

  RecoveryRig rig;
};

TEST_F(PolicyFixture, InterruptedSlotGetsGoldenReload) {
  author({make(IntentOp::kReconfigStart, 40, 100),
          make(IntentOp::kReconfigCommit, 40, 200),
          make(IntentOp::kReconfigStart, 41, 300)});  // unmatched
  const RecoveredState r =
      recover_boot(rig.card, sim::Simulator::Mode::kScheduled);
  EXPECT_EQ(r.status, Status::kOk);
  ASSERT_EQ(r.report.slots.size(), 1u);
  EXPECT_EQ(r.report.slots[0].verdict,
            RecoveryManager::SlotVerdict::kInterrupted);
  EXPECT_EQ(r.report.slots[0].rm_id, 41u);
  EXPECT_TRUE(r.report.slots[0].verified);
  EXPECT_EQ(r.active, "m41");
  EXPECT_EQ(r.fabric_rm, 41u);
  EXPECT_EQ(r.report.boot_epoch, 1u);
}

TEST_F(PolicyFixture, CleanSlotReloadsLastCommit) {
  author({make(IntentOp::kReconfigStart, 40, 100),
          make(IntentOp::kReconfigCommit, 40, 200)});
  const RecoveredState r =
      recover_boot(rig.card, sim::Simulator::Mode::kScheduled);
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.report.slots[0].verdict, RecoveryManager::SlotVerdict::kClean);
  EXPECT_EQ(r.active, "m40");
}

TEST_F(PolicyFixture, EmptyJournalIsUnknownButVerified) {
  const RecoveredState r =
      recover_boot(rig.card, sim::Simulator::Mode::kScheduled);
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.report.slots[0].verdict,
            RecoveryManager::SlotVerdict::kUnknown);
  EXPECT_TRUE(r.report.all_verified);
  EXPECT_EQ(r.report.golden_reloads, 0u);
  EXPECT_TRUE(r.active.empty());
}

TEST_F(PolicyFixture, CrashLoopingImageIsQuarantined) {
  // Three consecutive boot epochs each dying mid-activation of m40.
  author({make(IntentOp::kReconfigStart, 40, 100),
          make(IntentOp::kBootMark, 0, 200),
          make(IntentOp::kReconfigStart, 40, 300),
          make(IntentOp::kBootMark, 0, 400),
          make(IntentOp::kReconfigStart, 40, 500)});
  const RecoveredState r =
      recover_boot(rig.card, sim::Simulator::Mode::kScheduled);
  EXPECT_EQ(r.status, Status::kOk);  // quarantined-blank is a safe state
  EXPECT_EQ(r.report.quarantined, 1u);
  EXPECT_TRUE(r.report.slots[0].quarantined);
  EXPECT_TRUE(r.report.all_verified);
  EXPECT_TRUE(r.active.empty());  // deliberately NOT reloaded
  // The quarantine decision itself was journaled.
  bool has_quarantine = false;
  for (const IntentRecord& rec : r.records) {
    if (rec.op == IntentOp::kQuarantine && rec.rm_id == 40) {
      has_quarantine = true;
    }
  }
  EXPECT_TRUE(has_quarantine);
}

TEST_F(PolicyFixture, TwoInterruptionsDoNotQuarantine) {
  author({make(IntentOp::kReconfigStart, 40, 100),
          make(IntentOp::kBootMark, 0, 200),
          make(IntentOp::kReconfigStart, 40, 300)});
  const RecoveredState r =
      recover_boot(rig.card, sim::Simulator::Mode::kScheduled);
  EXPECT_EQ(r.report.quarantined, 0u);
  EXPECT_EQ(r.active, "m40");
}

TEST_F(PolicyFixture, PendingRequestsReplayOrShedByDeadline) {
  // Crash time is the newest mtime (1000). Request for m41 had 10k
  // ticks of slack left; the one for m42 expired before the crash.
  author({make(IntentOp::kSvcPending, 41, 900, /*slack=*/10'000),
          make(IntentOp::kSvcPending, 42, 500, /*slack=*/100),
          make(IntentOp::kSvcPending, 40, 1000, /*slack=*/0)});  // no deadline
  const RecoveredState r =
      recover_boot(rig.card, sim::Simulator::Mode::kScheduled);
  EXPECT_EQ(r.report.replayed_requests, 2u);
  EXPECT_EQ(r.report.shed_requests, 1u);
  // Both replayed requests ran; the last one submitted wins the slot.
  EXPECT_FALSE(r.active.empty());
}

TEST_F(PolicyFixture, MatchedPendingDonePairsAreNotReplayed) {
  author({make(IntentOp::kSvcPending, 41, 100),
          make(IntentOp::kSvcDone, 41, 200),
          make(IntentOp::kReconfigStart, 41, 150),
          make(IntentOp::kReconfigCommit, 41, 180)});
  const RecoveredState r =
      recover_boot(rig.card, sim::Simulator::Mode::kScheduled);
  EXPECT_EQ(r.report.replayed_requests, 0u);
  EXPECT_EQ(r.report.shed_requests, 0u);
  EXPECT_EQ(r.active, "m41");  // via the clean-slot reload, not replay
}

TEST_F(PolicyFixture, PrecrashFailureNotesAreDecoded) {
  const u32 packed = (static_cast<u32>(driver::FailStage::kDma) << 24) |
                     (static_cast<u32>(Status::kIoError) << 16) | 2u;
  author({make(IntentOp::kFailureNote, 40, 700, packed,
               static_cast<u8>(driver::FailStage::kDma)),
          make(IntentOp::kReconfigStart, 40, 800),
          make(IntentOp::kReconfigCommit, 40, 900)});
  const RecoveredState r =
      recover_boot(rig.card, sim::Simulator::Mode::kScheduled);
  ASSERT_EQ(r.report.precrash_failures.size(), 1u);
  EXPECT_EQ(r.report.precrash_failures[0].stage, driver::FailStage::kDma);
  EXPECT_EQ(r.report.precrash_failures[0].status, Status::kIoError);
  EXPECT_EQ(r.report.precrash_failures[0].attempt, 2u);
  EXPECT_EQ(r.report.precrash_failures[0].rm_id, 40u);
}

TEST_F(PolicyFixture, MailboxPublishesRecoveryOutcome) {
  author({make(IntentOp::kReconfigStart, 40, 100)});
  rig.card.power_on();
  Boot b(rig.card, nullptr, sim::Simulator::Mode::kScheduled);
  ASSERT_TRUE(b.sd_ok);
  RecoveryManager rman(b.soc->cpu(), *b.journal);
  rman.add_slot(0, b.mgr.get(), b.svc.get());
  ASSERT_EQ(rman.recover(), Status::kOk);
  auto reg = [&](const char* name) { return test::perf_counter(*b.drv, name); };
  EXPECT_EQ(reg("recovery.boot_epoch"), 1u);
  EXPECT_EQ(reg("recovery.slots_interrupted"), 1u);
  EXPECT_EQ(reg("recovery.golden_reloads"), 1u);
  EXPECT_EQ(reg("recovery.verified"), 1u);
  EXPECT_GT(reg("recovery.ready_cycles"), 0u);
}

// ---------------------------------------------------------------------
// Volatile failure-ring mirroring (satellite: DprManager kFailureNote).
// ---------------------------------------------------------------------

TEST(RecoveryIntegration, FailureJournalMirrorsIntoPersistentJournal) {
  RecoveryRig rig;
  sim::FaultInjector fi(5);
  // One staged-image bit flip: activation self-heals (restage + retry)
  // and every kDprStage event must be mirrored as a kFailureNote.
  ASSERT_EQ(fi.arm(sites::kStageBitFlip, 1), Status::kOk);
  Boot b(rig.card, &fi, sim::Simulator::Mode::kScheduled);
  ASSERT_TRUE(b.sd_ok);
  ASSERT_EQ(b.mgr->activate("m40"), Status::kOk);
  const auto stages = test::dpr_stages(b.soc->sim().obs().sink());
  ASSERT_GE(stages.size(), 1u);

  u32 notes = 0;
  for (const IntentRecord& r : b.journal->records()) {
    if (r.op != IntentOp::kFailureNote) continue;
    ++notes;
    const auto f = RecoveryManager::decode_failure(r);
    EXPECT_EQ(f.rm_id, 40u);
    EXPECT_EQ(static_cast<u32>(f.stage), static_cast<u32>(r.flags));
  }
  EXPECT_EQ(notes, stages.size());
}

// Recovery trace track carries the whole story and the registry
// counters carry the outcome, in every build, RVCAP_NO_TRACE included:
// the Recovery events asserted on are driver events.
TEST(RecoveryIntegration, RecoveryTrackTracesEmitted) {
  RecoveryRig rig;
  {
    Boot b(rig.card, nullptr, sim::Simulator::Mode::kScheduled);
    ASSERT_TRUE(b.sd_ok);
    b.soc->sim().obs().sink().set_enabled(true);
    (void)b.request(40);
    rig.card.power_fail();
  }
  rig.card.power_on();
  Boot b(rig.card, nullptr, sim::Simulator::Mode::kScheduled);
  ASSERT_TRUE(b.sd_ok);
  // The golden reload floods the ring with bus/ICAP events; grow it so
  // the early boot-scan/verdict instants survive to the assertion.
  b.soc->sim().obs().sink().set_capacity(usize{1} << 21);
  b.soc->sim().obs().sink().set_enabled(true);
  RecoveryManager rman(b.soc->cpu(), *b.journal);
  rman.add_slot(0, b.mgr.get(), b.svc.get());
  ASSERT_EQ(rman.recover(), Status::kOk);

  // The power failed after the request committed, so the slot reboots
  // clean and is golden-reloaded with its committed module.
  auto reg = [&](const char* name) { return test::perf_counter(*b.drv, name); };
  EXPECT_GT(reg("recovery.records"), 0u);
  EXPECT_EQ(reg("recovery.slots_clean"), 1u);
  EXPECT_EQ(reg("recovery.slots_interrupted"), 0u);
  EXPECT_EQ(reg("recovery.golden_reloads"), 1u);
  EXPECT_EQ(reg("recovery.verified"), 1u);

  std::set<obs::EventKind> kinds;
  for (const obs::TraceEvent& e : b.soc->sim().obs().sink().events()) {
    if (obs::event_track(e.kind) == obs::Track::kRecovery) kinds.insert(e.kind);
  }
  EXPECT_TRUE(kinds.count(obs::EventKind::kRecovJournalAppend));
  EXPECT_TRUE(kinds.count(obs::EventKind::kRecovBootScan));
  EXPECT_TRUE(kinds.count(obs::EventKind::kRecovSlotVerdict));
  EXPECT_TRUE(kinds.count(obs::EventKind::kRecovGoldenReload));
  EXPECT_TRUE(kinds.count(obs::EventKind::kRecovReady));
}

}  // namespace
}  // namespace rvcap
