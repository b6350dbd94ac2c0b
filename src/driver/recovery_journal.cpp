#include "driver/recovery_journal.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/bytes.hpp"
#include "common/log.hpp"
#include "sim/fault_injector.hpp"

namespace rvcap::driver {

std::string_view to_string(IntentOp op) {
  switch (op) {
    case IntentOp::kBootMark: return "boot_mark";
    case IntentOp::kReconfigStart: return "reconfig_start";
    case IntentOp::kReconfigCommit: return "reconfig_commit";
    case IntentOp::kReconfigAbort: return "reconfig_abort";
    case IntentOp::kSlotCapture: return "slot_capture";
    case IntentOp::kSlotCaptureDone: return "slot_capture_done";
    case IntentOp::kSlotRestore: return "slot_restore";
    case IntentOp::kSlotRestoreDone: return "slot_restore_done";
    case IntentOp::kMigrateStart: return "migrate_start";
    case IntentOp::kMigrateDone: return "migrate_done";
    case IntentOp::kScrubReload: return "scrub_reload";
    case IntentOp::kScrubReloadDone: return "scrub_reload_done";
    case IntentOp::kSvcPending: return "svc_pending";
    case IntentOp::kSvcDone: return "svc_done";
    case IntentOp::kFailureNote: return "failure_note";
    case IntentOp::kQuarantine: return "quarantine";
    case IntentOp::kRecoveryDone: return "recovery_done";
  }
  return "?";
}

void RecoveryJournal::encode(const IntentRecord& rec,
                             std::span<u8> cell) const {
  store_le32(cell.subspan(0x00), kMagic);
  store_le32(cell.subspan(0x04), rec.seq);
  cell[0x08] = static_cast<u8>(rec.op);
  cell[0x09] = rec.flags;
  store_le16(cell.subspan(0x0A), rec.slot);
  store_le32(cell.subspan(0x0C), rec.rm_id);
  store_le64(cell.subspan(0x10), rec.mtime);
  store_le32(cell.subspan(0x18), rec.arg0);
  store_le32(cell.subspan(0x1C), crc32(cell.first(0x1C)));
}

std::optional<IntentRecord> RecoveryJournal::decode(
    std::span<const u8> cell) {
  if (load_le32(cell.subspan(0x00)) != kMagic) return std::nullopt;
  const u32 seq = load_le32(cell.subspan(0x04));
  if (seq == 0) return std::nullopt;
  if (load_le32(cell.subspan(0x1C)) != crc32(cell.first(0x1C))) {
    return std::nullopt;
  }
  const u8 op = cell[0x08];
  if (op < static_cast<u8>(IntentOp::kBootMark) ||
      op > static_cast<u8>(IntentOp::kRecoveryDone)) {
    return std::nullopt;
  }
  IntentRecord r;
  r.seq = seq;
  r.op = static_cast<IntentOp>(op);
  r.flags = cell[0x09];
  r.slot = load_le16(cell.subspan(0x0A));
  r.rm_id = load_le32(cell.subspan(0x0C));
  r.mtime = load_le64(cell.subspan(0x10));
  r.arg0 = load_le32(cell.subspan(0x18));
  return r;
}

Status RecoveryJournal::replay(ReplayReport* report) {
  records_.clear();
  ReplayReport rep;

  const u32 cells = cfg_.num_blocks * kRecordsPerBlock;
  std::vector<u8> region(static_cast<usize>(cfg_.num_blocks) *
                         storage::kBlockSize);
  for (u32 b = 0; b < cfg_.num_blocks; ++b) {
    std::span<u8> blk{region.data() + static_cast<usize>(b) *
                                          storage::kBlockSize,
                      storage::kBlockSize};
    if (auto st = io_.read(cfg_.base_lba + b, blk); !ok(st)) return st;
  }

  // First pass: decode every cell; find the newest valid record.
  std::vector<std::optional<IntentRecord>> decoded(cells);
  std::vector<bool> blank(cells, true);
  u32 max_seq_cell = cells;  // sentinel: empty journal
  for (u32 c = 0; c < cells; ++c) {
    std::span<const u8> cell{region.data() +
                                 static_cast<usize>(c) * kRecordSize,
                             kRecordSize};
    for (const u8 byte : cell) {
      if (byte != 0) {
        blank[c] = false;
        break;
      }
    }
    decoded[c] = decode(cell);
    if (decoded[c] && decoded[c]->seq > rep.max_seq) {
      rep.max_seq = decoded[c]->seq;
      max_seq_cell = c;
    }
  }

  // Second pass: invalid non-blank cells in the consecutive run right
  // after the newest record (ring order) are the torn tail of the last
  // append; invalid non-blank cells anywhere else are corrupt records.
  std::vector<bool> torn(cells, false);
  if (max_seq_cell != cells) {
    for (u32 i = 1; i < cells; ++i) {
      const u32 c = (max_seq_cell + i) % cells;
      if (blank[c] || decoded[c]) break;
      torn[c] = true;
      ++rep.torn_tail_cells;
    }
  }
  for (u32 c = 0; c < cells; ++c) {
    if (decoded[c]) {
      records_.push_back(*decoded[c]);
    } else if (!blank[c] && !torn[c]) {
      ++rep.corrupt_records;
      trace_.emit(obs::EventKind::kRecovJournalCorrupt, c);
    }
  }
  std::sort(records_.begin(), records_.end(),
            [](const IntentRecord& a, const IntentRecord& b) {
              return a.seq < b.seq;
            });
  rep.valid_records = static_cast<u32>(records_.size());
  if (rep.torn_tail_cells != 0) {
    trace_.emit(obs::EventKind::kRecovJournalTorn, rep.max_seq,
                (max_seq_cell + 1) % cells);
    log_warn("recovery_journal: truncated torn tail of ",
             rep.torn_tail_cells, " cell(s) after seq ", rep.max_seq);
  }

  next_seq_ = rep.max_seq + 1;
  next_cell_ = max_seq_cell == cells ? 0 : (max_seq_cell + 1) % cells;
  replayed_ = true;
  if (report != nullptr) *report = rep;
  return Status::kOk;
}

Status RecoveryJournal::append(IntentRecord rec) {
  if (!replayed_) {
    if (auto st = replay(); !ok(st)) return st;
  }
  rec.seq = next_seq_;

  const u32 block = next_cell_ / kRecordsPerBlock;
  const u32 offset = (next_cell_ % kRecordsPerBlock) * kRecordSize;
  std::array<u8, storage::kBlockSize> blk{};
  if (auto st = io_.read(cfg_.base_lba + block, blk); !ok(st)) {
    ++append_failures_;
    return st;
  }
  // Ring overwrite: reclaim the rest of the block when the cursor
  // wraps into old records, so stale high-seq cells cannot shadow the
  // new tail on the next replay.
  if (offset == 0) blk.fill(0);
  encode(rec, std::span<u8>{blk.data() + offset, kRecordSize});
  // Latent medium error: one bit of the sealed record flips between
  // CRC computation and the program operation.
  if (fault_ != nullptr &&
      fault_->should_fire(sim::fault_sites::kJournalCorrupt)) {
    const u64 bit = fault_->value(sim::fault_sites::kJournalCorrupt,
                                  u64{kRecordSize} * 8);
    blk[offset + bit / 8] ^= static_cast<u8>(1u << (bit % 8));
  }
  if (auto st = io_.write(cfg_.base_lba + block, blk); !ok(st)) {
    // Power may have died mid-sector: the on-card image is undefined
    // here (torn), which is exactly what replay() handles. Nothing to
    // roll back in memory — the record was never acknowledged.
    ++append_failures_;
    return st;
  }
  ++appends_;
  ++next_seq_;
  next_cell_ = (next_cell_ + 1) % (cfg_.num_blocks * kRecordsPerBlock);
  records_.push_back(rec);
  trace_.emit(obs::EventKind::kRecovJournalAppend, rec.seq,
              static_cast<u64>(rec.op));
  return Status::kOk;
}

Status RecoveryJournal::reset() {
  std::array<u8, storage::kBlockSize> zero{};
  for (u32 b = 0; b < cfg_.num_blocks; ++b) {
    if (auto st = io_.write(cfg_.base_lba + b, zero); !ok(st)) return st;
  }
  records_.clear();
  next_seq_ = 1;
  next_cell_ = 0;
  replayed_ = true;
  return Status::kOk;
}

const IntentRecord* RecoveryJournal::last_of(IntentOp op) const {
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    if (it->op == op) return &*it;
  }
  return nullptr;
}

}  // namespace rvcap::driver
