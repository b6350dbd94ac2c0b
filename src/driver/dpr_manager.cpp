#include "driver/dpr_manager.hpp"

#include "bitstream/generator.hpp"
#include "common/log.hpp"
#include "driver/bitstream_source.hpp"
#include "driver/frame_check.hpp"
#include "obs/observability.hpp"

namespace rvcap::driver {

std::string_view to_string(FailStage s) {
  switch (s) {
    case FailStage::kStaging: return "staging";
    case FailStage::kStagedCrc: return "staged_crc";
    case FailStage::kDma: return "dma";
    case FailStage::kIcap: return "icap";
    case FailStage::kActivate: return "activate";
    case FailStage::kScrub: return "scrub";
    case FailStage::kBlank: return "blank";
    case FailStage::kRecovered: return "recovered";
    case FailStage::kExhausted: return "exhausted";
  }
  return "unknown";
}

DprManager::DprManager(RvCapDriver& drv, fabric::ConfigMemory& cfg,
                       usize rp_handle, storage::Fat32Volume* volume,
                       const Config& config)
    : drv_(drv), cfg_(cfg), rp_handle_(rp_handle), volume_(volume),
      config_(config), slot_owner_(config.num_slots),
      slot_last_use_(config.num_slots, 0),
      trace_(drv.cpu_context(), "dpr.slot" + std::to_string(config.slot_id)) {
  drv_.cpu_context().simulator().obs().counters().register_fields(
      "dpr.slot" + std::to_string(config_.slot_id) + ".", stats_,
      {{"activation_requests", &Stats::activation_requests},
       {"reconfigurations", &Stats::reconfigurations},
       {"already_active_hits", &Stats::already_active_hits},
       {"staging_hits", &Stats::staging_hits},
       {"staging_loads", &Stats::staging_loads},
       {"evictions", &Stats::evictions},
       {"total_reconfig_ticks", &Stats::total_reconfig_ticks},
       {"staging_failures", &Stats::staging_failures},
       {"staged_crc_failures", &Stats::staged_crc_failures},
       {"dma_errors", &Stats::dma_errors},
       {"dma_timeouts", &Stats::dma_timeouts},
       {"dma_hangs", &Stats::dma_hangs},
       {"config_failures", &Stats::config_failures},
       {"scrub_failures", &Stats::scrub_failures},
       {"recoveries", &Stats::recoveries},
       {"fallback_reconfigs", &Stats::fallback_reconfigs},
       {"blank_passes", &Stats::blank_passes},
       {"retries_exhausted", &Stats::retries_exhausted},
       {"scrub_verifies", &Stats::scrub_verifies}});
}

Status DprManager::register_module(std::string name, u32 rm_id,
                                   std::string pbit_path) {
  if (volume_ == nullptr) return Status::kInvalidArgument;
  if (find(name) != nullptr) return Status::kAlreadyExists;
  u32 size = 0;
  if (auto st = volume_->file_size(pbit_path, &size); !ok(st)) return st;
  if (size > config_.slot_bytes) return Status::kNoSpace;
  Module m;
  m.name = std::move(name);
  m.rm_id = rm_id;
  m.pbit_path = std::move(pbit_path);
  m.pbit_size = size;
  modules_.push_back(std::move(m));
  return Status::kOk;
}

Status DprManager::register_staged(std::string name, u32 rm_id, Addr addr,
                                   u32 bytes) {
  if (find(name) != nullptr) return Status::kAlreadyExists;
  Module m;
  m.name = std::move(name);
  m.rm_id = rm_id;
  m.staged_addr = addr;
  m.pbit_size = bytes;
  m.crc32 = ddr_crc(drv_.cpu_context(), addr, bytes);
  m.pinned = true;
  modules_.push_back(std::move(m));
  return Status::kOk;
}

Status DprManager::register_remote(std::string name, u32 rm_id,
                                   std::string image) {
  if (source_ == nullptr) return Status::kInvalidArgument;
  if (find(name) != nullptr) return Status::kAlreadyExists;
  Module m;
  m.name = std::move(name);
  m.rm_id = rm_id;
  m.pbit_path = std::move(image);
  m.remote = true;
  modules_.push_back(std::move(m));
  return Status::kOk;
}

DprManager::Module* DprManager::find(std::string_view name) {
  for (Module& m : modules_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

u32 DprManager::pick_victim_slot() {
  u32 best = 0;
  u64 oldest = ~u64{0};
  for (u32 s = 0; s < config_.num_slots; ++s) {
    if (!slot_owner_[s].has_value()) return s;  // free slot
    if (slot_last_use_[s] < oldest) {
      oldest = slot_last_use_[s];
      best = s;
    }
  }
  return best;
}

void DprManager::unstage(Module& m) {
  if (!m.slot.has_value()) return;
  slot_owner_[*m.slot].reset();
  m.slot.reset();
}

u32 DprManager::claim_slot(Module& m) {
  const u32 slot = pick_victim_slot();
  if (slot_owner_[slot].has_value()) {
    Module& evicted = modules_[*slot_owner_[slot]];
    evicted.slot.reset();
    ++stats_.evictions;
    log_debug("dpr_manager: evicting ", evicted.name, " from slot ", slot);
  }
  m.slot = slot;
  slot_owner_[slot] = static_cast<usize>(&m - modules_.data());
  slot_last_use_[slot] = ++use_clock_;
  return slot;
}

void DprManager::stage_bitflip_hook(const Module& m) {
  // Fault hook: a bit flip landing in the staged image after the load
  // CRC was computed (DDR upset / bus corruption). The staged-CRC
  // verify in activate() is what catches it.
  if (fault_ != nullptr && m.pbit_size > 0 &&
      fault_->should_fire(sim::fault_sites::kStageBitFlip)) {
    const u64 bit = fault_->value(sim::fault_sites::kStageBitFlip,
                                  u64{m.pbit_size} * 8);
    cpu::CpuContext& cpu = drv_.cpu_context();
    u8 byte = 0;
    cpu.read_buffer(m.staged_addr + bit / 8, std::span(&byte, 1));
    byte ^= static_cast<u8>(1u << (bit % 8));
    cpu.write_buffer(m.staged_addr + bit / 8, std::span(&byte, 1));
  }
}

Status DprManager::ensure_staged(Module& m) {
  if (m.pinned) return Status::kOk;
  if (m.slot.has_value()) {
    ++stats_.staging_hits;
    slot_last_use_[*m.slot] = ++use_clock_;
    return Status::kOk;
  }

  if (m.remote) {
    // Acquisition through the delivery chain (cache -> net -> SD).
    // The chain guarantees complete-or-failed, never partial; the
    // golden CRC is taken over the bytes that actually landed, so the
    // pre-transfer verify in activate() covers the image's whole DDR
    // residence regardless of which source produced it.
    if (source_ == nullptr) return Status::kInternal;
    const u32 slot = claim_slot(m);
    const Addr addr = config_.staging_base + u64{slot} * config_.slot_bytes;
    u32 bytes = 0;
    if (auto st = source_->fetch(m.pbit_path, addr, config_.slot_bytes,
                                 &bytes);
        !ok(st)) {
      unstage(m);
      return st;
    }
    m.staged_addr = addr;
    m.pbit_size = bytes;
    m.crc32 = ddr_crc(drv_.cpu_context(), addr, bytes);
    ++stats_.staging_loads;
    stage_bitflip_hook(m);
    return Status::kOk;
  }

  if (volume_ == nullptr) return Status::kInternal;
  const u32 slot = claim_slot(m);

  // Stage via init_RModules (the Listing-1 step-1 path).
  ReconfigModule rm{m.pbit_path, m.rm_id, 0, 0};
  std::span<ReconfigModule> one(&rm, 1);
  if (auto st = drv_.init_RModules(
          one, *volume_,
          config_.staging_base + u64{slot} * config_.slot_bytes);
      !ok(st)) {
    unstage(m);
    return st;
  }
  m.staged_addr = rm.start_address;
  m.pbit_size = rm.pbit_size;
  m.crc32 = rm.crc32;
  ++stats_.staging_loads;
  stage_bitflip_hook(m);
  return Status::kOk;
}

Status DprManager::prefetch(std::string_view name) {
  Module* m = find(name);
  if (m == nullptr) return Status::kNotFound;
  return ensure_staged(*m);
}

void DprManager::intent(IntentOp op, u32 rm_id, u8 flags, u32 arg0) {
  if (intent_ == nullptr) return;
  IntentRecord r;
  r.op = op;
  r.flags = flags;
  r.slot = static_cast<u16>(config_.slot_id);
  r.rm_id = rm_id;
  r.mtime = drv_.mtime();
  r.arg0 = arg0;
  // A failed append (dead card, full region I/O error) must not block
  // the activation itself: the journal is an aid, not a dependency.
  (void)intent_->append(r);
}

void DprManager::record(FailStage stage, Status status, u32 rm_id,
                        u32 attempt) {
  // The firmware stamps each record with a CLINT read.
  const u64 mtime = drv_.mtime();
  trace_.emit(obs::EventKind::kDprStage, rm_id,
              (u64{attempt} << 16) | (static_cast<u64>(status) << 8) |
                  static_cast<u64>(stage),
              mtime);
  // Mirror the record into the persistent journal so a post-reboot
  // diagnosis sees the pre-crash failure history. The packed arg0
  // round-trips through RecoveryManager::decode_failure.
  intent(IntentOp::kFailureNote, rm_id,
         static_cast<u8>(stage),
         (static_cast<u32>(stage) << 24) |
             (static_cast<u32>(status) << 16) | (attempt & 0xFFFF));
}

Status DprManager::blank_partition(DmaMode mode, u32 attempt) {
  drv_.bind_slot(config_.slot_id);
  const auto blank = bitstream::generate_blank_bitstream(
      cfg_.device(), cfg_.partition(rp_handle_));
  drv_.cpu_context().write_buffer(scratch_addr(), blank);
  ReconfigModule rm{"<blank>", 0, scratch_addr(),
                    static_cast<u32>(blank.size())};
  const Status st =
      drv_.init_reconfig_process(rm, mode, /*hold_decoupled=*/true);
  ++stats_.blank_passes;
  if (!ok(st)) {
    record(FailStage::kBlank, st, 0, attempt);
    // Even the blanking pass failed: scrap whatever the transfer left
    // in the datapath so the next attempt starts clean.
    drv_.cleanup_after_failure();
  }
  return st;
}

void DprManager::recover_datapath(DmaMode mode, u32 attempt) {
  // Recovery state machine: DMA reset + settle + datapath abort, then
  // overwrite the partially-written partition with a blank
  // configuration. The RP stays decoupled throughout.
  drv_.cleanup_after_failure();
  blank_partition(mode, attempt);
}

Status DprManager::activate(std::string_view name, DmaMode mode,
                            bool force) {
  ++stats_.activation_requests;
  Module* m = find(name);
  if (m == nullptr) return Status::kNotFound;

  const auto st0 = cfg_.partition_state(rp_handle_);
  if (!force && st0.loaded && st0.rm_id == m->rm_id) {
    ++stats_.already_active_hits;
    return Status::kOk;
  }

  // Write-ahead intent: the journal records that this slot is about to
  // be torn open BEFORE any state changes, so a power loss anywhere in
  // the attempt sequence leaves an open kReconfigStart for the cold-
  // boot recovery manager to find.
  intent(IntentOp::kReconfigStart, m->rm_id, force ? 1 : 0);

  // Safe-DPR activation: isolate the RP for the whole attempt sequence
  // and recouple only once a verified-good configuration is active.
  // Bind the driver to this manager's RP slot first — decouple and RM
  // register traffic must land in that slot's control window.
  drv_.bind_slot(config_.slot_id);
  drv_.decouple_accel(true);
  Status last = Status::kInternal;
  bool failed_once = false;
  for (u32 attempt = 1; attempt <= kMaxAttempts; ++attempt) {
    if (auto s = ensure_staged(*m); !ok(s)) {
      last = s;
      ++stats_.staging_failures;
      failed_once = true;
      record(FailStage::kStaging, s, m->rm_id, attempt);
      continue;
    }

    if (ddr_crc(drv_.cpu_context(), m->staged_addr, m->pbit_size) !=
        m->crc32) {
      last = Status::kCrcError;
      ++stats_.staged_crc_failures;
      failed_once = true;
      record(FailStage::kStagedCrc, last, m->rm_id, attempt);
      // Drop the corrupt image so the next attempt reloads from SD.
      // Pinned modules have no backing file — their retries exhaust.
      unstage(*m);
      continue;
    }

    const bool use_fallback =
        fallback_ != nullptr &&
        consecutive_dma_failures_ >= policy_.fallback_after_failures;
    ReconfigModule rm{m->name, m->rm_id, m->staged_addr, m->pbit_size,
                     m->crc32};
    Status s;
    if (use_fallback) {
      s = fallback_->init_reconfig_process(rm, /*hold_decoupled=*/true,
                                           config_.slot_id);
    } else {
      s = drv_.init_reconfig_process(rm, mode, /*hold_decoupled=*/true);
    }
    if (!ok(s)) {
      last = s;
      failed_once = true;
      if (use_fallback) {
        ++stats_.config_failures;
      } else {
        ++consecutive_dma_failures_;
        if (s == Status::kTimeout) {
          ++stats_.dma_timeouts;
        } else if (s == Status::kHang) {
          ++stats_.dma_hangs;
        } else {
          ++stats_.dma_errors;
        }
      }
      record(use_fallback ? FailStage::kIcap : FailStage::kDma, s,
             m->rm_id, attempt);
      recover_datapath(mode, attempt);
      continue;
    }

    const auto after = cfg_.partition_state(rp_handle_);
    if (!(after.loaded && after.rm_id == m->rm_id)) {
      last = Status::kIoError;
      failed_once = true;
      ++stats_.config_failures;
      if (!use_fallback) ++consecutive_dma_failures_;
      record(FailStage::kActivate, last, m->rm_id, attempt);
      recover_datapath(mode, attempt);
      continue;
    }

    // Post-recovery verification: read the partition back and check
    // every frame's ECC BEFORE the RP rejoins the system, in the
    // blanking scratch region (a blank pass never overlaps a verify).
    // The readback goes through the RV-CAP DMA, so it is skipped on
    // fallback transfers — those run precisely because the DMA path is
    // known-bad, and a readback over it would wedge the recovery it is
    // meant to verify.
    if (failed_once && !use_fallback && policy_.scrub_after_recovery) {
      ++stats_.scrub_verifies;
      const Status ss = verify_partition(drv_, cfg_, partition(),
                                         scratch_addr(), mode,
                                         /*hold_decoupled=*/true);
      if (!ok(ss)) {
        last = ss;
        ++stats_.scrub_failures;
        record(FailStage::kScrub, ss, m->rm_id, attempt);
        recover_datapath(mode, attempt);
        continue;
      }
    }

    // Verified good: rejoin the RP and account the transfer.
    drv_.decouple_accel(false);
    ++stats_.reconfigurations;
    if (use_fallback) {
      ++stats_.fallback_reconfigs;
      stats_.total_reconfig_ticks += fallback_->last_timing().reconfig_ticks;
    } else {
      consecutive_dma_failures_ = 0;
      stats_.total_reconfig_ticks += drv_.last_timing().reconfig_ticks;
    }
    if (failed_once) {
      ++stats_.recoveries;
      record(FailStage::kRecovered, Status::kOk, m->rm_id, attempt);
    }
    intent(IntentOp::kReconfigCommit, m->rm_id, 0, attempt);
    return Status::kOk;
  }

  // Retry budget spent. The RP is left decoupled over a blanked
  // partition — never coupled to a partial or corrupt configuration.
  ++stats_.retries_exhausted;
  record(FailStage::kExhausted, last, m->rm_id, kMaxAttempts);
  intent(IntentOp::kReconfigAbort, m->rm_id, 0,
         static_cast<u32>(last));
  return last;
}

bool DprManager::has_module(std::string_view name) const {
  for (const Module& m : modules_) {
    if (m.name == name) return true;
  }
  return false;
}

Status DprManager::staged_image(std::string_view name, StagedInfo* out) {
  Module* m = find(name);
  if (m == nullptr) return Status::kNotFound;
  if (auto st = ensure_staged(*m); !ok(st)) return st;
  out->addr = m->staged_addr;
  out->bytes = m->pbit_size;
  out->rm_id = m->rm_id;
  return Status::kOk;
}

void DprManager::discard_staged(std::string_view name) {
  Module* m = find(name);
  if (m == nullptr || m->pinned) return;
  unstage(*m);
}

u32 DprManager::rm_id_of(std::string_view name) const {
  for (const Module& m : modules_) {
    if (m.name == name) return m.rm_id;
  }
  return 0;
}

std::string DprManager::module_for_rm(u32 rm_id) const {
  for (const Module& m : modules_) {
    if (m.rm_id == rm_id) return m.name;
  }
  return {};
}

std::string DprManager::active_module() const {
  const auto st = cfg_.partition_state(rp_handle_);
  if (!st.loaded) return {};
  for (const Module& m : modules_) {
    if (m.rm_id == st.rm_id) return m.name;
  }
  return {};
}

}  // namespace rvcap::driver
