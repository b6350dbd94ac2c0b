#include "driver/slot_scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "bitstream/generator.hpp"
#include "common/bytes.hpp"
#include "driver/placement_engine.hpp"

namespace rvcap::driver {

SlotScheduler::SlotScheduler(RvCapDriver& drv, const Config& cfg)
    : drv_(drv), cfg_(cfg) {
  area_used_.assign(cfg_.capture_areas, false);
  obs::Observability& o = drv_.cpu_context().simulator().obs();
  trace_ = TraceSource(drv_.cpu_context(), "slot_scheduler");
  obs::CounterRegistry& c = o.counters();
  c.register_fields("slots.", stats_,
                    {{"submitted", &Stats::submitted},
                     {"completed", &Stats::completed},
                     {"failed", &Stats::failed},
                     {"sheds", &Stats::sheds},
                     {"deadline_misses", &Stats::deadline_misses},
                     {"late_completions", &Stats::late_completions},
                     {"chunks", &Stats::chunks},
                     {"preemptions", &Stats::preemptions},
                     {"captures", &Stats::captures},
                     {"restores", &Stats::restores},
                     {"rollbacks", &Stats::rollbacks},
                     {"torn_detected", &Stats::torn_detected},
                     {"stale_detected", &Stats::stale_detected},
                     {"poisoned_detected", &Stats::poisoned_detected},
                     {"swap_hangs", &Stats::swap_hangs}});
  c.register_fn("slots.queue_depth",
                [this] { return static_cast<u64>(queue_depth()); });
}

u32 SlotScheduler::add_slot(const SlotBinding& b) {
  assert(b.service != nullptr && b.manager != nullptr && b.rm != nullptr &&
         b.cfg != nullptr);
  assert(b.slot_id == slots_.size() && "slots must be added in id order");
  assert(cfg_.capture_arena != 0 && cfg_.restore_staging != 0 &&
         "capture arena and restore staging must be configured");
  slots_.push_back(b);
  if (slots_.back().region == kNoRegion) slots_.back().region = b.slot_id;
  resident_.push_back(0);
  return b.slot_id;
}

const SlotScheduler::TaskRecord* SlotScheduler::task(TaskId id) const {
  if (id == 0 || id > tasks_.size()) return nullptr;
  return &tasks_[id - 1];
}

void SlotScheduler::intent(IntentOp op, u32 slot, u32 rm_id, u32 arg0) {
  if (intent_ == nullptr) return;
  IntentRecord r;
  r.op = op;
  r.slot = static_cast<u16>(slot);
  r.rm_id = rm_id;
  r.mtime = drv_.mtime();
  r.arg0 = arg0;
  // A failed append must not block the swap: the torn on-card image is
  // exactly the case boot-time replay classifies and repairs.
  (void)intent_->append(r);
}

u64 SlotScheduler::eff_priority(const TaskRecord& t, u64 now) const {
  u64 eff = t.task.priority;
  if (cfg_.aging_quantum_mtime != 0 && now > t.last_progress_mtime) {
    eff += (now - t.last_progress_mtime) / cfg_.aging_quantum_mtime;
  }
  return eff;
}

void SlotScheduler::finish(TaskRecord& t, TaskState state, Status status) {
  t.state = state;
  t.status = status;
  t.done_mtime = drv_.mtime();
  release_area(t);
  if (t.slot != kNoSlot && t.slot < resident_.size() &&
      resident_[t.slot] == t.id) {
    resident_[t.slot] = 0;
  }
}

u32 SlotScheduler::claim_area() {
  for (u32 i = 0; i < area_used_.size(); ++i) {
    if (!area_used_[i]) {
      area_used_[i] = true;
      return i;
    }
  }
  return kNoArea;
}

void SlotScheduler::release_area(TaskRecord& t) {
  if (t.capture_area != kNoArea) {
    area_used_[t.capture_area] = false;
    t.capture_area = kNoArea;
    t.behavior_blob.clear();
  }
}

u32 SlotScheduler::image_crc(Addr addr, u32 words, std::span<const u8> blob) {
  return crc32(blob, ddr_crc(drv_.cpu_context(), addr, words * 4));
}

void SlotScheduler::settle() {
  // Let the fabric-side components observe the configuration change
  // (RmSlot polls the configuration memory once per cycle).
  drv_.cpu_context().simulator().run_cycles(8);
}

Status SlotScheduler::submit(const HwTask& task, TaskId* id) {
  ++stats_.submitted;
  const u64 now = drv_.mtime();

  // The module must be registered with at least one slot's manager, or
  // with the placement engine's catalogue (engine mode: a single
  // registration serves every compatible region).
  bool known = engine_ != nullptr && engine_->has_module(task.module);
  for (const SlotBinding& b : slots_) {
    if (b.manager->has_module(task.module)) known = true;
  }
  if (!known) return Status::kNotFound;
  if (task.total_bytes == 0) return Status::kInvalidArgument;

  if (queue_depth() >= cfg_.queue_capacity) {
    // Priority-safe shedding: evict the lowest-effective-priority
    // queued entry only when the arrival strictly outranks it.
    TaskRecord* victim = nullptr;
    for (TaskRecord& t : tasks_) {
      if (t.state != TaskState::kQueued) continue;
      if (victim == nullptr ||
          eff_priority(t, now) < eff_priority(*victim, now)) {
        victim = &t;
      }
    }
    if (victim != nullptr && u64{task.priority} > eff_priority(*victim, now)) {
      ++stats_.sheds;
      trace_.emit(obs::EventKind::kSlotShed, victim->id, victim->task.priority);
      stamp_event();
      finish(*victim, TaskState::kShed, Status::kRejected);
    } else {
      ++stats_.sheds;
      TaskRecord r;
      r.id = tasks_.size() + 1;
      r.task = task;
      r.submit_mtime = now;
      r.last_progress_mtime = now;
      trace_.emit(obs::EventKind::kSlotShed, r.id, task.priority);
      stamp_event();
      r.state = TaskState::kShed;
      r.status = Status::kRejected;
      r.done_mtime = now;
      tasks_.push_back(std::move(r));
      if (id != nullptr) *id = tasks_.back().id;
      return Status::kRejected;
    }
  }

  TaskRecord r;
  r.id = tasks_.size() + 1;
  r.task = task;
  r.submit_mtime = now;
  r.last_progress_mtime = now;
  tasks_.push_back(std::move(r));
  if (id != nullptr) *id = tasks_.back().id;
  return Status::kOk;
}

void SlotScheduler::expire_queued(u64 now) {
  for (TaskRecord& t : tasks_) {
    if (t.state != TaskState::kQueued) continue;
    if (t.task.deadline_mtime != 0 && now > t.task.deadline_mtime) {
      ++stats_.deadline_misses;
      trace_.emit(obs::EventKind::kSlotDeadlineMiss, t.id);
      stamp_event();
      finish(t, TaskState::kDeadlineMissed, Status::kDeadlineMissed);
    }
  }
}

SlotScheduler::TaskRecord* SlotScheduler::pick_best(u64 now) {
  TaskRecord* best = nullptr;
  for (TaskRecord& t : tasks_) {
    if (t.state != TaskState::kQueued && t.state != TaskState::kRunning &&
        t.state != TaskState::kPreempted) {
      continue;
    }
    if (best == nullptr) {
      best = &t;
      continue;
    }
    const u64 te = eff_priority(t, now);
    const u64 be = eff_priority(*best, now);
    if (te != be) {
      if (te > be) best = &t;
      continue;
    }
    const u64 td = t.task.deadline_mtime == 0 ? ~u64{0} : t.task.deadline_mtime;
    const u64 bd =
        best->task.deadline_mtime == 0 ? ~u64{0} : best->task.deadline_mtime;
    if (td != bd) {
      if (td < bd) best = &t;
      continue;
    }
    // Least-recently-progressed breaks remaining ties, so equal-priority
    // tasks interleave chunk-by-chunk across the slots instead of the
    // lowest id monopolizing the machine until completion.
    if (t.last_progress_mtime != best->last_progress_mtime) {
      if (t.last_progress_mtime < best->last_progress_mtime) best = &t;
      continue;
    }
    if (t.id < best->id) best = &t;
  }
  return best;
}

SlotScheduler::TaskRecord* SlotScheduler::best_resident(u64 now) {
  TaskRecord* best = nullptr;
  for (TaskId id : resident_) {
    TaskRecord* t = find(id);
    if (t == nullptr || t->state != TaskState::kRunning) continue;
    if (best == nullptr || eff_priority(*t, now) > eff_priority(*best, now)) {
      best = t;
    }
  }
  return best;
}

Status SlotScheduler::capture(TaskRecord& victim) {
  assert(victim.state == TaskState::kRunning && victim.slot != kNoSlot);
  const u32 s = victim.slot;
  SlotBinding& b = slots_[s];

  const u32 area = claim_area();
  if (area == kNoArea) return Status::kNoSpace;
  const Addr addr =
      cfg_.capture_arena + u64{area} * cfg_.capture_area_bytes;

  // Readback-capture the partition's frames into the DDR area. The RP
  // is held decoupled (GCAPTURE quiesces the region); the incoming
  // task's activation re-isolates it anyway.
  intent(IntentOp::kSlotCapture, s, victim.task.rm_id, victim.id);
  // The readback completes on S2MM, which the stall watchdog does not
  // fence: a stalled capture ends in its size-derived timeout.
  drv_.bind_slot(s);
  u32 words = 0;
  const Status st = drv_.readback_partition(
      b.manager->device(), b.manager->partition(), b.cmd_staging, addr,
      &words, DmaMode::kInterrupt, /*hold_decoupled=*/true);
  if (!ok(st)) {
    // Capture failed before any state changed: the victim stays
    // resident and coupled; the preemption attempt is abandoned.
    area_used_[area] = false;
    drv_.cleanup_after_failure();
    drv_.decouple_accel(false);
    return st;
  }

  // Serialize the module's architectural state (flip-flop contents in
  // the real GCAPTURE flow) and seal image + state under one digest.
  victim.behavior_blob.clear();
  b.rm->capture_behavior_state(victim.behavior_blob);
  victim.capture_addr = addr;
  victim.capture_words = words;
  victim.capture_area = area;
  victim.capture_digest = image_crc(addr, words, victim.behavior_blob);
  victim.capture_poisoned =
      b.cfg->partition_state(b.cfg_handle).essential_upsets > 0;

  // Fault site: a torn capture flips one DDR bit AFTER the digest was
  // computed, so the restore-time re-CRC must catch it.
  if (fault_ != nullptr &&
      fault_->should_fire(sim::fault_sites::kSlotCaptureTorn)) {
    const u64 wi = fault_->value(sim::fault_sites::kSlotCaptureTorn, words);
    const u64 bit = fault_->value(sim::fault_sites::kSlotCaptureTorn, 32);
    cpu::CpuContext& cpu = drv_.cpu_context();
    const u32 w = cpu.load32_uncached(addr + wi * 4);
    cpu.store32_uncached(addr + wi * 4, w ^ (1u << bit));
  }

  victim.state = TaskState::kPreempted;
  ++victim.preemptions;
  resident_[s] = 0;
  ++stats_.preemptions;
  ++stats_.captures;
  trace_.emit(obs::EventKind::kSlotPreempt, victim.id, s);
  trace_.emit(obs::EventKind::kSlotCapture, victim.id, words,
              drv_.last_timing().reconfig_ticks);
  stamp_event();
  intent(IntentOp::kSlotCaptureDone, s, victim.task.rm_id, victim.id);
  return Status::kOk;
}

Status SlotScheduler::swap_in(TaskRecord& t, u32 slot) {
  SlotBinding& b = slots_[slot];

  // Fault site: a wedged swap transfer. Arm a one-shot MM2S stall so
  // the slot service's watchdog sees a frozen beat counter and turns
  // the wedge into a diagnosed kHang (the DprManager recovery machine
  // then cleans up and retries) — the fence the paper's fail-safe swap
  // needs instead of silent corruption.
  if (fault_ != nullptr &&
      fault_->should_fire(sim::fault_sites::kSlotSwapStall)) {
    fault_->arm(sim::fault_sites::kDmaMm2sStall, 1);
  }

  const u64 hangs_before = b.service->stats().hangs;
  ReconfigService::RequestId rid = 0;
  ReconfigService::ActivationRequest req;
  req.module = t.task.module;
  req.priority = t.task.priority;
  req.client_id = t.task.client_id;
  // Force: always rewrite, so the RM behavior re-instantiates from
  // reset even when the partition still holds the same rm_id.
  req.force = true;
  Status st = b.service->submit(req, &rid);
  if (ok(st)) {
    b.service->step();
    const ReconfigService::RequestRecord* rec = b.service->record(rid);
    st = rec != nullptr && rec->state == ReconfigService::RequestState::kCompleted
             ? Status::kOk
             : (rec != nullptr ? rec->status : Status::kInternal);
  }
  if (b.service->stats().hangs > hangs_before) {
    ++stats_.swap_hangs;
    trace_.emit(obs::EventKind::kSlotSwapHang, t.id, slot);
    stamp_event();
  }
  if (!ok(st)) return st;

  settle();
  t.slot = slot;
  resident_[slot] = t.id;
  if (t.start_mtime == 0) t.start_mtime = drv_.mtime();
  trace_.emit(obs::EventKind::kSlotPlace, t.id, slot);
  return Status::kOk;
}

void SlotScheduler::apply_setup_regs(TaskRecord& t) {
  if (t.task.setup_regs.empty()) return;
  drv_.bind_slot(t.slot);
  for (const auto& [index, value] : t.task.setup_regs) {
    drv_.rm_reg_write(index, value);
  }
}

void SlotScheduler::rollback(TaskRecord& t, RollbackReason reason,
                             Status cause) {
  ++stats_.rollbacks;
  ++t.rollbacks;
  const u32 s = t.slot;
  trace_.emit(obs::EventKind::kSlotRollback, t.id, static_cast<u64>(reason),
              static_cast<u64>(cause));
  stamp_event();
  release_area(t);

  if (t.rollbacks > cfg_.max_rollbacks) {
    finish(t, TaskState::kFailed, cause);
    return;
  }

  // Full reload from the golden staged bitstream, then restart the
  // task from byte 0: its partial outputs are rewritten from scratch,
  // so a consumer never observes data influenced by the failed swap.
  const Status st = swap_in(t, s);
  if (!ok(st)) {
    finish(t, TaskState::kFailed, st);
    return;
  }
  t.bytes_done = 0;
  t.chunks = 0;
  t.state = TaskState::kRunning;
  t.last_progress_mtime = drv_.mtime();
  apply_setup_regs(t);
}

void SlotScheduler::restore(TaskRecord& t) {
  assert(t.state == TaskState::kPreempted && t.slot != kNoSlot);
  const u32 s = t.slot;
  SlotBinding& b = slots_[s];

  // Fail-safe gate 1: frames rewritten since the capture (the scrub
  // service repaired or reloaded the partition underneath us) make the
  // captured image stale — restoring it would resurrect pre-repair
  // configuration bits.
  if (fault_ != nullptr &&
      fault_->should_fire(sim::fault_sites::kSlotRestoreStale)) {
    ++stats_.stale_detected;
    rollback(t, RollbackReason::kStale, Status::kCrcError);
    return;
  }
  // Fail-safe gate 2: a capture taken while the partition carried an
  // essential upset serialized corrupted logic — never restore it.
  if (t.capture_poisoned) {
    ++stats_.poisoned_detected;
    rollback(t, RollbackReason::kPoisoned, Status::kCrcError);
    return;
  }
  // Fail-safe gate 3: re-verify the digest over the DDR image plus the
  // architectural-state blob (torn captures are caught here).
  if (image_crc(t.capture_addr, t.capture_words, t.behavior_blob) !=
      t.capture_digest) {
    ++stats_.torn_detected;
    rollback(t, RollbackReason::kDigest, Status::kCrcError);
    return;
  }

  // Rebuild a loadable partial bitstream from the captured frames and
  // reconfigure the SAME slot (frame addresses are absolute).
  intent(IntentOp::kSlotRestore, s, t.task.rm_id, t.id);
  cpu::CpuContext& cpu = drv_.cpu_context();
  std::vector<u8> image_bytes(usize{t.capture_words} * 4);
  cpu.read_buffer(t.capture_addr, image_bytes);
  // Readback lands in DDR in configuration byte order (big-endian),
  // the same order to_bytes re-serializes.
  std::vector<u32> words(t.capture_words);
  for (u32 k = 0; k < t.capture_words; ++k) {
    words[k] = load_be32(std::span<const u8>(image_bytes).subspan(usize{k} * 4, 4));
  }
  const std::vector<u8> pbit = bitstream::build_restore_bitstream(
      b.manager->device(), b.manager->partition(), words);
  cpu.write_buffer(cfg_.restore_staging, pbit);

  drv_.bind_slot(s);
  ReconfigModule rm{"<restore>", t.task.rm_id, cfg_.restore_staging,
                    static_cast<u32>(pbit.size())};
  StallWatchdog* const prev = drv_.watchdog();
  drv_.set_watchdog(&watchdog_);
  const Status st = drv_.init_reconfig_process(rm, DmaMode::kInterrupt,
                                               /*hold_decoupled=*/true);
  drv_.set_watchdog(prev);
  if (!ok(st)) {
    drv_.cleanup_after_failure();
    if (st == Status::kHang) {
      ++stats_.swap_hangs;
      trace_.emit(obs::EventKind::kSlotSwapHang, t.id, s);
      stamp_event();
    }
    rollback(t, RollbackReason::kTransfer, st);
    return;
  }
  const auto ps = b.cfg->partition_state(b.cfg_handle);
  if (!(ps.loaded && ps.rm_id == t.task.rm_id)) {
    rollback(t, RollbackReason::kTransfer, Status::kIoError);
    return;
  }
  drv_.decouple_accel(false);
  settle();

  // Reinstate the serialized architectural state into the freshly
  // re-activated behavior: the task resumes bit-identically.
  if (!b.rm->restore_behavior_state(t.behavior_blob)) {
    rollback(t, RollbackReason::kBehavior, Status::kInternal);
    return;
  }

  release_area(t);
  t.state = TaskState::kRunning;
  resident_[s] = t.id;
  ++stats_.restores;
  trace_.emit(obs::EventKind::kSlotRestore, t.id, s,
              drv_.last_timing().reconfig_ticks);
  trace_.emit(obs::EventKind::kSlotResume, t.id, s);
  stamp_event();
  intent(IntentOp::kSlotRestoreDone, s, t.task.rm_id, t.id);
}

bool SlotScheduler::slot_eligible(u32 slot, const TaskRecord& t) {
  if (region_reserved(slot)) return false;  // held for a granted span
  if (slots_[slot].manager->has_module(t.task.module)) return true;
  return engine_ != nullptr &&
         engine_->can_place(t.task.module, slots_[slot].region);
}

bool SlotScheduler::region_reserved(u32 slot) const {
  return engine_ != nullptr &&
         engine_->allocator().state(slots_[slot].region) ==
             fabric::RegionState::kReserved;
}

u32 SlotScheduler::slot_of_region(u32 region) const {
  for (const SlotBinding& b : slots_) {
    if (b.region == region) return b.slot_id;
  }
  return kNoSlot;
}

Status SlotScheduler::prepare_slot(TaskRecord& t, u32 slot) {
  SlotBinding& b = slots_[slot];
  if (b.manager->has_module(t.task.module)) return Status::kOk;
  if (engine_ == nullptr) return Status::kNotFound;
  // First landing of this module in this region: materialize the
  // relocated (preflighted, CRC-sealed) variant and register it as the
  // slot's golden image — the rollback path reloads from it too.
  DprManager::StagedInfo info;
  const Status st = engine_->materialize(t.task.module, b.region, &info);
  if (!ok(st)) return st;
  return b.manager->register_staged(t.task.module, info.rm_id, info.addr,
                                    info.bytes);
}

bool SlotScheduler::parked_owner(u32 slot, const TaskRecord& t,
                                 u64 now) const {
  for (const TaskRecord& p : tasks_) {
    if (p.id != t.id && p.state == TaskState::kPreempted && p.slot == slot &&
        eff_priority(p, now) >= eff_priority(t, now)) {
      return true;
    }
  }
  return false;
}

bool SlotScheduler::ensure_resident(TaskRecord& t, u64 now) {
  if (t.state == TaskState::kRunning && t.slot != kNoSlot &&
      resident_[t.slot] == t.id) {
    return true;
  }

  if (t.state == TaskState::kPreempted) {
    // Legacy mode: a preempted task can only resume in its capture
    // slot. Engine mode: the capture image is rebuilt against whatever
    // compatible partition receives it (same footprint, same frame
    // layout), so when the capture slot is occupied or span-reserved
    // the task may migrate to any free compatible slot that no
    // equal-or-higher-priority parked task owns.
    u32 dest = t.slot;
    if (engine_ != nullptr &&
        (find(resident_[dest]) != nullptr || region_reserved(dest))) {
      for (u32 s = 0; s < slots_.size(); ++s) {
        if (s == dest || find(resident_[s]) != nullptr) continue;
        if (!slot_eligible(s, t) || parked_owner(s, t, now)) continue;
        dest = s;
        break;
      }
    }
    if (region_reserved(dest)) return false;
    TaskRecord* res = find(resident_[dest]);
    if (res != nullptr) {
      if (eff_priority(t, now) <= eff_priority(*res, now)) return false;
      if (!ok(capture(*res))) return false;
    }
    if (dest != t.slot) {
      if (!ok(prepare_slot(t, dest))) return false;
      engine_->note_migration(t.id, t.slot, dest);
      t.slot = dest;
    }
    restore(t);
    return t.state == TaskState::kRunning;
  }

  // Queued: place on a vacant eligible slot, else preempt the
  // lowest-effective-priority resident we strictly outrank.
  u32 chosen = kNoSlot;
  TaskRecord* victim = nullptr;
  for (u32 s = 0; s < slots_.size(); ++s) {
    if (!slot_eligible(s, t)) continue;
    TaskRecord* res = find(resident_[s]);
    if (res == nullptr) {
      // Vacant, unless a parked task owns it for its eventual restore.
      if (parked_owner(s, t, now)) continue;
      chosen = s;
      victim = nullptr;
      break;
    }
    if (victim == nullptr ||
        eff_priority(*res, now) < eff_priority(*victim, now)) {
      chosen = s;
      victim = res;
    }
  }
  if (chosen == kNoSlot) return false;
  if (victim != nullptr) {
    if (eff_priority(t, now) <= eff_priority(*victim, now)) return false;
    if (!ok(capture(*victim))) return false;
  }

  if (!ok(prepare_slot(t, chosen))) return false;
  const Status st = swap_in(t, chosen);
  if (!ok(st)) {
    finish(t, TaskState::kFailed, st);
    return false;
  }
  t.state = TaskState::kRunning;
  t.last_progress_mtime = drv_.mtime();
  apply_setup_regs(t);
  return true;
}

void SlotScheduler::run_chunk(TaskRecord& t) {
  const u32 s = t.slot;
  drv_.bind_slot(s);
  drv_.select_rm_slot(s);
  const u32 chunk_cfg =
      t.task.chunk_bytes != 0 ? t.task.chunk_bytes : cfg_.default_chunk_bytes;
  const u32 chunk = std::min(chunk_cfg, t.task.total_bytes - t.bytes_done);
  const Status st = drv_.run_accelerator(t.task.src + t.bytes_done, chunk,
                                         t.task.dst + t.bytes_done, chunk,
                                         DmaMode::kInterrupt);
  if (!ok(st)) {
    // A failed stream leaves the module state unknown: roll back to a
    // golden reload and restart rather than resume over garbage.
    drv_.cleanup_after_failure();
    rollback(t, RollbackReason::kTransfer, st);
    return;
  }
  t.bytes_done += chunk;
  ++t.chunks;
  ++stats_.chunks;
  t.last_progress_mtime = drv_.mtime();
  if (t.bytes_done >= t.task.total_bytes) {
    ++stats_.completed;
    if (t.task.deadline_mtime != 0 && drv_.mtime() > t.task.deadline_mtime) {
      ++stats_.late_completions;
    }
    trace_.emit(obs::EventKind::kSlotComplete, t.id, s,
                drv_.mtime() - t.start_mtime);
    stamp_event();
    finish(t, TaskState::kCompleted, Status::kOk);
  }
}

bool SlotScheduler::step() {
  const u64 now = drv_.mtime();
  expire_queued(now);

  TaskRecord* t = pick_best(now);
  if (t == nullptr) return false;
  if (!ensure_resident(*t, now)) {
    // The best task cannot be placed right now (it does not outrank
    // any resident, or resources ran dry): advance the best resident
    // instead so the machine never idles while work is ready.
    t = best_resident(now);
    if (t == nullptr) {
      // Nothing resident either: re-try placement across the whole
      // queue in effective-priority order before giving up. A failed
      // attempt that still changed the task's state (a restore that
      // rolled back, or spent the last rollback and failed the task)
      // is progress too.
      std::vector<TaskRecord*> waiting;
      for (TaskRecord& c : tasks_) {
        if (c.state == TaskState::kQueued ||
            c.state == TaskState::kPreempted) {
          waiting.push_back(&c);
        }
      }
      std::stable_sort(waiting.begin(), waiting.end(),
                       [&](const TaskRecord* a, const TaskRecord* b) {
                         return eff_priority(*a, now) > eff_priority(*b, now);
                       });
      for (TaskRecord* c : waiting) {
        const TaskState before = c->state;
        if (ensure_resident(*c, now)) {
          t = c;
          break;
        }
        if (c->state != before) return true;
      }
      if (t == nullptr) return false;
    }
  }
  if (t->state != TaskState::kRunning) return true;  // rollback consumed step
  run_chunk(*t);
  return true;
}

usize SlotScheduler::drain() {
  usize n = 0;
  // Bounded by construction: every step either streams a chunk,
  // finishes a task, or performs a recovery action that is itself
  // bounded by max_rollbacks; the product bounds total steps.
  const usize guard =
      (tasks_.size() + 1) * (cfg_.max_rollbacks + 2) * 4096;
  while (n < guard && step()) ++n;
  return n;
}

void SlotScheduler::sync_allocator() {
  if (engine_ == nullptr) return;
  fabric::FabricAllocator& alloc = engine_->allocator();
  for (const SlotBinding& b : slots_) {
    if (alloc.state(b.region) == fabric::RegionState::kReserved) continue;
    const TaskId id = resident_[b.slot_id];
    if (id != 0) {
      if (alloc.state(b.region) == fabric::RegionState::kFree) {
        alloc.acquire(b.region, id);
      } else if (alloc.owner(b.region) != id) {
        alloc.release(b.region);
        alloc.acquire(b.region, id);
      }
    } else if (alloc.state(b.region) == fabric::RegionState::kBusy) {
      alloc.release(b.region);
    }
  }
}

Status SlotScheduler::migrate_region(u32 from_region, u32 to_region) {
  const u32 from_slot = slot_of_region(from_region);
  const u32 to_slot = slot_of_region(to_region);
  if (from_slot == kNoSlot || to_slot == kNoSlot) {
    return Status::kInvalidArgument;
  }
  TaskRecord* t = find(resident_[from_slot]);
  if (t == nullptr || t->state != TaskState::kRunning) {
    return Status::kNotFound;
  }
  if (find(resident_[to_slot]) != nullptr || region_reserved(to_slot)) {
    return Status::kDeviceBusy;
  }
  // The capture alone clears the source window — that is what the
  // compaction pass needs. If the re-placement below fails, the task
  // simply stays parked (preempted) and resumes through the normal
  // scheduler path later; the span request still proceeds.
  intent(IntentOp::kMigrateStart, from_slot, t->task.rm_id, to_slot);
  const Status st = capture(*t);
  if (!ok(st)) return st;
  if (!ok(prepare_slot(*t, to_slot))) return Status::kOk;
  engine_->note_migration(t->id, t->slot, to_slot);
  t->slot = to_slot;
  restore(*t);
  intent(IntentOp::kMigrateDone, to_slot, t->task.rm_id, from_slot);
  return Status::kOk;
}

Status SlotScheduler::acquire_span(u32 class_id, u32 len, bool allow_compaction,
                                   std::vector<u32>* regions) {
  if (engine_ == nullptr) return Status::kInternal;
  fabric::FabricAllocator& alloc = engine_->allocator();
  sync_allocator();

  auto grant = [&](const std::vector<u32>& span) {
    for (u32 r : span) alloc.reserve(r, ~u64{0});
    engine_->note_span_grant(class_id, span.front(),
                             static_cast<u32>(span.size()));
    if (regions != nullptr) *regions = span;
    return Status::kOk;
  };

  if (auto span = alloc.find_free_span(class_id, len)) return grant(*span);
  if (!allow_compaction) {
    engine_->note_span_reject(class_id);
    return Status::kNoSpace;
  }

  // Fragmented: migrate the fewest residents that clear a window,
  // reusing the capture/restore path so each survives bit-identically.
  std::vector<u32> window;
  auto plan = alloc.plan_compaction(class_id, len, &window);
  if (!plan.has_value()) {
    engine_->note_span_reject(class_id);
    return Status::kNoSpace;
  }
  for (const fabric::FabricAllocator::Migration& m : *plan) {
    const Status st = migrate_region(m.from, m.to);
    if (!ok(st)) {
      engine_->note_span_reject(class_id);
      return st;
    }
  }
  engine_->note_compaction(class_id, plan->size(), len);
  sync_allocator();
  if (auto span = alloc.find_free_span(class_id, len)) return grant(*span);
  engine_->note_span_reject(class_id);
  return Status::kNoSpace;
}

Status SlotScheduler::release_span(std::span<const u32> regions) {
  if (engine_ == nullptr) return Status::kInternal;
  if (regions.empty()) return Status::kInvalidArgument;
  fabric::FabricAllocator& alloc = engine_->allocator();
  for (u32 r : regions) {
    if (alloc.state(r) != fabric::RegionState::kReserved) {
      return Status::kInvalidArgument;
    }
  }
  for (u32 r : regions) alloc.release(r);
  engine_->note_span_release(alloc.class_of(regions.front()), regions.front(),
                             static_cast<u32>(regions.size()));
  return Status::kOk;
}

Status SlotScheduler::preempt_slot(u32 slot) {
  if (slot >= slots_.size()) return Status::kInvalidArgument;
  TaskRecord* t = find(resident_[slot]);
  if (t == nullptr || t->state != TaskState::kRunning) {
    return Status::kNotFound;
  }
  return capture(*t);
}

}  // namespace rvcap::driver
