#include "driver/recovery_manager.hpp"

#include <algorithm>
#include <iterator>
#include <string_view>

#include "cpu/cpu.hpp"

namespace rvcap::driver {

namespace {

/// Ops that open a slot-scoped fabric-write intent.
bool is_begin(IntentOp op) {
  return op == IntentOp::kReconfigStart || op == IntentOp::kSlotRestore ||
         op == IntentOp::kScrubReload;
}

/// Ops that close whatever intent is open on the same slot. A
/// kReconfigCommit closes ANY open begin there: a committed full
/// reconfiguration supersedes an interrupted restore or scrub reload
/// (the rollback path re-activates from the golden image, which lands
/// as start/commit after the orphaned restore intent).
bool is_close(IntentOp op) {
  return op == IntentOp::kReconfigCommit || op == IntentOp::kReconfigAbort ||
         op == IntentOp::kSlotRestoreDone || op == IntentOp::kScrubReloadDone;
}

/// Ops that leave the slot in a known-good configured state carrying
/// the record's rm_id.
bool is_good_close(IntentOp op) {
  return op == IntentOp::kReconfigCommit ||
         op == IntentOp::kSlotRestoreDone || op == IntentOp::kScrubReloadDone;
}

/// Registry names of the report facts recover() counts, in order.
constexpr std::string_view kReportNames[] = {
    "recovery.boot_epoch",    "recovery.records",
    "recovery.torn_tail",     "recovery.corrupt",
    "recovery.slots_clean",   "recovery.slots_interrupted",
    "recovery.slots_unknown", "recovery.golden_reloads",
    "recovery.quarantined",   "recovery.replayed",
    "recovery.shed",          "recovery.ready_cycles",
    "recovery.verified",      "recovery.precrash_failures"};

}  // namespace

RecoveryManager::RecoveryManager(cpu::CpuContext& cpu,
                                 RecoveryJournal& journal)
    : cpu_(cpu), journal_(journal) {
  obs::Observability& o = cpu_.simulator().obs();
  trace_ = TraceSource(cpu_, "recovery_manager");
  // Registry-owned: the report outlives this manager, which a harness
  // may destroy before the SoC.
  for (std::string_view name : kReportNames) {
    report_counters_.push_back(o.counters().counter(name));
  }
}

void RecoveryManager::add_slot(u32 slot, DprManager* mgr,
                               ReconfigService* svc) {
  slots_.push_back(SlotBinding{slot, mgr, svc});
}

const RecoveryManager::SlotBinding* RecoveryManager::binding(u32 slot) const {
  for (const SlotBinding& b : slots_) {
    if (b.slot == slot) return &b;
  }
  return nullptr;
}

RecoveryManager::PrecrashFailure RecoveryManager::decode_failure(
    const IntentRecord& rec) {
  PrecrashFailure f;
  f.mtime = rec.mtime;
  f.slot = rec.slot;
  f.rm_id = rec.rm_id;
  f.stage = static_cast<FailStage>(rec.arg0 >> 24);
  f.status = static_cast<Status>((rec.arg0 >> 16) & 0xFF);
  f.attempt = rec.arg0 & 0xFFFF;
  return f;
}

void RecoveryManager::classify_slots(std::vector<SlotReport>* out) const {
  for (const SlotBinding& b : slots_) {
    SlotReport sr;
    sr.slot = b.slot;
    // Walk the intent stream in seq order, tracking the newest open
    // begin and the newest known-good configuration for this slot.
    bool open = false;
    u32 open_rm = 0;
    u32 good_rm = 0;
    for (const IntentRecord& r : journal_.records()) {
      if (r.slot != b.slot) continue;
      if (is_begin(r.op)) {
        open = true;
        open_rm = r.rm_id;
      } else if (is_close(r.op)) {
        open = false;
        // An abort leaves the partition deliberately blanked and
        // decoupled — a known state with nothing to reload.
        good_rm = is_good_close(r.op) ? r.rm_id : 0;
      }
    }
    if (open) {
      sr.verdict = SlotVerdict::kInterrupted;
      sr.rm_id = open_rm != 0 ? open_rm : good_rm;
    } else if (good_rm != 0) {
      sr.verdict = SlotVerdict::kClean;
      sr.rm_id = good_rm;
    } else {
      sr.verdict = SlotVerdict::kUnknown;
      sr.rm_id = 0;
    }
    out->push_back(sr);
  }
}

bool RecoveryManager::crash_looping(u32 rm_id) const {
  if (rm_id == 0) return false;
  // Split the pre-boot-mark record stream into boot epochs and count
  // how many consecutive TRAILING epochs end with an unmatched
  // kReconfigStart for this rm. Each such epoch is one boot that died
  // (or gave out) while this image was mid-activation.
  u32 consecutive = 0;
  bool open = false;
  std::vector<bool> epoch_open;  // oldest epoch first
  const auto& recs = journal_.records();
  const usize end = std::min(scan_len_, recs.size());
  for (usize i = 0; i < end; ++i) {
    const IntentRecord& r = recs[i];
    if (r.op == IntentOp::kBootMark) {
      epoch_open.push_back(open);
      open = false;
      continue;
    }
    if (r.rm_id != rm_id) continue;
    if (r.op == IntentOp::kReconfigStart) open = true;
    if (r.op == IntentOp::kReconfigCommit ||
        r.op == IntentOp::kReconfigAbort) {
      open = false;
    }
  }
  epoch_open.push_back(open);  // the pre-crash trailing segment
  for (auto it = epoch_open.rbegin(); it != epoch_open.rend(); ++it) {
    if (!*it) break;
    ++consecutive;
  }
  return consecutive >= kCrashLoopThreshold;
}

void RecoveryManager::replay_pending(u64 crash_mtime, Report* rep) {
  // Pair kSvcPending / kSvcDone oldest-first per (slot, rm): the
  // unmatched tail is the work the crash left queued or in flight.
  struct Key {
    u16 slot;
    u32 rm;
    bool operator==(const Key&) const = default;
  };
  std::vector<Key> keys;
  // Copies, not pointers: resubmitting a request journals new intents,
  // and the append can reallocate the record vector under us.
  std::vector<std::vector<IntentRecord>> pendings;
  std::vector<u32> dones;
  auto index_of = [&](u16 slot, u32 rm) {
    const Key k{slot, rm};
    for (usize i = 0; i < keys.size(); ++i) {
      if (keys[i] == k) return i;
    }
    keys.push_back(k);
    pendings.emplace_back();
    dones.push_back(0);
    return keys.size() - 1;
  };
  const auto& recs = journal_.records();
  const usize end = std::min(scan_len_, recs.size());
  for (usize i = 0; i < end; ++i) {
    const IntentRecord& r = recs[i];
    if (r.op == IntentOp::kSvcPending) {
      pendings[index_of(r.slot, r.rm_id)].push_back(r);
    } else if (r.op == IntentOp::kSvcDone) {
      ++dones[index_of(r.slot, r.rm_id)];
    }
  }

  for (usize i = 0; i < keys.size(); ++i) {
    const usize matched = std::min<usize>(dones[i], pendings[i].size());
    for (usize j = matched; j < pendings[i].size(); ++j) {
      const IntentRecord& p = pendings[i][j];
      const SlotBinding* b = binding(p.slot);
      const std::string module =
          b != nullptr ? b->mgr->module_for_rm(p.rm_id) : std::string{};
      u64 remaining = 0;
      bool expired = false;
      if (p.arg0 != 0) {
        const u64 deadline = p.mtime + p.arg0;
        expired = deadline <= crash_mtime;
        remaining = expired ? 0 : deadline - crash_mtime;
      }
      if (b == nullptr || module.empty() || expired ||
          crash_looping(p.rm_id)) {
        ++rep->shed_requests;
        trace_.emit(obs::EventKind::kRecovShed, p.rm_id);
        continue;
      }
      ReconfigService::ActivationRequest req;
      req.module = module;
      req.priority = p.flags;
      req.deadline_mtime =
          p.arg0 != 0 ? b->mgr->driver().mtime() + remaining : 0;
      req.client_id = kClientId;
      if (ok(b->svc->submit(req))) {
        b->svc->drain();
        ++rep->replayed_requests;
        trace_.emit(obs::EventKind::kRecovReplay, p.rm_id, remaining);
      } else {
        ++rep->shed_requests;
        trace_.emit(obs::EventKind::kRecovShed, p.rm_id);
      }
    }
  }
}

Status RecoveryManager::recover(Report* out) {
  const Cycles start = cpu_.now();
  report_ = Report{};
  Report& rep = report_;

  // 1. Replay whatever the outage left on the card.
  if (!journal_.replayed()) {
    if (auto st = journal_.replay(&rep.journal); !ok(st)) return st;
  }
  u64 crash_mtime = 0;
  u32 boot_marks = 0;
  u32 failure_notes = 0;
  for (const IntentRecord& r : journal_.records()) {
    crash_mtime = std::max(crash_mtime, r.mtime);
    if (r.op == IntentOp::kBootMark) ++boot_marks;
    if (r.op == IntentOp::kFailureNote) {
      rep.precrash_failures.push_back(decode_failure(r));
      ++failure_notes;
    }
  }
  rep.journal.valid_records =
      static_cast<u32>(journal_.records().size());
  rep.boot_epoch = boot_marks + 1;
  scan_len_ = journal_.records().size();

  // 2. Classify every slot from the pre-crash stream (before the new
  // boot mark and the recovery's own appends dilute it).
  classify_slots(&rep.slots);
  u32 open_intents = 0;
  for (const SlotReport& s : rep.slots) {
    if (s.verdict == SlotVerdict::kInterrupted) ++open_intents;
  }
  trace_.emit(obs::EventKind::kRecovBootScan, rep.journal.valid_records,
              open_intents);

  IntentRecord boot;
  boot.op = IntentOp::kBootMark;
  boot.arg0 = rep.boot_epoch;
  if (!slots_.empty()) boot.mtime = slots_.front().mgr->driver().mtime();
  (void)journal_.append(boot);

  // 3/4. Golden-reload each slot's target through the normal
  // self-healing activate() path, quarantining crash-looping images.
  u32 verified_slots = 0;
  for (SlotReport& s : rep.slots) {
    trace_.emit(obs::EventKind::kRecovSlotVerdict, s.slot,
                static_cast<u64>(s.verdict));
    const SlotBinding* b = binding(s.slot);
    if (s.rm_id == 0 || b == nullptr) {
      // Nothing was (or should be) configured there: a blank slot is a
      // known state.
      s.verified = true;
      ++verified_slots;
      continue;
    }
    if (crash_looping(s.rm_id)) {
      s.quarantined = true;
      ++rep.quarantined;
      IntentRecord q;
      q.op = IntentOp::kQuarantine;
      q.slot = static_cast<u16>(s.slot);
      q.rm_id = s.rm_id;
      q.mtime = b->mgr->driver().mtime();
      q.arg0 = kCrashLoopThreshold;
      (void)journal_.append(q);
      trace_.emit(obs::EventKind::kRecovQuarantine, s.rm_id,
                  kCrashLoopThreshold);
      // Deliberately-not-loaded is a safe, known state: the slot stays
      // blank instead of crash-looping the boot path.
      s.verified = true;
      ++verified_slots;
      continue;
    }
    const std::string module = b->mgr->module_for_rm(s.rm_id);
    if (module.empty()) {
      s.reload = Status::kNotFound;
      continue;
    }
    // force: the SRAM fabric is blank no matter what any rebuilt
    // tracker believes — rewrite every frame from the golden image.
    s.reload = b->mgr->activate(module, DmaMode::kInterrupt, /*force=*/true);
    // Belt-and-braces on top of the self-healing verify: re-check the
    // reloaded module name against the manager.
    s.verified = ok(s.reload) && b->mgr->active_module() == module;
    if (s.verified) {
      ++rep.golden_reloads;
      ++verified_slots;
      trace_.emit(obs::EventKind::kRecovGoldenReload, s.slot, s.rm_id);
    }
  }
  rep.all_verified = verified_slots == rep.slots.size();

  // 5. Pending requests: replay what still has slack, shed the rest.
  replay_pending(crash_mtime, &rep);

  IntentRecord done;
  done.op = IntentOp::kRecoveryDone;
  done.flags = rep.all_verified ? 1 : 0;
  done.arg0 = verified_slots;
  if (!slots_.empty()) done.mtime = slots_.front().mgr->driver().mtime();
  (void)journal_.append(done);

  rep.ready_cycles = cpu_.now() - start;
  trace_.emit(obs::EventKind::kRecovReady, verified_slots, rep.quarantined,
              rep.ready_cycles);
  u64 verdicts[3] = {};  // indexed by SlotVerdict
  for (const SlotReport& s : rep.slots) {
    ++verdicts[static_cast<usize>(s.verdict)];
  }
  const u64 facts[] = {rep.boot_epoch,
                       rep.journal.valid_records,
                       rep.journal.torn_tail_cells,
                       rep.journal.corrupt_records,
                       verdicts[static_cast<usize>(SlotVerdict::kClean)],
                       verdicts[static_cast<usize>(SlotVerdict::kInterrupted)],
                       verdicts[static_cast<usize>(SlotVerdict::kUnknown)],
                       rep.golden_reloads,
                       rep.quarantined,
                       rep.replayed_requests,
                       rep.shed_requests,
                       rep.ready_cycles,
                       rep.all_verified ? 1u : 0u,
                       rep.precrash_failures.size()};
  static_assert(std::size(facts) == std::size(kReportNames));
  for (usize i = 0; i < std::size(facts); ++i) {
    report_counters_[i]->add(facts[i]);
  }
  recovered_ = true;
  if (out != nullptr) *out = rep;
  return rep.all_verified ? Status::kOk : Status::kInternal;
}

}  // namespace rvcap::driver
