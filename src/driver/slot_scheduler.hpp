// Slot scheduler — multi-RP serving with preemptive capture/restore.
//
// A client layer above per-slot {DprManager, ReconfigService} stacks:
// applications submit hardware tasks (module + data stream + priority +
// deadline); the scheduler places them across the SoC's reconfigurable
// slots, streams their data in chunks, and — when a higher-priority
// task needs a slot — preempts the resident module GCAPTURE-style: the
// partition's frames are read back to a DDR capture area, the module's
// architectural state is serialized, and both are sealed under a CRC
// digest. Resuming re-verifies the digest, rebuilds a loadable
// bitstream from the captured image, reconfigures the SAME slot (frame
// addresses are absolute), and reinstates the serialized state — the
// task continues bit-identically.
//
// Fail-safe swap recovery: any verification failure — torn capture
// image, frames gone stale under the scrub service, a capture taken
// while the partition carried an essential upset, a wedged restore
// transfer — rolls the task back to a full reload from its golden
// staged bitstream and restarts it from byte 0. Degraded throughput,
// never corrupted output. A wedged swap transfer is fenced by the
// stall watchdog and becomes a diagnosed kHang (the slot's
// DprManager recovery machine then retries), not silent corruption.
// Oversubscription sheds priority-safely: only a strictly
// lower-effective-priority entry is evicted, and queued tasks age
// (priority + waiting-time credit) so low-priority work cannot starve.
//
// Relocation-aware placement (PR 8): with a PlacementEngine attached,
// tasks request a compatibility CLASS rather than a slot — best-first
// placement picks any free compatible region, materializing a
// relocated bitstream variant on demand, preempted tasks may resume in
// a DIFFERENT compatible slot (the capture image is rebuilt against
// the destination partition), and acquire_span() serves wide-footprint
// requests, running a compaction pass (capture/restore migrations of
// residents) when fragmentation would otherwise starve them. Without
// an engine the scheduler behaves exactly as before.
#pragma once

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "accel/rm_slot.hpp"
#include "driver/reconfig_service.hpp"

namespace rvcap::driver {

class PlacementEngine;

class SlotScheduler {
 public:
  using TaskId = u64;
  static constexpr u32 kNoSlot = ~u32{0};
  static constexpr u32 kNoArea = ~u32{0};
  static constexpr u32 kNoRegion = ~u32{0};

  /// One reconfigurable slot's full software stack. All pointers must
  /// outlive the scheduler; `manager`/`service` are the slot's own
  /// (slot-bound Config::slot_id) instances.
  struct SlotBinding {
    u32 slot_id = 0;
    ReconfigService* service = nullptr;
    DprManager* manager = nullptr;
    accel::RmSlot* rm = nullptr;
    fabric::ConfigMemory* cfg = nullptr;
    usize cfg_handle = 0;           // this slot's partition handle
    Addr cmd_staging = 0;           // readback command staging (DDR)
    /// FabricAllocator region this slot serves (engine mode only);
    /// kNoRegion defaults to slot_id — the ArianeSoc convention.
    u32 region = kNoRegion;
  };

  struct Config {
    usize queue_capacity = 8;
    u32 default_chunk_bytes = 4096;
    /// Anti-priority-inversion aging: a waiting task gains +1 effective
    /// priority per quantum of CLINT time since its last progress.
    u64 aging_quantum_mtime = 20'000;
    /// A task is abandoned (kFailed) after this many rollbacks.
    u32 max_rollbacks = 3;
    // ---- capture arena (DDR) ----
    Addr capture_arena = 0;         // base of the capture areas
    u32 capture_area_bytes = 1 << 20;
    u32 capture_areas = 8;
    Addr restore_staging = 0;       // rebuilt-restore-bitstream staging
  };

  /// A streaming hardware task: activate `module`, then push
  /// `total_bytes` from `src` through it to `dst` in chunks. Output is
  /// 1:1 with input for every case-study RM; `chunk_bytes` must respect
  /// the module's pipeline granularity (whole frames for the image
  /// filters — a mid-frame chunk would deadlock on the skew).
  struct HwTask {
    std::string module;
    u32 rm_id = 0;
    u32 priority = 0;        // higher wins
    u64 deadline_mtime = 0;  // absolute CLINT deadline; 0 = none
    u32 client_id = 0;
    Addr src = 0;
    Addr dst = 0;
    u32 total_bytes = 0;
    u32 chunk_bytes = 0;     // 0 = Config::default_chunk_bytes
    /// RM register writes applied on every fresh start (initial swap-in
    /// and after a rollback reload). Restores do NOT reapply them — the
    /// captured architectural state already carries the register file.
    std::vector<std::pair<u32, u32>> setup_regs;
  };

  enum class TaskState : u8 {
    kQueued,
    kRunning,         // resident in a slot, streaming chunks
    kPreempted,       // captured to DDR, waiting to resume
    kCompleted,       // terminal: all bytes streamed
    kFailed,          // terminal: unrecoverable (status says why)
    kShed,            // terminal: evicted at saturation
    kDeadlineMissed,  // terminal: expired while queued
  };

  struct TaskRecord {
    TaskId id = 0;
    HwTask task;
    TaskState state = TaskState::kQueued;
    Status status = Status::kOk;
    u32 bytes_done = 0;
    u32 chunks = 0;
    u32 preemptions = 0;
    u32 rollbacks = 0;
    u64 submit_mtime = 0;
    u64 start_mtime = 0;           // first dispatch (0 = never placed)
    u64 done_mtime = 0;
    u64 last_progress_mtime = 0;   // aging reference point
    u32 slot = kNoSlot;            // resident / captured slot
    // ---- capture record (meaningful in kPreempted) ----
    Addr capture_addr = 0;
    u32 capture_words = 0;
    u32 capture_digest = 0;
    bool capture_poisoned = false;  // essential upset outstanding
    u32 capture_area = kNoArea;
    std::vector<u8> behavior_blob;  // serialized architectural state
  };

  /// Why a restore was rolled back: a1 of the kSlotRollback trace event
  /// (source "slot_scheduler"). The codes are fixed, as the digest folds
  /// them.
  enum class RollbackReason : u8 {
    kDigest = 2,     // capture image failed its re-CRC (torn)
    kStale = 3,      // frames rewritten since capture (scrub)
    kPoisoned = 4,   // captured under an essential upset
    kTransfer = 5,   // restore/stream transfer failed or hung
    kBehavior = 6,   // architectural-state blob rejected
  };

  struct Stats {
    u64 submitted = 0;
    u64 completed = 0;
    u64 failed = 0;
    u64 sheds = 0;
    u64 deadline_misses = 0;   // expired while queued (terminal)
    u64 late_completions = 0;  // finished past a non-zero deadline
    u64 chunks = 0;
    u64 preemptions = 0;
    u64 captures = 0;
    u64 restores = 0;
    u64 rollbacks = 0;
    u64 torn_detected = 0;     // digest mismatches caught pre-restore
    u64 stale_detected = 0;    // stale-frame hazards caught pre-restore
    u64 poisoned_detected = 0; // poisoned captures refused at restore
    u64 swap_hangs = 0;        // watchdog hangs during swap transfers
  };

  SlotScheduler(RvCapDriver& drv, const Config& cfg);

  /// Register a slot's stack. Slots must be added in slot-id order
  /// starting at 0 (binding index == RP-control slot window).
  u32 add_slot(const SlotBinding& b);
  usize num_slots() const { return slots_.size(); }

  void set_fault_injector(sim::FaultInjector* fi) { fault_ = fi; }

  /// Persistent intent journal: capture/restore/migration operations
  /// append begin/done pairs so a power loss mid-swap leaves an open
  /// intent for the cold-boot recovery manager. nullptr detaches.
  void attach_intent_journal(RecoveryJournal* j) { intent_ = j; }

  /// Attach the relocation-aware placement engine: tasks then request
  /// a compatibility class (any free compatible region hosts them, a
  /// relocated variant is materialized + registered on first landing),
  /// and the span/compaction API below becomes available. nullptr
  /// restores the legacy slot-bound behavior.
  void attach_placement(PlacementEngine* engine) { engine_ = engine; }
  PlacementEngine* placement() { return engine_; }

  /// Wide-footprint serving: reserve `len` pairwise-adjacent free
  /// regions of `class_id`. When fragmentation defeats the request and
  /// `allow_compaction` is set, a compaction pass migrates running
  /// residents (capture/restore) out of the cheapest window first.
  /// Reserved regions are skipped by task placement until released.
  Status acquire_span(u32 class_id, u32 len, bool allow_compaction,
                      std::vector<u32>* regions);
  Status release_span(std::span<const u32> regions);

  /// Re-derive allocator free/busy state from slot residency (span and
  /// telemetry refresh; reservations are never touched).
  void sync_allocator();

  /// Admission. At saturation the lowest-effective-priority queued
  /// entry is shed iff the arrival strictly outranks it; otherwise the
  /// arrival itself is refused (kRejected) — priority-safe shedding.
  Status submit(const HwTask& task, TaskId* id = nullptr);

  /// One scheduling decision: age the queue, expire dead entries, pick
  /// the globally best task, make it resident (preempting if it
  /// strictly outranks the victim), and stream one chunk. Returns
  /// false when no task can make progress.
  bool step();
  /// step() until no task can make progress; returns chunks streamed.
  usize drain();

  /// Force-capture a slot's resident task (test/bench preemption
  /// injection). kNotFound when the slot has no resident.
  Status preempt_slot(u32 slot);

  TaskId resident(u32 slot) const {
    return slot < resident_.size() ? resident_[slot] : 0;
  }
  const TaskRecord* task(TaskId id) const;
  const std::vector<TaskRecord>& tasks() const { return tasks_; }

  const Stats& stats() const { return stats_; }
  /// Tasks admitted and waiting for their first placement.
  usize queue_depth() const {
    return static_cast<usize>(std::count_if(
        tasks_.begin(), tasks_.end(),
        [](const TaskRecord& t) { return t.state == TaskState::kQueued; }));
  }

 private:
  TaskRecord* find(TaskId id) { return const_cast<TaskRecord*>(task(id)); }
  u64 eff_priority(const TaskRecord& t, u64 now) const;
  TaskRecord* pick_best(u64 now);
  TaskRecord* best_resident(u64 now);
  void expire_queued(u64 now);
  bool ensure_resident(TaskRecord& t, u64 now);
  /// True when a preempted task other than `t` is parked on `slot` and
  /// owns it for its eventual restore: `t` does not outrank it.
  bool parked_owner(u32 slot, const TaskRecord& t, u64 now) const;
  /// True when `slot` may host `t`: module registered there, or (engine
  /// mode) the slot's region is compatible and not span-reserved.
  bool slot_eligible(u32 slot, const TaskRecord& t);
  /// Engine mode: materialize the task's image for the slot's region
  /// and register it with the slot's manager (idempotent).
  Status prepare_slot(TaskRecord& t, u32 slot);
  bool region_reserved(u32 slot) const;
  u32 slot_of_region(u32 region) const;
  /// Compaction step: capture the resident of `from_region`'s slot and
  /// restore it into `to_region`'s slot. The source region is vacated
  /// as long as the capture succeeds (a failed re-place parks the task
  /// for a later resume elsewhere).
  Status migrate_region(u32 from_region, u32 to_region);
  Status capture(TaskRecord& victim);
  /// Verified restore; falls back to rollback() on any failure. After
  /// a successful return the task is kRunning (or terminal kFailed).
  void restore(TaskRecord& t);
  void rollback(TaskRecord& t, RollbackReason reason, Status cause);
  /// Golden-bitstream activation of `t` into `slot` via the slot's
  /// service (force-rewrite, so the RM always starts from reset).
  Status swap_in(TaskRecord& t, u32 slot);
  void run_chunk(TaskRecord& t);
  void apply_setup_regs(TaskRecord& t);
  void finish(TaskRecord& t, TaskState state, Status status);
  void release_area(TaskRecord& t);
  u32 claim_area();
  u32 image_crc(Addr addr, u32 words, std::span<const u8> blob);
  /// The firmware stamps every swap event with a CLINT mtime read; its
  /// bus time is charged right after the event is recorded.
  void stamp_event() { (void)drv_.mtime(); }
  void settle();
  void intent(IntentOp op, u32 slot, u32 rm_id, u32 arg0 = 0);

  RvCapDriver& drv_;
  Config cfg_;
  sim::FaultInjector* fault_ = nullptr;
  RecoveryJournal* intent_ = nullptr;
  PlacementEngine* engine_ = nullptr;
  std::vector<SlotBinding> slots_;
  std::vector<TaskId> resident_;      // 0 = vacant
  std::vector<bool> area_used_;
  std::vector<TaskRecord> tasks_;     // append-only; id = index + 1
  Stats stats_;
  StallWatchdog watchdog_{"slot_scheduler"};  // swap-transfer fence

  // Observability.
  TraceSource trace_;
};

}  // namespace rvcap::driver
