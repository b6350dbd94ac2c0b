// Deadline-aware reconfiguration service — the event-driven server
// layered on the DprManager.
//
// Applications do not call activate() directly on a shared RP: they
// submit asynchronous ActivationRequests {module, priority, deadline,
// client} into a bounded priority queue and the service drives the
// self-healing pipeline (PR 1) one request at a time through the
// non-blocking IRQ path. Three robustness layers ride on the queue:
//
//  * Admission control — before a request is even queued, the staged
//    bitstream is parsed offline (bitstream::preflight_check): bad sync
//    framing, a wrong device IDCODE or frame addresses outside the
//    target RP's floorplan reject the request before a single ICAP
//    word is written, and the module lands on a quarantine list so a
//    repeat submission fails fast without re-staging.
//
//  * Watchdog hang detection — the service installs its StallWatchdog
//    on the RV-CAP driver: during a DMA transfer the watchdog probes the
//    engine's progress counter on a CLINT-paced interval, and a counter
//    frozen across kStallPolls consecutive probes is declared a hang
//    (distinct from a bounded-iteration timeout, which a slow-but-moving
//    transfer also hits). A kSvcHang event carries the diagnosis
//    (outstanding and expected beats, frozen polls) and the wait aborts
//    with Status::kHang, which flows into the DprManager's recovery
//    state machine (cleanup, blank, retry). The HWICAP fallback is
//    bounded by its iteration timeout.
//
//  * Graceful degradation — at saturation the lowest-priority queued
//    request is shed with Status::kRejected rather than blocking the
//    queue; duplicate requests for the same module coalesce (the
//    surviving entry inherits the higher priority and the tighter
//    deadline); requests whose deadline has already passed complete
//    with kDeadlineMissed without touching the hardware; clients can
//    cancel while queued.
//
// Every Stats field and the live queue depth are registered counters
// named service.slot<N>.<field>, readable over the PerfRegs window.
#pragma once

#include <string>
#include <vector>

#include "driver/dpr_manager.hpp"
#include "driver/primitives.hpp"
#include "obs/observability.hpp"

namespace rvcap::driver {

class ReconfigService {
 public:
  using RequestId = u64;

  struct Config {
    usize queue_capacity = 8;
    u32 slot_id = 0;  // RP slot served; tags journal records + counters
  };

  /// A client's asynchronous activation request.
  struct ActivationRequest {
    std::string module;     // DprManager module name
    u32 priority = 0;       // higher wins
    u64 deadline_mtime = 0; // absolute CLINT deadline; 0 = none
    u32 client_id = 0;
    bool force = false;     // rewrite even if already active (scrub
                            // repair of a loaded-but-damaged partition)
  };

  /// Request lifecycle (terminal states carry the matching Status).
  enum class RequestState : u8 {
    kQueued,          // admitted, waiting for dispatch
    kActive,          // activation in flight
    kCompleted,       // terminal: activate() returned kOk
    kFailed,          // terminal: activate() failed (status says why)
    kShed,            // terminal: evicted by a higher-priority arrival
    kRejected,        // terminal: refused at admission
    kCancelled,       // terminal: client withdrew it while queued
    kDeadlineMissed,  // terminal: deadline passed before dispatch
    kCoalesced,       // terminal: merged into an earlier queued request
  };

  struct RequestRecord {
    RequestId id = 0;
    ActivationRequest req;
    RequestState state = RequestState::kQueued;
    Status status = Status::kOk;    // meaningful once terminal
    RequestId merged_into = 0;      // for kCoalesced
    u64 submit_mtime = 0;
    u64 start_mtime = 0;            // dispatch began (0 = never started)
    u64 done_mtime = 0;             // terminal timestamp
  };

  struct Stats {
    u64 submitted = 0;
    u64 accepted = 0;
    u64 completed = 0;
    u64 failed = 0;
    u64 shed = 0;               // queued entries evicted at saturation
    u64 rejected_full = 0;      // arrivals refused at saturation
    u64 deadline_missed = 0;
    u64 cancelled = 0;
    u64 coalesced = 0;
    u64 quarantine_rejects = 0; // fast-fail resubmits of quarantined RMs
    u64 preflight_rejects = 0;  // images failing admission parsing
    u64 hangs = 0;              // watchdog-declared wedged transfers
    u64 max_queue_depth = 0;
  };

  ReconfigService(DprManager& mgr, const Config& cfg);
  explicit ReconfigService(DprManager& mgr)
      : ReconfigService(mgr, Config{}) {}
  // Pinned in memory: the watchdog's trip hook captures `this`.
  ReconfigService(const ReconfigService&) = delete;
  ReconfigService& operator=(const ReconfigService&) = delete;

  /// Admission control. On kOk the request is queued and *id names it.
  /// Rejections: kNotFound (unknown module), kQuarantined (failed
  /// preflight before), kDeadlineMissed (already expired),
  /// kRejected (preflight failure or saturated queue).
  Status submit(const ActivationRequest& req, RequestId* id = nullptr);

  /// Withdraw a queued request. kNotFound for unknown ids; kDeviceBusy
  /// when it is already active; kInvalidArgument when already terminal.
  Status cancel(RequestId id);

  /// Dispatch the best queued request (highest priority, then tighter
  /// deadline, then FIFO). Returns false when the queue is empty.
  bool step();
  /// step() until the queue drains; returns requests dispatched.
  usize drain();

  usize queue_depth() const;
  bool quarantined(std::string_view module) const;

  const RequestRecord* record(RequestId id) const;
  const std::vector<RequestRecord>& history() const { return records_; }
  const Stats& stats() const { return stats_; }

  /// Persistent intent journal: admitted requests append kSvcPending
  /// (flags = priority, arg0 = deadline slack in CLINT ticks) and every
  /// terminal transition appends kSvcDone, so a cold reboot can replay
  /// still-pending work or shed it by deadline. nullptr detaches.
  void attach_intent_journal(RecoveryJournal* j) { intent_ = j; }

 private:
  RequestRecord* find(RequestId id) {
    return const_cast<RequestRecord*>(record(id));
  }
  RequestRecord* best_queued();
  void finish(RequestRecord& r, RequestState state, Status status);
  Status preflight(const ActivationRequest& req);
  void intent(IntentOp op, const RequestRecord& r);
  void on_hang(const TransferProgress& p, u64 expected_beats,
               u32 stalled_polls);

  DprManager& mgr_;
  Config cfg_;
  RecoveryJournal* intent_ = nullptr;
  std::vector<RequestRecord> records_;   // append-only; queue lives here
  std::vector<std::string> quarantine_;
  Stats stats_;
  RequestId next_id_ = 1;
  RequestId active_ = 0;  // request currently dispatched (0 = none)
  StallWatchdog watchdog_;

  // Observability (bound to the CPU's simulator at construction).
  TraceSource trace_;
  obs::Histogram* wait_ticks_ = nullptr;    // submit -> dispatch, mtime
  obs::Histogram* active_ticks_ = nullptr;  // dispatch -> terminal, mtime
};

}  // namespace rvcap::driver
