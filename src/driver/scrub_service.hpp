// Continuous frame-ECC scrub engine — background SEU mitigation.
//
// The ScrubService keeps a SoC alive under a continuous upset process:
// it walks every watched partition frame by frame at a configurable
// duty cycle, reads each frame back through the ICAP and runs the
// driver's one frame-ECC check on it (driver/frame_check.hpp): the
// SECDED syndrome, computed in software over the captured buffer,
// against the check word the fabric recorded at configuration time.
// DprManager's post-recovery verify runs the same check over a whole
// partition.
//
// Verdict handling per frame:
//   clean          -> next frame;
//   correctable    -> the syndrome localizes the flipped bit: rewrite
//                     ONLY the affected frame (driver write_frame — a
//                     minimal WCFG pass), then re-read and verify the
//                     syndrome is clean before counting the repair;
//   uncorrectable  -> multi-bit damage (or a failed rewrite, or damage
//                     in the manifest-carrying base frame): fall back
//                     to a full-partition reload, submitted as a
//                     background client of the ReconfigService queue
//                     so admission control, watchdog and recovery all
//                     apply to the repair path too.
//
// The service is a polite background citizen: before every frame it
// yields — any request already queued on the ReconfigService (user
// reconfigurations outrank background repair) is dispatched first. A
// completed pass raises the PLIC scrub-complete interrupt; transport
// errors and failed repairs raise scrub-error. Both are level lines
// the supervisor lowers via ack_irqs().
//
// MTTD/MTTR accounting rides the ConfigMemory upset-observer feed
// (ground-truth injection times). Every Stats field, the pending-upset
// count and the mean MTTD/MTTR are registered scrub.* counters, so an
// external supervisor can watch configuration-memory health over the
// PerfRegs window.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "driver/reconfig_service.hpp"
#include "driver/rvcap_driver.hpp"
#include "fabric/config_memory.hpp"
#include "irq/plic.hpp"
#include "obs/observability.hpp"

namespace rvcap::driver {

class ScrubService {
 public:
  /// client_id the service stamps on its reload requests.
  static constexpr u32 kClientId = 0xC5;

  struct Config {
    Addr cmd_staging = 0;       // scratch DDR for command sequences
    Addr rb_buffer = 0;         // DDR buffer readbacks land in
    u32 frames_per_slice = 8;   // duty cycle: frames scrubbed per step()
  };

  /// A partition under scrub. `module` names the DprManager module to
  /// reload on uncorrectable damage; empty = no reload source (the
  /// service can still detect and rewrite single-bit upsets).
  struct Watch {
    usize handle = 0;
    std::string module;
  };

  struct Stats {
    u64 passes = 0;            // completed partition traversals
    u64 frames_scrubbed = 0;
    u64 detections = 0;        // frames with a non-clean syndrome
    u64 correctable = 0;
    u64 uncorrectable = 0;
    u64 essential = 0;         // correctable upsets in the essential mask
    u64 benign = 0;
    u64 frame_rewrites = 0;    // verified single-frame repairs
    u64 partition_reloads = 0; // escalations to the ReconfigService
    u64 rewrite_verify_failures = 0;
    u64 reload_failures = 0;
    u64 transport_errors = 0;
    u64 yields = 0;            // foreground requests dispatched first
    u64 done_irqs = 0;
    u64 error_irqs = 0;
    // ---- ground-truth upset accounting (observer feed) ----
    u64 upsets_seen = 0;
    u64 upsets_detected = 0;
    u64 upsets_repaired = 0;
    u64 upsets_self_cancelled = 0;  // same bit hit twice, cancelled out
    u64 mttd_cycles_total = 0;
    u64 mttr_cycles_total = 0;
    u64 last_pass_frames_per_sec = 0;
  };

  ScrubService(RvCapDriver& drv, fabric::ConfigMemory& mem,
               ReconfigService& svc, const Config& cfg);

  /// Add a partition to the scrub rotation.
  void watch_partition(usize handle, std::string module = {});

  /// Connect the scrub-complete / scrub-error PLIC lines.
  void set_irqs(irq::IrqLine done, irq::IrqLine error);
  /// Lower both interrupt lines (supervisor ack after claim/complete).
  void ack_irqs();

  /// Register this service as the ConfigMemory upset observer so every
  /// landed injection is timestamped for MTTD/MTTR.
  void install_upset_feed();

  /// Scrub one duty-cycle slice (frames_per_slice frames), yielding to
  /// queued reconfiguration requests between frames. Errors raise the
  /// scrub-error IRQ and return the transport/repair status.
  Status step();
  /// step() until one full pass over every watched partition finishes.
  Status scrub_pass();

  const Stats& stats() const { return stats_; }

  /// Persistent intent journal: reload escalations append kScrubReload
  /// before touching the ReconfigService and kScrubReloadDone once the
  /// partition verifies loaded again, so a power loss mid-repair leaves
  /// an open intent a cold reboot re-stages. nullptr detaches.
  void attach_intent_journal(RecoveryJournal* j) { intent_ = j; }

  /// Injected-and-unrepaired upsets the service knows about.
  u64 pending_upsets() const { return pending_.size(); }
  u64 pending_essential() const;
  /// Age (core cycles) of the oldest unrepaired upset; 0 when none.
  u64 max_pending_age(u64 now_cycles) const;

  double mean_mttd_cycles() const {
    return stats_.upsets_detected == 0
               ? 0.0
               : static_cast<double>(stats_.mttd_cycles_total) /
                     static_cast<double>(stats_.upsets_detected);
  }
  double mean_mttr_cycles() const {
    return stats_.upsets_repaired == 0
               ? 0.0
               : static_cast<double>(stats_.mttr_cycles_total) /
                     static_cast<double>(stats_.upsets_repaired);
  }

 private:
  struct PendingUpset {
    u32 far = 0;
    u64 injected_at = 0;
    u64 detected_at = 0;  // 0 = not yet observed by a scrub read
    bool essential = false;
  };

  u64 now() { return drv_.cpu_context().now(); }
  Status read_frame(const fabric::FrameAddr& fa, std::vector<u32>* out);
  Status scrub_frame(const Watch& w);
  Status escalate_reload(const Watch& w);
  void yield_to_queue();
  void finish_pass();
  void raise_done();
  void raise_error();
  /// One event per non-clean frame verdict (kScrubRewrite,
  /// kScrubRewriteFail, kScrubReload or kScrubReadFail), in scrub order.
  void verdict(obs::EventKind kind, const fabric::FrameAddr& fa,
               fabric::EccClass cls, u32 word, u32 bit, bool essential);
  void intent(IntentOp op, const Watch& w);
  void note_detected(PendingUpset& p, u64 t);
  void mark_detected(u32 far, u64 t);
  /// Close every pending upset `repaired` accepts as repaired at `t`.
  void resolve_if(const std::function<bool(const PendingUpset&)>& repaired,
                  u64 t);
  void resolve_repaired(u32 far, u64 t);
  void resolve_partition(usize handle, u64 t);
  void resolve_clean(u32 far, u64 t);

  RvCapDriver& drv_;
  fabric::ConfigMemory& mem_;
  ReconfigService& svc_;
  Config cfg_;
  RecoveryJournal* intent_ = nullptr;
  std::vector<Watch> watches_;
  std::vector<std::vector<fabric::FrameAddr>> addrs_;  // per watch
  std::vector<PendingUpset> pending_;
  Stats stats_;
  irq::IrqLine irq_done_;
  irq::IrqLine irq_error_;
  usize cur_watch_ = 0;
  usize cur_frame_ = 0;
  u64 pass_start_ = 0;  // cycle the current pass began

  // Observability (bound to the CPU's simulator at construction).
  TraceSource trace_;
  obs::Histogram* mttd_cycles_ = nullptr;  // inject -> syndrome hit
  obs::Histogram* mttr_cycles_ = nullptr;  // inject -> fabric clean
};

}  // namespace rvcap::driver
