// DPR manager — runtime module management above the Listing-1 APIs.
//
// The paper's related work (ZyCAP's high-level interface, FOS) and its
// own outlook motivate a software layer that abstracts reconfiguration
// management: applications name modules; the manager keeps partial
// bitstreams staged in a DDR slot cache (loading from the FAT32 volume
// on a miss, LRU-evicting when full), skips reconfiguration when the
// requested module is already active, and accounts every cost.
//
// Self-healing activation (safe-DPR): activate() isolates the RP before
// touching the ICAP and only recouples it once a verified-good
// configuration is active. Each failed attempt runs the recovery state
// machine — DMA reset, datapath abort, partition blank — and retries up
// to a bounded budget, optionally degrading to the AXI_HWICAP fallback
// path; exhausted retries leave the RP decoupled over a blanked
// partition. Every stage reached is a kDprStage trace event of source
// "dpr.slot<N>".
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "driver/hwicap_driver.hpp"
#include "driver/primitives.hpp"
#include "driver/recovery_journal.hpp"
#include "driver/rvcap_driver.hpp"
#include "fabric/config_memory.hpp"
#include "sim/fault_injector.hpp"

namespace rvcap::driver {

class BitstreamSource;

/// Recovery pipeline stage a kDprStage event refers to.
enum class FailStage : u8 {
  kStaging,    // SD -> DDR load failed
  kStagedCrc,  // staged image failed its CRC-32 check
  kDma,        // RV-CAP DMA transfer errored or timed out
  kIcap,       // HWICAP fallback transfer failed
  kActivate,   // transfer "succeeded" but the partition did not activate
  kScrub,      // post-recovery readback verify failed
  kBlank,      // partition blanking pass failed
  kRecovered,  // activation succeeded after at least one failure
  kExhausted,  // retry budget spent; RP left decoupled and blanked
};

std::string_view to_string(FailStage s);

class DprManager {
 public:
  struct Config {
    Addr staging_base = soc::MemoryMap::kPbitStagingBase;
    u32 slot_bytes = 1 << 20;  // one staging slot per module, 1 MiB
    u32 num_slots = 4;
    /// RP slot this manager serves (0 = the case-study RP). Every
    /// driver access is bound to this slot's RP-control window, and
    /// the manager's trace source is "dpr.slot<slot_id>", so
    /// multi-slot failures attribute.
    u32 slot_id = 0;
  };

  /// Knobs of the self-healing activation flow. Every attempt CRCs
  /// the staged DDR image before the ICAP, and every failed attempt
  /// blanks the partition.
  struct RecoveryPolicy {
    u32 fallback_after_failures = 2;  // consecutive DMA-path failures
    bool scrub_after_recovery = false; // frame-ECC verify before recouple
  };
  static constexpr u32 kMaxAttempts = 3;  // total tries per activate()

  struct Stats {
    u64 activation_requests = 0;
    u64 reconfigurations = 0;      // actual DPR transfers performed
    u64 already_active_hits = 0;   // requests satisfied without DPR
    u64 staging_hits = 0;          // bitstream already in DDR
    u64 staging_loads = 0;         // SD -> DDR loads performed
    u64 evictions = 0;             // LRU slot reclaims
    u64 total_reconfig_ticks = 0;  // CLINT ticks spent in T_r
    // ---- recovery pipeline counters ----
    u64 staging_failures = 0;      // SD -> DDR load errors
    u64 staged_crc_failures = 0;   // DDR image CRC mismatches
    u64 dma_errors = 0;            // DMA transfer errors (SLVERR etc.)
    u64 dma_timeouts = 0;          // DMA transfer timeouts (stalls)
    u64 dma_hangs = 0;             // transfers aborted by a watchdog
    u64 config_failures = 0;       // transfer ok but partition inactive
    u64 scrub_failures = 0;        // post-recovery verify mismatches
    u64 recoveries = 0;            // activations that needed a retry
    u64 fallback_reconfigs = 0;    // transfers via the HWICAP path
    u64 blank_passes = 0;          // partition blanking transfers
    u64 retries_exhausted = 0;     // activations that gave up
    u64 scrub_verifies = 0;        // post-recovery verify passes run
  };

  /// `volume` may be nullptr when every module is pre-staged.
  DprManager(RvCapDriver& drv, fabric::ConfigMemory& cfg, usize rp_handle,
             storage::Fat32Volume* volume, const Config& config);
  DprManager(RvCapDriver& drv, fabric::ConfigMemory& cfg, usize rp_handle,
             storage::Fat32Volume* volume)
      : DprManager(drv, cfg, rp_handle, volume, Config{}) {}

  /// Register a module backed by a bitstream file on the volume.
  Status register_module(std::string name, u32 rm_id,
                         std::string pbit_path);
  /// Register a module whose bitstream is already staged in DDR. The
  /// image is CRC'd now; that checksum is the golden reference the
  /// recovery flow verifies against before every transfer.
  Status register_staged(std::string name, u32 rm_id, Addr addr, u32 bytes);
  /// Register a module delivered by the attached BitstreamSource
  /// (network / cache / SD-fallback chain) under repository name
  /// `image`. Staging fetches the image into the slot cache and CRCs
  /// it there; like file-backed modules it is evictable and restaged
  /// on demand.
  Status register_remote(std::string name, u32 rm_id, std::string image);

  /// Ensure the module's bitstream is staged (no reconfiguration).
  Status prefetch(std::string_view name);

  /// Make the module active in the partition; no-op when it already is.
  /// Runs the self-healing flow under the current RecoveryPolicy.
  /// `force` skips the already-active fast path and rewrites every
  /// frame regardless — the scrub service's escalation path, where the
  /// partition still tracks as loaded but its configuration bits are
  /// known to be damaged.
  Status activate(std::string_view name, DmaMode mode = DmaMode::kInterrupt,
                  bool force = false);

  /// Name of the module currently active (empty when none/unknown).
  std::string active_module() const;

  /// Metadata of a module's staged DDR image. Stages the image first
  /// when it is not resident, so callers (admission preflight) can
  /// parse the exact bytes a subsequent activate() would stream.
  struct StagedInfo {
    Addr addr = 0;
    u32 bytes = 0;
    u32 rm_id = 0;
  };
  Status staged_image(std::string_view name, StagedInfo* out);

  /// Whether a module was registered under `name`.
  bool has_module(std::string_view name) const;

  /// Drop a module's staged image (quarantine support; no-op for
  /// pinned pre-staged modules, which have no backing file to reload).
  void discard_staged(std::string_view name);

  /// The underlying Listing-1 driver (watchdog installation point).
  RvCapDriver& driver() { return drv_; }
  /// The partition behind this manager's RP handle (floorplan checks).
  const fabric::Partition& partition() const {
    return cfg_.partition(rp_handle_);
  }
  const fabric::DeviceGeometry& device() const { return cfg_.device(); }

  void set_policy(const RecoveryPolicy& p) { policy_ = p; }

  /// Degraded-mode transfer path used after repeated DMA failures;
  /// nullptr detaches (no HWICAP path).
  void attach_fallback(HwIcapDriver* hwicap) { fallback_ = hwicap; }

  /// Staging-path fault hook (sim::fault_sites::kStageBitFlip).
  void set_fault_injector(sim::FaultInjector* fi) { fault_ = fi; }

  /// Delivery chain for register_remote modules. Must outlive the
  /// manager; nullptr detaches (remote staging then fails kInternal).
  void attach_source(BitstreamSource* source) { source_ = source; }

  /// Persistent write-ahead intent journal (DESIGN.md §15). When
  /// attached, activate() appends kReconfigStart before the first ICAP
  /// word and kReconfigCommit / kReconfigAbort at the matching outcome,
  /// and every kDprStage event is mirrored as a kFailureNote — so a
  /// cold reboot can tell a cleanly committed slot from one torn
  /// mid-reconfiguration, with the pre-crash failure history alongside.
  /// nullptr detaches.
  void attach_intent_journal(RecoveryJournal* j) { intent_ = j; }

  /// rm_id of a registered module (0 when unknown) and the reverse
  /// lookup — the recovery manager resolves journal records by rm_id.
  u32 rm_id_of(std::string_view name) const;
  std::string module_for_rm(u32 rm_id) const;

  const Stats& stats() const { return stats_; }
  double total_reconfig_us() const {
    return TimerDriver::ticks_to_us(stats_.total_reconfig_ticks);
  }

 private:
  struct Module {
    std::string name;
    u32 rm_id = 0;
    std::string pbit_path;       // FAT32 path, or repository image name
                                 // for remote modules; empty pre-staged
    std::optional<u32> slot;     // staging slot index when resident
    Addr staged_addr = 0;
    u32 pbit_size = 0;
    u32 crc32 = 0;               // golden CRC of the staged image
    bool pinned = false;         // pre-staged: never evicted
    bool remote = false;         // staged through the BitstreamSource
  };

  Module* find(std::string_view name);
  Status ensure_staged(Module& m);
  u32 claim_slot(Module& m);
  void stage_bitflip_hook(const Module& m);
  u32 pick_victim_slot();
  void unstage(Module& m);
  /// Scratch DDR just past the slot cache: blank bitstreams, and the
  /// post-recovery verify's readback.
  Addr scratch_addr() const {
    return config_.staging_base +
           u64{config_.num_slots} * config_.slot_bytes;
  }
  Status blank_partition(DmaMode mode, u32 attempt);
  void recover_datapath(DmaMode mode, u32 attempt);
  void record(FailStage stage, Status status, u32 rm_id, u32 attempt);
  void intent(IntentOp op, u32 rm_id, u8 flags = 0, u32 arg0 = 0);

  RvCapDriver& drv_;
  fabric::ConfigMemory& cfg_;
  usize rp_handle_;
  storage::Fat32Volume* volume_;
  Config config_;
  RecoveryPolicy policy_;
  HwIcapDriver* fallback_ = nullptr;
  sim::FaultInjector* fault_ = nullptr;
  BitstreamSource* source_ = nullptr;
  RecoveryJournal* intent_ = nullptr;
  std::vector<Module> modules_;
  std::vector<std::optional<usize>> slot_owner_;  // module index per slot
  std::vector<u64> slot_last_use_;
  u64 use_clock_ = 0;
  u32 consecutive_dma_failures_ = 0;
  Stats stats_;
  TraceSource trace_;
};

}  // namespace rvcap::driver
