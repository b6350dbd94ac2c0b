// Deterministic fault-injection framework.
//
// Safe DPR (Di Carlo et al., §II) means surviving the failures the
// field actually produces: SD transfer glitches, AXI error responses,
// DMA engines that stall or signal completion early, ICAP sync loss,
// and bit flips in staged bitstreams. Each instrumented component
// queries a named *site* on a central FaultInjector; a site fires
// according to an armed plan (trigger count, probability, skip) driven
// by a per-site SplitMix64 stream seeded from (global seed, site name).
// Because every site owns its stream, the decision sequence at one site
// is independent of query interleaving at the others, so any failure
// scenario is reproducible from a single seed.
//
// Components hold a nullable FaultInjector*; the null check is the only
// cost on the fault-free path. Unarmed sites never fire.
#pragma once

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/types.hpp"

namespace rvcap::sim {

/// Canonical site names (components pass these to should_fire()).
namespace fault_sites {
/// SD card swallows the 0xFE start token of a single-block read.
inline constexpr std::string_view kSdReadToken = "sd.read.token";
/// SD card corrupts the CRC16 trailing a read data block.
inline constexpr std::string_view kSdReadCrc = "sd.read.crc";
/// AXI DMA MM2S aborts mid-transfer with a SLVERR-style error.
inline constexpr std::string_view kDmaMm2sSlvErr = "dma.mm2s.slverr";
/// AXI DMA MM2S engine wedges (never completes, never errors).
inline constexpr std::string_view kDmaMm2sStall = "dma.mm2s.stall";
/// AXI DMA MM2S raises IOC before the full length streamed.
inline constexpr std::string_view kDmaMm2sEarlyIoc = "dma.mm2s.early_ioc";
/// ICAP drops sync mid-bitstream (remaining words ignored).
inline constexpr std::string_view kIcapSyncLoss = "icap.sync_loss";
/// One configuration word is corrupted at the ICAP port (CRC check
/// at the end of the pass then fails).
inline constexpr std::string_view kIcapCrcCorrupt = "icap.crc";
/// One bit of a freshly staged DDR bitstream copy flips.
inline constexpr std::string_view kStageBitFlip = "stage.bitflip";
/// Radiation-induced configuration-memory upset (fabric::SeuProcess
/// consumes this site's streams for event gating, Poisson spacing and
/// target selection; arm it to switch the background process on).
inline constexpr std::string_view kSeuUpset = "seu.upset";
/// Network link loses a frame in flight.
inline constexpr std::string_view kNetDrop = "net.link.drop";
/// Network link delivers a frame twice.
inline constexpr std::string_view kNetDup = "net.link.dup";
/// Network link delays a frame past a later one.
inline constexpr std::string_view kNetReorder = "net.link.reorder";
/// Network link flips one payload bit of a data frame.
inline constexpr std::string_view kNetCorrupt = "net.link.corrupt";
/// Bitstream server swallows a request (client sees a timeout).
inline constexpr std::string_view kNetServerStall = "net.server.stall";
/// One bit of a captured (GCAPTURE-style readback) slot image flips
/// while the image is parked in DDR — detected by the pre-restore
/// digest re-verification.
inline constexpr std::string_view kSlotCaptureTorn = "slot.capture.torn";
/// A captured image is declared stale at restore time (the scrub
/// service rewrote the slot's frames after capture): the scheduler
/// must roll back to a full golden reload instead of restoring.
inline constexpr std::string_view kSlotRestoreStale = "slot.restore.stale";
/// The swap-in transfer of a slot preemption wedges mid-flight (the
/// scheduler arms a one-shot DMA stall so the watchdog diagnoses a
/// kHang instead of silent corruption).
inline constexpr std::string_view kSlotSwapStall = "slot.swap.stall";
/// Abrupt supply collapse: the whole SoC resets at an arbitrary cycle.
/// sim::PowerLoss consumes this site's streams to decide whether a run
/// loses power and at which cycle within the armed horizon; everything
/// volatile (DDR, fabric configuration, driver state) is lost while SD
/// card contents — including a torn final sector — persist.
inline constexpr std::string_view kPowerLoss = "power.loss";
/// A sector write in flight at the instant of power loss persists only
/// a prefix of the 512-byte payload (torn write). Consulted by
/// storage::SdCard::power_fail(); the aux stream picks how many bytes
/// reached the flash array.
inline constexpr std::string_view kSdWriteTorn = "sd.write.torn";
/// One bit of a sealed intent-journal record flips between CRC sealing
/// and the SPI write (models a latent medium error; replay must
/// classify the record as corrupt, not torn).
inline constexpr std::string_view kJournalCorrupt = "journal.corrupt";

/// Every canonical site name, lexicographically sorted. FaultInjector
/// arms only names from this registry (or names declared at runtime
/// via declare_site), so a typo'd site string is a hard error instead
/// of a silently armed no-op that never fires.
const std::vector<std::string_view>& all();
/// True when `name` is in the canonical registry above.
bool is_canonical(std::string_view name);
}  // namespace fault_sites

class FaultInjector {
  struct Site;

 public:
  /// A site name resolved once, for a component that queries it per
  /// word: should_fire(SiteRef&) looks the name up again only after a
  /// site was added or the injector reseeded, so its decisions and
  /// counts are those of should_fire(name).
  struct SiteRef {
    explicit SiteRef(std::string_view n) : name(n) {}
    std::string_view name;
    const FaultInjector* owner = nullptr;
    u64 epoch = 0;
    Site* site = nullptr;  // nullptr: never armed or queried
  };

  /// How an armed site decides to fire.
  struct Plan {
    u32 count = 1;            // max fires; 0 = unlimited
    double probability = 1.0; // chance per eligible query
    u32 skip = 0;             // let this many queries pass first
  };

  explicit FaultInjector(u64 seed = 1) : seed_(seed) {}

  /// Drop every site and restart all decision streams from `seed`.
  void reseed(u64 seed) {
    seed_ = seed;
    sites_.clear();
    ++epoch_;
  }
  u64 seed() const { return seed_; }

  /// Register a non-canonical site name (component-local or test-only)
  /// so arm() accepts it. Declarations survive reseed().
  void declare_site(std::string_view name) {
    declared_.emplace(name);
  }

  /// Arm `name`. Returns Status::kNotFound — and arms nothing — when
  /// the name is neither canonical (fault_sites::all()) nor declared;
  /// a typo'd site string is a hard error, not a silent no-op.
  Status arm(std::string_view name, const Plan& plan);
  Status arm(std::string_view name, u32 count, double probability = 1.0,
             u32 skip = 0) {
    return arm(name, Plan{count, probability, skip});
  }
  void disarm(std::string_view name);
  /// Disarm every site (streams and counters survive for reporting).
  void disarm_all();
  /// True when `name` would be accepted by arm().
  bool known(std::string_view name) const {
    return fault_sites::is_canonical(name) || declared_.count(name) != 0;
  }

  /// One injection decision at `name`. Consumes one step of the site's
  /// decision stream per eligible query; unarmed sites never fire and
  /// cost one map lookup.
  bool should_fire(std::string_view name);
  bool should_fire(SiteRef& ref);

  /// Deterministic auxiliary value in [0, bound) from the site's
  /// parameter stream (which bit to flip, which beat to abort on...).
  u64 value(std::string_view name, u64 bound);

  u64 fires(std::string_view name) const;
  u64 queries(std::string_view name) const;
  u64 total_fires() const;

  /// (site, fires) pairs in lexicographic site order — a deterministic
  /// digest for same-seed reproducibility checks.
  std::vector<std::pair<std::string, u64>> fire_report() const;

 private:
  struct Site {
    Plan plan{};
    bool armed = false;
    u32 fired = 0;       // fires against the current plan
    u32 skipped = 0;     // queries skipped against the current plan
    u64 queries = 0;     // lifetime
    u64 fires = 0;       // lifetime
    SplitMix64 decide{0};
    SplitMix64 aux{0};
  };

  static u64 fnv1a(std::string_view s) {
    u64 h = 0xCBF29CE484222325ULL;
    for (const char c : s) {
      h ^= static_cast<u8>(c);
      h *= 0x100000001B3ULL;
    }
    return h;
  }

  Site& site(std::string_view name);
  /// should_fire() once the site is found.
  static bool fire(Site& s);

  u64 seed_;
  u64 epoch_ = 0;  // bumped when sites_ gains or loses a site
  std::map<std::string, Site, std::less<>> sites_;
  std::set<std::string, std::less<>> declared_;
};

}  // namespace rvcap::sim
