// Primitives shared by the driver stacks: the timed DDR checksum, the
// stall watchdog that fences RV-CAP DMA waits, and the trace source
// every driver records its events through.
#pragma once

#include <functional>
#include <string_view>
#include <utility>

#include "common/types.hpp"
#include "common/units.hpp"
#include "obs/trace.hpp"

namespace rvcap::cpu {
class CpuContext;
}

namespace rvcap::driver {

/// CRC-32 of `bytes` of DDR at `addr`, computed in software on the
/// core: 4 KiB cached burst reads plus roughly one ALU bundle per word,
/// so every verify has a realistic simulated cost.
u32 ddr_crc(cpu::CpuContext& cpu, Addr addr, u32 bytes);

/// Register snapshot of an in-flight MM2S transfer, taken mid-wait.
struct TransferProgress {
  u64 mtime = 0;      // CLINT timestamp of the snapshot
  u32 beats = 0;      // MM2S beat counter
  u32 status = 0;     // MM2S status register
  u32 rp_status = 0;  // RP-control status bits
};

/// Frozen-progress hang detector. A wedged engine and a slow engine
/// look identical to a timeout: both just have not finished yet. While
/// installed on an RvCapDriver, every MM2S wait calls start() and then
/// poll() each kPollIntervalCycles; a beat counter frozen across
/// kStallPolls consecutive polls is a hang — poll() returns false and
/// the wait returns Status::kHang long before the size-derived timeout.
class StallWatchdog {
 public:
  static constexpr u64 kPollIntervalTicks = 50;  // CLINT ticks per poll
  static constexpr u64 kPollIntervalCycles =
      kPollIntervalTicks * kCyclesPerClintTick;
  static constexpr u32 kStallPolls = 4;  // frozen polls => hang

  /// Runs once per trip with the last snapshot, the expected beats and
  /// the consecutive frozen polls observed.
  using TripHook = std::function<void(const TransferProgress&,
                                      u64 expected_beats, u32 stalled_polls)>;

  /// `owner` prefixes the trip warning; it must outlive the watchdog.
  explicit StallWatchdog(std::string_view owner, TripHook on_trip = {})
      : owner_(owner), on_trip_(std::move(on_trip)) {}

  /// A new transfer of `expected_beats` beats begins; resets tracking.
  void start(u64 expected_beats);
  /// Mid-wait snapshot. False when the transfer is declared hung.
  bool poll(const TransferProgress& p);

 private:
  std::string_view owner_;
  TripHook on_trip_;
  u64 expected_beats_ = 0;
  u32 last_beats_ = 0;
  u32 stalled_polls_ = 0;
};

/// One driver's trace source: the sink, the driver's name interned in
/// it, and the clock events are stamped with. The sink is the drivers'
/// only event record, so emit() appends whether or not the sink is
/// enabled, also under RVCAP_NO_TRACE. A default-constructed source
/// emits nothing.
class TraceSource {
 public:
  TraceSource() = default;
  TraceSource(obs::TraceSink& sink, std::string_view name, const Cycles* now)
      : sink_(&sink), src_(sink.intern(name)), now_(now) {}
  /// The sink and clock of the CPU's simulator.
  TraceSource(cpu::CpuContext& cpu, std::string_view name);

  void emit(obs::EventKind kind, u64 a0, u64 a1 = 0, u64 a2 = 0) const {
    if (sink_ != nullptr) sink_->append(kind, src_, *now_, a0, a1, a2);
  }

 private:
  obs::TraceSink* sink_ = nullptr;
  u16 src_ = 0;
  const Cycles* now_ = nullptr;
};

}  // namespace rvcap::driver
