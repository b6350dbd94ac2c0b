#include "driver/primitives.hpp"

#include <algorithm>
#include <span>

#include "common/bytes.hpp"
#include "common/log.hpp"
#include "cpu/cpu.hpp"

namespace rvcap::driver {

u32 ddr_crc(cpu::CpuContext& cpu, Addr addr, u32 bytes) {
  std::vector<u8> chunk(4096);
  u32 crc = 0;
  u32 done = 0;
  while (done < bytes) {
    const u32 n = std::min<u32>(static_cast<u32>(chunk.size()), bytes - done);
    cpu.read_buffer(addr + done, std::span(chunk).first(n));
    crc = crc32(std::span<const u8>(chunk).first(n), crc);
    cpu.spend_instructions(n / 4);
    done += n;
  }
  return crc;
}

TraceSource::TraceSource(cpu::CpuContext& cpu, std::string_view name)
    : TraceSource(cpu.simulator().obs().sink(), name,
                  cpu.simulator().now_ptr()) {}

void StallWatchdog::start(u64 expected_beats) {
  expected_beats_ = expected_beats;
  last_beats_ = 0;
  stalled_polls_ = 0;
}

bool StallWatchdog::poll(const TransferProgress& p) {
  if (p.beats != last_beats_) {
    // Progress (or a new job's counter reset): the engine is alive.
    last_beats_ = p.beats;
    stalled_polls_ = 0;
    return true;
  }
  if (++stalled_polls_ < kStallPolls) return true;
  log_warn(owner_, ": watchdog hang, beats frozen at ", p.beats, " of ",
           expected_beats_);
  if (on_trip_) on_trip_(p, expected_beats_, stalled_polls_);
  return false;
}

}  // namespace rvcap::driver
