// Frame-ECC check — the one configuration verify on the readback path.
//
// The fabric records a SECDED check word per frame as it is written
// (fabric/frame_ecc.hpp, the FRAME_ECC primitive's view), so a frame
// read back through the ICAP and decoded against it is clean, carries
// one localized flipped bit, or is damaged beyond correction — with no
// golden copy held in software. ScrubService checks frame by frame;
// DprManager's post-recovery verify checks a whole partition.
#pragma once

#include <span>
#include <vector>

#include "driver/rvcap_driver.hpp"
#include "fabric/config_memory.hpp"

namespace rvcap::driver {

/// Load the frame read back to DDR at `at` into `out` on the core: one
/// cached read, then one ALU bundle per word for the syndrome loop.
void load_frame(cpu::CpuContext& cpu, Addr at, std::vector<u32>* out);

/// Decode one frame's words against the check word recorded when `fa`
/// was last written. kInternal when `fa` was never written.
Status check_frame(const fabric::ConfigMemory& mem,
                   const fabric::FrameAddr& fa, std::span<const u32> words,
                   fabric::EccDecode* out);

/// Read `part` back with one readback_partition into DDR at `scratch`
/// (command sequences staged just past the frames), then check every
/// frame in Partition::frame_addrs order. kOk when all are clean,
/// kCrcError at the first that is not (or was never written), else the
/// transport status.
Status verify_partition(RvCapDriver& drv, const fabric::ConfigMemory& mem,
                        const fabric::Partition& part, Addr scratch,
                        DmaMode mode = DmaMode::kInterrupt,
                        bool hold_decoupled = false);

}  // namespace rvcap::driver
