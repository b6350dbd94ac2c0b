#include "driver/frame_check.hpp"

#include "common/bytes.hpp"

namespace rvcap::driver {

using fabric::kFrameWords;

void load_frame(cpu::CpuContext& cpu, Addr at, std::vector<u32>* out) {
  std::vector<u8> raw(usize{kFrameWords} * 4);
  cpu.read_buffer(at, raw);
  out->resize(kFrameWords);
  for (u32 k = 0; k < kFrameWords; ++k) {
    (*out)[k] = load_be32(std::span<const u8>(raw).subspan(usize{k} * 4, 4));
  }
  cpu.spend_instructions(kFrameWords);  // the syndrome loop
}

Status check_frame(const fabric::ConfigMemory& mem,
                   const fabric::FrameAddr& fa, std::span<const u32> words,
                   fabric::EccDecode* out) {
  const fabric::FrameEcc* golden = mem.frame_ecc(fa);
  if (golden == nullptr) return Status::kInternal;
  *out = fabric::decode_frame_ecc(*golden, fabric::compute_frame_ecc(words),
                                  kFrameWords);
  return Status::kOk;
}

Status verify_partition(RvCapDriver& drv, const fabric::ConfigMemory& mem,
                        const fabric::Partition& part, Addr scratch,
                        DmaMode mode, bool hold_decoupled) {
  const auto addrs = part.frame_addrs(mem.device());
  const Addr cmd = scratch + u64{kFrameWords} * 4 * addrs.size();
  u32 words = 0;
  if (auto st = drv.readback_partition(mem.device(), part, cmd, scratch,
                                       &words, mode, hold_decoupled);
      !ok(st)) {
    return st;
  }
  std::vector<u32> frame;
  fabric::EccDecode d;
  for (usize i = 0; i < addrs.size(); ++i) {
    load_frame(drv.cpu_context(), scratch + u64{kFrameWords} * 4 * i, &frame);
    if (!ok(check_frame(mem, addrs[i], frame, &d)) ||
        d.cls != fabric::EccClass::kClean) {
      return Status::kCrcError;
    }
  }
  return Status::kOk;
}

}  // namespace rvcap::driver
