#include "fabric/frame_ecc.hpp"

#include <bit>

namespace rvcap::fabric {

// Bit b of word w sits at position w*32 + b + 1. For b < 31 that is
// (w << 5) | (b + 1), so the low five syndrome bits are the parities of
// the XOR of all words under five fixed masks, and each word adds
// w << 5 once per set bit. Bit 31 carries into the next word's
// position, (w + 1) << 5, and is kept apart.
FrameEcc compute_frame_ecc(std::span<const u32> words) {
  // kLowMask[k]: bits b < 31 whose position b + 1 has bit k set.
  static constexpr u32 kLowMask[5] = {0x55555555u, 0x66666666u, 0x78787878u,
                                      0x7F807F80u, 0x7FFF8000u};
  FrameEcc e;
  u32 acc = 0;
  u32 high = 0;  // syndrome >> 5, before the low five bits are merged
  for (usize w = 0; w < words.size(); ++w) {
    const u32 v = words[w];
    const u32 pos = static_cast<u32>(w);
    acc ^= v;
    if (std::popcount(v & 0x7FFFFFFFu) & 1) high ^= pos;
    if (v >> 31) high ^= pos + 1;
  }
  u32 low = 0;
  for (u32 k = 0; k < 5; ++k) {
    low |= static_cast<u32>(std::popcount(acc & kLowMask[k]) & 1) << k;
  }
  e.syndrome = (high << 5) ^ low;
  e.parity = (std::popcount(acc) & 1) != 0;
  return e;
}

std::string_view to_string(EccClass c) {
  switch (c) {
    case EccClass::kClean: return "clean";
    case EccClass::kCorrectable: return "correctable";
    case EccClass::kUncorrectable: return "uncorrectable";
  }
  return "?";
}

EccDecode decode_frame_ecc(const FrameEcc& golden, const FrameEcc& observed,
                           u32 frame_words) {
  EccDecode d;
  const u32 diff = golden.syndrome ^ observed.syndrome;
  const bool parity_diff = golden.parity != observed.parity;
  if (diff == 0 && !parity_diff) {
    d.cls = EccClass::kClean;
    return d;
  }
  if (parity_diff && diff >= 1 && diff <= frame_words * 32) {
    d.cls = EccClass::kCorrectable;
    d.word = (diff - 1) / 32;
    d.bit = (diff - 1) % 32;
    return d;
  }
  d.cls = EccClass::kUncorrectable;
  return d;
}

bool essential_bit(u32 rm_id, u32 frame_index, u32 word, u32 bit) {
  if (frame_index == 0 && word < 4) return true;  // RM manifest words
  u64 x = (u64{rm_id} << 44) ^ (u64{frame_index} << 16) ^
          (u64{word} << 5) ^ u64{bit};
  x ^= 0x9E3779B97F4A7C15ULL;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return (x & 3) == 0;
}

}  // namespace rvcap::fabric
