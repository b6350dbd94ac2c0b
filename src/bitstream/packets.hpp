// 7-series configuration packet encoding (UG470-style).
//
// Type-1 packets address a configuration register and carry a short
// word count; type-2 packets extend the previous type-1 with a large
// count (used for FDRI frame payloads). The sync word, bus-width
// detection words, and NOPs are the framing around them.
#pragma once

#include <array>

#include "common/types.hpp"

namespace rvcap::bitstream {

inline constexpr u32 kDummyWord = 0xFFFFFFFF;
inline constexpr u32 kBusWidthSync = 0x000000BB;
inline constexpr u32 kBusWidthDetect = 0x11220044;
inline constexpr u32 kSyncWord = 0xAA995566;
inline constexpr u32 kNop = 0x20000000;

/// Model-device IDCODE (XC7K325T-class).
inline constexpr u32 kIdCode = 0x3651093;

enum class ConfigReg : u32 {
  kCrc = 0x00,
  kFar = 0x01,
  kFdri = 0x02,
  kFdro = 0x03,
  kCmd = 0x04,
  kCtl0 = 0x05,
  kMask = 0x06,
  kStat = 0x07,
  kCor0 = 0x09,
  kIdcode = 0x0C,
};

enum class Cmd : u32 {
  kNull = 0x0,
  kWcfg = 0x1,
  kLfrm = 0x3,   // DGHIGH: deassert GHIGH after config
  kRcfg = 0x4,   // read configuration (precedes FDRO readback)
  kStart = 0x5,
  kRcrc = 0x7,
  kGrestore = 0xA,
  kDesync = 0xD,
};

enum class PacketOp : u32 { kNop = 0, kRead = 1, kWrite = 2 };

/// Type-1 packet header: [31:29]=001, [28:27]=op, [26:13]=reg, [10:0]=count.
constexpr u32 type1(PacketOp op, ConfigReg reg, u32 count) {
  return (0x1u << 29) | (static_cast<u32>(op) << 27) |
         ((static_cast<u32>(reg) & 0x3FFF) << 13) | (count & 0x7FF);
}

/// Type-2 packet header: [31:29]=010, [28:27]=op, [26:0]=count.
constexpr u32 type2(PacketOp op, u32 count) {
  return (0x2u << 29) | (static_cast<u32>(op) << 27) | (count & 0x07FFFFFF);
}

struct PacketHeader {
  u32 type = 0;   // 1 or 2 (0 = not a packet header, e.g. NOP)
  PacketOp op = PacketOp::kNop;
  u32 reg = 0;    // type 1 only
  u32 count = 0;
};

constexpr PacketHeader decode_packet(u32 word) {
  PacketHeader h;
  h.type = (word >> 29) & 0x7;
  h.op = static_cast<PacketOp>((word >> 27) & 0x3);
  if (h.type == 1) {
    h.reg = (word >> 13) & 0x3FFF;
    h.count = word & 0x7FF;
  } else if (h.type == 2) {
    h.count = word & 0x07FFFFFF;
  }
  return h;
}

namespace detail {

inline constexpr u32 kConfigCrcPoly = 0x1EDC6F41;

/// T[v] = the config-CRC register after shifting the Bits-bit value v,
/// MSB first, into a zero register.
template <usize Bits>
constexpr std::array<u32, (usize{1} << Bits)> config_crc_table() {
  std::array<u32, (usize{1} << Bits)> t{};
  for (u32 v = 0; v < t.size(); ++v) {
    u32 c = v << (32 - Bits);
    for (usize i = 0; i < Bits; ++i) {
      c = (c << 1) ^ (kConfigCrcPoly & (0u - (c >> 31)));
    }
    t[v] = c;
  }
  return t;
}

inline constexpr auto kConfigCrcRegTable = config_crc_table<5>();
inline constexpr auto kConfigCrcByteTable = config_crc_table<8>();

}  // namespace detail

/// Running configuration CRC over (register, word) write pairs.
///
/// The 7-series device folds the 5-bit register address and 32-bit data
/// into a CRC-32C-style LFSR; this model uses the same structure (37-bit
/// message per write, poly 0x1EDC6F41, MSB-first). Bit-exact identity
/// with silicon is not required — only that the writer and the ICAP
/// model agree, which tests assert.
///
/// The LFSR is linear, so n message bits m advance the register as
/// crc' = (crc << n) ^ T[(crc >> (32 - n)) ^ m], with T[v] the register
/// after shifting v into zero. update() does the 5 register bits
/// through a 32-entry table and the data word as 4 bytes through a
/// 256-entry one.
class ConfigCrc {
 public:
  void reset() { crc_ = 0; }

  void update(u32 reg, u32 word) {
    const auto& reg_t = detail::kConfigCrcRegTable;
    const auto& byte_t = detail::kConfigCrcByteTable;
    u32 c = (crc_ << 5) ^ reg_t[(crc_ >> 27) ^ (reg & 0x1F)];
    c = (c << 8) ^ byte_t[(c >> 24) ^ (word >> 24)];
    c = (c << 8) ^ byte_t[(c >> 24) ^ ((word >> 16) & 0xFF)];
    c = (c << 8) ^ byte_t[(c >> 24) ^ ((word >> 8) & 0xFF)];
    crc_ = (c << 8) ^ byte_t[(c >> 24) ^ (word & 0xFF)];
  }

  u32 value() const { return crc_; }

 private:
  u32 crc_ = 0;
};

}  // namespace rvcap::bitstream
