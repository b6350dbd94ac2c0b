// Host-kernel equivalence: every table-driven or word-parallel kernel on
// the simulator's hot path against the plain bitwise definition it
// replaces. The reference forms live only here, as the oracles:
//  * crc32 — one shift/xor step per bit (reflected IEEE 802.3);
//  * SdCard::crc16 — one shift/xor step per bit (CRC-16/XMODEM);
//  * ConfigCrc — the 37-bit serial LFSR, MSB first;
//  * compute_frame_ecc — XOR of the 1-based position of every set bit;
//  * the 3x3 median — std::nth_element over the nine window pixels;
//  * sim::Fifo — a std::deque with the same capacity rules.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <vector>

#include "accel/filters.hpp"
#include "bitstream/packets.hpp"
#include "bitstream/parser.hpp"
#include "bitstream/writer.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "fabric/frame_ecc.hpp"
#include "fabric/geometry.hpp"
#include "sim/fifo.hpp"
#include "sim/simulator.hpp"
#include "storage/sd_card.hpp"

namespace rvcap {
namespace {

// ---------------------------------------------------------------------
// Reference definitions
// ---------------------------------------------------------------------

u32 crc32_bitwise(std::span<const u8> data, u32 crc = 0) {
  crc = ~crc;
  for (const u8 byte : data) {
    crc ^= byte;
    for (int i = 0; i < 8; ++i) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

u16 crc16_bitwise(std::span<const u8> data) {
  u16 crc = 0;
  for (const u8 byte : data) {
    crc ^= static_cast<u16>(byte) << 8;
    for (int i = 0; i < 8; ++i) {
      crc = (crc & 0x8000) ? static_cast<u16>((crc << 1) ^ 0x1021)
                           : static_cast<u16>(crc << 1);
    }
  }
  return crc;
}

struct ConfigCrcSerial {
  u32 crc = 0;
  void update(u32 reg, u32 word) {
    const u64 msg = (u64{reg & 0x1F} << 32) | word;
    for (int i = 36; i >= 0; --i) {
      const u32 bit = static_cast<u32>((msg >> i) & 1);
      const u32 top = (crc >> 31) & 1;
      crc <<= 1;
      if (bit ^ top) crc ^= 0x1EDC6F41;
    }
  }
};

fabric::FrameEcc frame_ecc_bitwise(std::span<const u32> words) {
  fabric::FrameEcc e;
  for (usize w = 0; w < words.size(); ++w) {
    for (u32 b = 0; b < 32; ++b) {
      if ((words[w] >> b) & 1) {
        e.syndrome ^= static_cast<u32>(w) * 32 + b + 1;
        e.parity = !e.parity;
      }
    }
  }
  return e;
}

u8 median_nth_element(std::span<const u8> above, std::span<const u8> cur,
                      std::span<const u8> below, int x) {
  const int w = static_cast<int>(cur.size());
  std::array<u8, 9> v{};
  usize n = 0;
  for (const auto row : {above, cur, below}) {
    for (int dx = -1; dx <= 1; ++dx) {
      v[n++] = row[static_cast<usize>(std::clamp(x + dx, 0, w - 1))];
    }
  }
  std::nth_element(v.begin(), v.begin() + 4, v.end());
  return v[4];
}

std::vector<u8> random_bytes(usize n, u64 seed) {
  SplitMix64 rng(seed);
  std::vector<u8> b(n);
  for (auto& x : b) x = rng.next_byte();
  return b;
}

// ---------------------------------------------------------------------
// crc32
// ---------------------------------------------------------------------

TEST(HostKernelCrc32, KnownAnswer) {
  const u8 check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(check), 0xCBF43926u);
  EXPECT_EQ(crc32_bitwise(check), 0xCBF43926u);
}

TEST(HostKernelCrc32, EveryLengthUpTo300MatchesBitwise) {
  const auto data = random_bytes(300, 0xC4C32);
  const std::span<const u8> all(data);
  for (usize len = 0; len <= all.size(); ++len) {
    // Every start offset mod 8, so odd tails and unaligned heads occur.
    for (usize off = 0; off < 8 && off + len <= all.size(); ++off) {
      const auto s = all.subspan(off, len);
      ASSERT_EQ(crc32(s), crc32_bitwise(s)) << "len " << len << " off " << off;
    }
  }
}

TEST(HostKernelCrc32, ChainedCallsMatchOneShot) {
  const auto data = random_bytes(4096 + 13, 0xC4A17);
  const std::span<const u8> all(data);
  SplitMix64 rng(7);
  u32 crc = 0;
  usize pos = 0;
  while (pos < all.size()) {
    const usize n = std::min<usize>(1 + rng.next_below(97), all.size() - pos);
    crc = crc32(all.subspan(pos, n), crc);
    pos += n;
  }
  EXPECT_EQ(crc, crc32(all));
  EXPECT_EQ(crc, crc32_bitwise(all));
  // A non-zero seed continues the bitwise form too.
  EXPECT_EQ(crc32(all.subspan(100), crc32(all.first(100))),
            crc32_bitwise(all.subspan(100), crc32_bitwise(all.first(100))));
}

// ---------------------------------------------------------------------
// ConfigCrc
// ---------------------------------------------------------------------

TEST(HostKernelCrc16, KnownAnswers) {
  const std::vector<u8> ff(512, 0xFF);
  EXPECT_EQ(storage::SdCard::crc16(ff), 0x7FA1);  // an erased SD block
  const u8 check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(storage::SdCard::crc16(check), 0x31C3);  // XMODEM check value
  EXPECT_EQ(storage::SdCard::crc16({}), 0);
}

TEST(HostKernelCrc16, RandomLengthsAndContentsMatchBitwise) {
  SplitMix64 rng(16);
  std::vector<u8> buf(1100);
  for (int trial = 0; trial < 400; ++trial) {
    const usize len = rng.next() % buf.size();
    for (usize i = 0; i < len; ++i) buf[i] = rng.next_byte();
    const std::span<const u8> s(buf.data(), len);
    ASSERT_EQ(storage::SdCard::crc16(s), crc16_bitwise(s)) << "len " << len;
  }
}

TEST(HostKernelConfigCrc, AllRegistersWithRandomWordsMatchSerial) {
  SplitMix64 rng(0xC0F1C);
  bitstream::ConfigCrc fast;
  ConfigCrcSerial ref;
  for (u32 round = 0; round < 64; ++round) {
    for (u32 reg = 0; reg < 32; ++reg) {
      const u32 word = static_cast<u32>(rng.next());
      fast.update(reg, word);
      ref.update(reg, word);
      ASSERT_EQ(fast.value(), ref.crc) << "reg " << reg << " round " << round;
    }
  }
  // Register bits above the 5-bit address are ignored by both.
  fast.update(0xFFFFFFE2u, 0x12345678u);
  ref.update(0xFFFFFFE2u, 0x12345678u);
  EXPECT_EQ(fast.value(), ref.crc);
  // Edge words from a zero register.
  for (const u32 word : {0u, 1u, 0x80000000u, 0xFFFFFFFFu}) {
    bitstream::ConfigCrc f;
    ConfigCrcSerial r;
    f.update(31, word);
    r.update(31, word);
    EXPECT_EQ(f.value(), r.crc) << word;
  }
}

TEST(HostKernelConfigCrc, WriterToParserRoundTrip) {
  using namespace bitstream;
  SplitMix64 rng(0x517E);
  BitstreamWriter::Section sec;
  sec.start = {0, 5, 0};
  sec.frame_words.resize(3 * fabric::kFrameWords);
  for (auto& w : sec.frame_words) w = static_cast<u32>(rng.next());
  const std::vector<u32> words = BitstreamWriter().build({&sec, 1});

  // The two CRC-register writes the writer sealed, in stream order.
  std::vector<u32> crc_words;
  const u32 crc_hdr = type1(PacketOp::kWrite, ConfigReg::kCrc, 1);
  for (usize i = 0; i + 1 < words.size(); ++i) {
    if (words[i] == crc_hdr) crc_words.push_back(words[i + 1]);
  }
  ASSERT_EQ(crc_words.size(), 2u);

  // The serial LFSR over the same register writes: IDCODE, WCFG, FAR and
  // the FDRI payload after RCRC; then the start-up commands and the
  // final FAR after the first CRC write resets it.
  ConfigCrcSerial first;
  first.update(static_cast<u32>(ConfigReg::kIdcode), kIdCode);
  first.update(static_cast<u32>(ConfigReg::kCmd), static_cast<u32>(Cmd::kWcfg));
  first.update(static_cast<u32>(ConfigReg::kFar), sec.start.encode());
  for (const u32 w : sec.frame_words) {
    first.update(static_cast<u32>(ConfigReg::kFdri), w);
  }
  EXPECT_EQ(crc_words[0], first.crc);
  ConfigCrcSerial second;
  for (const Cmd c : {Cmd::kGrestore, Cmd::kLfrm, Cmd::kStart}) {
    second.update(static_cast<u32>(ConfigReg::kCmd), static_cast<u32>(c));
  }
  second.update(static_cast<u32>(ConfigReg::kFar),
                fabric::FrameAddr{0, 0, 0}.encode());
  EXPECT_EQ(crc_words[1], second.crc);

  // The parser recomputes both and accepts; one flipped payload bit
  // breaks the first.
  auto bytes = BitstreamWriter::to_bytes(words);
  ParsedBitstream parsed;
  ASSERT_EQ(parse_bitstream(bytes, &parsed), Status::kOk);
  EXPECT_TRUE(parsed.crc_ok);
  EXPECT_EQ(parsed.payload_words, sec.frame_words.size());
  bytes[bytes.size() / 2] ^= 0x10;
  ASSERT_EQ(parse_bitstream(bytes, &parsed), Status::kOk);
  EXPECT_FALSE(parsed.crc_ok);
}

// ---------------------------------------------------------------------
// Frame ECC
// ---------------------------------------------------------------------

TEST(HostKernelFrameEcc, RandomFramesMatchBitwise) {
  SplitMix64 rng(0xECC);
  std::vector<u32> words(fabric::kFrameWords);
  for (int round = 0; round < 200; ++round) {
    for (auto& w : words) w = static_cast<u32>(rng.next());
    ASSERT_EQ(fabric::compute_frame_ecc(words), frame_ecc_bitwise(words))
        << round;
  }
}

TEST(HostKernelFrameEcc, Bit31AndAllOnesWords) {
  std::vector<u32> words(fabric::kFrameWords, 0);
  for (usize w = 0; w < words.size(); ++w) {
    words.assign(words.size(), 0);
    words[w] = 0x80000000u;  // carries into the next word's position
    ASSERT_EQ(fabric::compute_frame_ecc(words), frame_ecc_bitwise(words)) << w;
    words[w] = 0xFFFFFFFFu;
    ASSERT_EQ(fabric::compute_frame_ecc(words), frame_ecc_bitwise(words)) << w;
  }
  words.assign(words.size(), 0xFFFFFFFFu);
  EXPECT_EQ(fabric::compute_frame_ecc(words), frame_ecc_bitwise(words));
  words.assign(words.size(), 0x80000000u);
  EXPECT_EQ(fabric::compute_frame_ecc(words), frame_ecc_bitwise(words));
}

TEST(HostKernelFrameEcc, SpansShorterThanAFrame) {
  SplitMix64 rng(0x5A1);
  for (usize n = 0; n < fabric::kFrameWords; ++n) {
    std::vector<u32> words(n);
    for (auto& w : words) w = static_cast<u32>(rng.next());
    ASSERT_EQ(fabric::compute_frame_ecc(words), frame_ecc_bitwise(words)) << n;
  }
  EXPECT_EQ(fabric::compute_frame_ecc({}), fabric::FrameEcc{});
}

TEST(HostKernelFrameEcc, SingleFlipStillDecodesToItsBit) {
  SplitMix64 rng(0xF11);
  std::vector<u32> words(fabric::kFrameWords);
  for (auto& w : words) w = static_cast<u32>(rng.next());
  const fabric::FrameEcc golden = fabric::compute_frame_ecc(words);
  for (const u32 bit : {0u, 17u, 30u, 31u}) {
    auto bad = words;
    bad[40] ^= 1u << bit;
    const auto d = fabric::decode_frame_ecc(
        golden, fabric::compute_frame_ecc(bad), fabric::kFrameWords);
    EXPECT_EQ(d.cls, fabric::EccClass::kCorrectable) << bit;
    EXPECT_EQ(d.word, 40u);
    EXPECT_EQ(d.bit, bit);
  }
}

// ---------------------------------------------------------------------
// Median filter
// ---------------------------------------------------------------------

void expect_median_rows_match(const std::vector<u8>& above,
                              const std::vector<u8>& cur,
                              const std::vector<u8>& below) {
  std::vector<u8> out(cur.size(), 0xAA);
  accel::filter_row(accel::FilterKind::kMedian, above, cur, below, out);
  for (usize x = 0; x < cur.size(); ++x) {
    ASSERT_EQ(out[x], median_nth_element(above, cur, below, static_cast<int>(x)))
        << "width " << cur.size() << " x " << x;
  }
}

TEST(HostKernelMedian, NarrowWidthsOneToThree) {
  SplitMix64 rng(0x3ED);
  for (usize w = 1; w <= 3; ++w) {
    for (int round = 0; round < 500; ++round) {
      std::vector<u8> a(w), c(w), b(w);
      for (usize x = 0; x < w; ++x) {
        a[x] = rng.next_byte();
        c[x] = rng.next_byte();
        b[x] = rng.next_byte();
      }
      expect_median_rows_match(a, c, b);
    }
  }
  std::vector<u8> empty;
  accel::filter_row(accel::FilterKind::kMedian, empty, empty, empty, empty);
}

TEST(HostKernelMedian, RowsWithManyTies) {
  // Values from a 3-symbol alphabet: most windows hold repeated values.
  SplitMix64 rng(0x71E5);
  for (int round = 0; round < 200; ++round) {
    const usize w = 1 + rng.next_below(40);
    std::vector<u8> a(w), c(w), b(w);
    for (usize x = 0; x < w; ++x) {
      a[x] = static_cast<u8>(rng.next_below(3) * 127);
      c[x] = static_cast<u8>(rng.next_below(3) * 127);
      b[x] = static_cast<u8>(rng.next_below(3) * 127);
    }
    expect_median_rows_match(a, c, b);
  }
  expect_median_rows_match(std::vector<u8>(17, 9), std::vector<u8>(17, 9),
                           std::vector<u8>(17, 9));
}

TEST(HostKernelMedian, BorderColumnsAndWholeImages) {
  // Extremes at the first and last columns exercise the replicate border.
  std::vector<u8> a{255, 0, 0, 0, 255}, c{0, 255, 0, 255, 0},
      b{255, 255, 0, 0, 0};
  expect_median_rows_match(a, c, b);
  // The full golden filter over a test image, aliased rows included.
  const accel::Image img = accel::make_test_image(67, 31, 0x1D);
  const accel::Image out = accel::apply_golden(accel::FilterKind::kMedian, img);
  for (u32 y = 0; y < img.height; ++y) {
    const auto row = [&](u32 yy) {
      return std::span<const u8>(img.pixels).subspan(usize{yy} * img.width,
                                                     img.width);
    };
    const u32 ya = (y == 0) ? 0 : y - 1;
    const u32 yb = (y + 1 == img.height) ? y : y + 1;
    for (u32 x = 0; x < img.width; ++x) {
      ASSERT_EQ(out.at(x, y),
                median_nth_element(row(ya), row(y), row(yb),
                                   static_cast<int>(x)))
          << x << "," << y;
    }
  }
}

// ---------------------------------------------------------------------
// Fifo
// ---------------------------------------------------------------------

TEST(HostKernelFifo, MatchesDequeModelAcrossWrapAround) {
  SplitMix64 rng(0xF1F0);
  for (const usize cap : {1u, 2u, 3u, 4u, 7u, 32u}) {
    sim::Fifo<u64> f(cap);
    std::deque<u64> model;
    usize hwm = 0;
    u64 pushed = 0, popped = 0;
    for (int i = 0; i < 2000; ++i) {
      const u64 op = rng.next_below(10);
      if (op < 5) {
        const u64 v = rng.next();
        const bool room = model.size() < cap;
        ASSERT_EQ(f.push(v), room);
        if (room) {
          model.push_back(v);
          ++pushed;
          hwm = std::max(hwm, model.size());
        }
      } else if (op < 9) {
        const auto v = f.pop();
        ASSERT_EQ(v.has_value(), !model.empty());
        if (v) {
          ASSERT_EQ(*v, model.front());
          model.pop_front();
          ++popped;
        }
      } else if (!model.empty()) {
        // back() after any number of wraps is the newest element, and
        // writes through it land in the element pop() returns later.
        ASSERT_NE(f.back(), nullptr);
        ASSERT_EQ(*f.back(), model.back());
        *f.back() ^= 0xFF;
        model.back() ^= 0xFF;
      }
      ASSERT_EQ(f.size(), model.size());
      ASSERT_EQ(f.empty(), model.empty());
      ASSERT_EQ(f.full(), model.size() == cap);
      ASSERT_EQ(f.vacancy(), cap - model.size());
      if (model.empty()) {
        ASSERT_EQ(f.front(), nullptr);
      } else {
        ASSERT_EQ(*f.front(), model.front());
      }
    }
    EXPECT_EQ(f.total_pushed(), pushed);
    EXPECT_EQ(f.total_pushed() - f.size(), popped);
    EXPECT_EQ(f.high_water(), hwm);
  }
}

TEST(HostKernelFifo, ClearWithDataInFlight) {
  sim::Fifo<int> f(4);
  for (int i = 0; i < 3; ++i) f.push(i);
  f.pop();
  f.pop();
  f.push(3);
  f.push(4);  // the ring has wrapped: elements at slots 2, 3, 0
  f.clear();
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(f.front(), nullptr);
  EXPECT_EQ(f.back(), nullptr);
  EXPECT_EQ(f.vacancy(), 4u);
  // Counters are lifetime counters: clear() does not rewind them.
  EXPECT_EQ(f.total_pushed(), 5u);
  EXPECT_EQ(f.high_water(), 3u);
  for (int i = 10; i < 14; ++i) EXPECT_TRUE(f.push(i));
  EXPECT_FALSE(f.push(99));
  for (int i = 10; i < 14; ++i) EXPECT_EQ(*f.pop(), i);
  EXPECT_EQ(f.high_water(), 4u);
}

TEST(HostKernelFifo, ClearWakesWatchers) {
  struct Sleeper : sim::Component {
    Sleeper() : Component("sleeper") {}
    bool tick() override {
      ++ticks;
      return false;
    }
    int ticks = 0;
  };
  sim::Simulator s;
  Sleeper c;
  s.add(&c);
  sim::Fifo<int> f(2);
  f.watch_as_consumer(&c);
  s.run_cycles(3);  // one tick, then asleep
  EXPECT_EQ(c.ticks, 1);
  f.clear();
  s.run_cycles(1);
  EXPECT_EQ(c.ticks, 2);
}

}  // namespace
}  // namespace rvcap
