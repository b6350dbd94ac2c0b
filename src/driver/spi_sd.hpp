// SPI + SD-card driver running on the CPU model (§III-A).
//
// Byte-level SD SPI protocol over the memory-mapped SPI controller:
// card init (CMD0/CMD8/ACMD41/CMD58), single-block read/write with CRC
// verification. Every register access is a timed uncached MMIO access,
// so loading a bitstream from the SD card costs realistic simulated
// time (which is why the paper stages bitstreams in DDR before
// measuring T_r).
#pragma once

#include "common/retry.hpp"
#include "common/status.hpp"
#include "cpu/cpu.hpp"
#include "soc/memory_map.hpp"
#include "storage/block_io.hpp"

namespace rvcap::driver {

class SpiSdDriver {
 public:
  explicit SpiSdDriver(cpu::CpuContext& cpu,
                       Addr spi_base = soc::MemoryMap::kSpi.base)
      : cpu_(cpu), base_(spi_base) {}

  /// Power-on initialization; must succeed before block I/O.
  Status init_card();
  bool initialized() const { return initialized_; }

  /// Single-block read with bounded retry: transient token timeouts and
  /// CRC mismatches are re-issued up to twice (tight re-issue loop, no
  /// backoff) before the error escapes to the caller.
  Status read_block(u32 lba, std::span<u8> buf);
  Status write_block(u32 lba, std::span<const u8> buf);

  /// Reads that only succeeded after at least one retry.
  u64 reads_recovered() const { return reads_recovered_; }

  /// One full-duplex SPI byte (exposed for tests).
  u8 spi_xfer(u8 mosi);

 private:
  void select(bool on);
  /// Send a command frame; returns the R1 byte (0xFF on timeout).
  u8 command(u8 cmd, u32 arg);
  Status read_block_once(u32 lba, std::span<u8> buf);

  cpu::CpuContext& cpu_;
  Addr base_;
  bool initialized_ = false;
  RetryPolicy retry_policy_{/*max_attempts=*/3};  // 1 try + 2 retries
  u64 reads_recovered_ = 0;
};

/// BlockIo binding over the timed SPI/SD driver: lets the from-scratch
/// FAT32 run unmodified on the simulated CPU.
class CpuBlockIo final : public storage::BlockIo {
 public:
  CpuBlockIo(SpiSdDriver& sd, u32 block_count)
      : sd_(sd), blocks_(block_count) {}

  Status read(u32 lba, std::span<u8> buf) override {
    return sd_.read_block(lba, buf);
  }
  Status write(u32 lba, std::span<const u8> buf) override {
    return sd_.write_block(lba, buf);
  }
  u32 block_count() const override { return blocks_; }

 private:
  SpiSdDriver& sd_;
  u32 blocks_;
};

}  // namespace rvcap::driver
