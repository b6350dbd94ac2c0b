#include "storage/sd_card.hpp"

#include <algorithm>
#include <cstring>

#include "common/log.hpp"

namespace rvcap::storage {

namespace {
constexpr u8 kR1Idle = 0x01;
constexpr u8 kR1Ok = 0x00;
constexpr u8 kR1IllegalCmd = 0x04;
constexpr u8 kTokenStart = 0xFE;
constexpr u8 kDataAccepted = 0x05;
constexpr u8 kDataCrcError = 0x0B;
}  // namespace

SdCard::SdCard(u32 num_blocks) : num_blocks_(num_blocks) {}

u8* SdCard::block(u32 lba) {
  auto& b = blocks_[lba];
  if (!b) {
    b = std::make_unique<std::array<u8, kBlockSize>>();
    b->fill(0);
  }
  return b->data();
}

const u8* SdCard::block(u32 lba) const {
  const auto it = blocks_.find(lba);
  return it == blocks_.end() ? nullptr : it->second->data();
}

namespace {
/// CRC-16/XMODEM one byte at a time: entry b is the CRC register after
/// shifting b through the top byte (the bitwise form is the oracle in
/// tests/test_host_kernels.cpp).
constexpr std::array<u16, 256> kCrc16Table = [] {
  std::array<u16, 256> t{};
  for (u32 b = 0; b < 256; ++b) {
    u16 crc = static_cast<u16>(b << 8);
    for (int i = 0; i < 8; ++i) {
      crc = (crc & 0x8000) ? static_cast<u16>((crc << 1) ^ 0x1021)
                           : static_cast<u16>(crc << 1);
    }
    t[b] = crc;
  }
  return t;
}();
}  // namespace

u16 SdCard::crc16(std::span<const u8> data) {
  u16 crc = 0;
  for (const u8 byte : data) {
    crc = static_cast<u16>((crc << 8) ^ kCrc16Table[(crc >> 8) ^ byte]);
  }
  return crc;
}

u8 SdCard::crc7(std::span<const u8> data) {
  u8 crc = 0;
  for (u8 byte : data) {
    for (int i = 7; i >= 0; --i) {
      crc = static_cast<u8>(crc << 1);
      if (((byte >> i) & 1) ^ ((crc >> 7) & 1)) crc ^= 0x09;
      crc &= 0x7F;
    }
  }
  return crc;
}

void SdCard::power_fail() {
  if (!powered_) return;
  // A write caught mid-data-phase may tear: the card's internal program
  // operation had latched only a prefix of the payload. The sd.write.torn
  // site gates whether anything reached the array at all; its aux stream
  // picks the persisted prefix length (possibly the full payload minus
  // CRC check — torn means unverified, not necessarily short).
  if (state_ == State::kWriteData && data_pos_ > 0 && fault_ != nullptr &&
      fault_->should_fire(sim::fault_sites::kSdWriteTorn)) {
    const usize persisted = static_cast<usize>(fault_->value(
        sim::fault_sites::kSdWriteTorn,
        std::min<usize>(data_pos_, kBlockSize) + 1));
    if (persisted > 0) {
      std::memcpy(block(data_lba_), data_buf_.data(), persisted);
      ++torn_writes_;
    }
  }
  powered_ = false;
  initialized_ = false;
  state_ = State::kIdle;
  cmd_fill_ = 0;
  acmd_ = false;
  acmd41_polls_ = 0;
}

u8 SdCard::exchange(u8 mosi, bool cs_low) {
  if (!powered_) return 0xFF;  // dead card: bus reads tristate
  if (!cs_low) {
    // Deselected: the card tristates (reads as 0xFF) and aborts any
    // half-collected command frame.
    state_ = State::kIdle;
    cmd_fill_ = 0;
    return 0xFF;
  }

  switch (state_) {
    case State::kIdle:
      if ((mosi & 0xC0) == 0x40) {  // start + transmission bit
        cmd_[0] = mosi;
        cmd_fill_ = 1;
        state_ = State::kCommand;
      }
      return 0xFF;

    case State::kCommand:
      cmd_[cmd_fill_++] = mosi;
      if (cmd_fill_ == 6) {
        execute_command();
      }
      return 0xFF;

    case State::kResponseWait:
      if (gap_bytes_ > 0) {
        --gap_bytes_;
        return 0xFF;
      }
      state_ = State::kResponse;
      [[fallthrough]];

    case State::kResponse: {
      const u8 out = response_[resp_pos_++];
      if (resp_pos_ == response_.size()) {
        if (after_response_read_) {
          after_response_read_ = false;
          gap_bytes_ = 2;  // Nac: token latency
          state_ = State::kReadToken;
        } else if (after_response_write_) {
          after_response_write_ = false;
          data_pos_ = 0;
          state_ = State::kWriteWaitToken;
        } else {
          state_ = State::kIdle;
        }
      }
      return out;
    }

    case State::kReadToken:
      if (gap_bytes_ > 0) {
        --gap_bytes_;
        return 0xFF;
      }
      // Injected transient: the start token is never sent, so the
      // host's bounded token hunt times out for this read.
      if (fault_ != nullptr &&
          fault_->should_fire(sim::fault_sites::kSdReadToken)) {
        state_ = State::kIdle;
        return 0xFF;
      }
      // Prepare the data + CRC buffer and emit the start token.
      {
        const u8* src = block(data_lba_);
        if (src != nullptr) {
          std::memcpy(data_buf_.data(), src, kBlockSize);
        } else {
          std::memset(data_buf_.data(), 0, kBlockSize);
        }
        const u16 crc = crc16({data_buf_.data(), kBlockSize});
        data_buf_[kBlockSize] = static_cast<u8>(crc >> 8);
        data_buf_[kBlockSize + 1] = static_cast<u8>(crc);
        // Injected transfer corruption: flip a data byte after the CRC
        // was computed, so the host-side CRC16 check fails.
        if (fault_ != nullptr &&
            fault_->should_fire(sim::fault_sites::kSdReadCrc)) {
          const usize at =
              fault_->value(sim::fault_sites::kSdReadCrc, kBlockSize);
          data_buf_[at] ^= 0xFF;
        }
        data_pos_ = 0;
        state_ = State::kReadData;
        ++blocks_read_;
      }
      return kTokenStart;

    case State::kReadData: {
      const u8 out = data_buf_[data_pos_++];
      if (data_pos_ == data_buf_.size()) state_ = State::kIdle;
      return out;
    }

    case State::kWriteWaitToken:
      if (mosi == kTokenStart) {
        data_pos_ = 0;
        state_ = State::kWriteData;
      }
      return 0xFF;

    case State::kWriteData:
      data_buf_[data_pos_++] = mosi;
      if (data_pos_ == data_buf_.size()) {
        const u16 crc = crc16({data_buf_.data(), kBlockSize});
        const u16 sent = static_cast<u16>((u16{data_buf_[kBlockSize]} << 8) |
                                          data_buf_[kBlockSize + 1]);
        state_ = State::kWriteBusy;
        busy_bytes_ = 4;
        if (crc == sent) {
          std::memcpy(block(data_lba_), data_buf_.data(), kBlockSize);
          ++blocks_written_;
          response_ = {kDataAccepted};
        } else {
          ++crc_errors_;
          response_ = {kDataCrcError};
        }
        resp_pos_ = 0;
        return 0xFF;
      }
      return 0xFF;

    case State::kWriteBusy:
      if (resp_pos_ < response_.size()) return response_[resp_pos_++];
      if (busy_bytes_ > 0) {
        --busy_bytes_;
        return 0x00;  // busy
      }
      state_ = State::kIdle;
      return 0xFF;
  }
  return 0xFF;
}

void SdCard::execute_command() {
  const u8 cmd = cmd_[0] & 0x3F;
  const u32 arg = (u32{cmd_[1]} << 24) | (u32{cmd_[2]} << 16) |
                  (u32{cmd_[3]} << 8) | u32{cmd_[4]};
  const bool was_acmd = acmd_;
  acmd_ = false;
  resp_pos_ = 0;
  gap_bytes_ = 1;  // Ncr >= 1 byte
  state_ = State::kResponseWait;
  after_response_read_ = false;
  after_response_write_ = false;

  // CMD0 requires a valid CRC7 (the only command checked in SPI mode).
  if (cmd == 0) {
    const u8 crc = crc7({cmd_.data(), 5});
    if (static_cast<u8>((crc << 1) | 1) != cmd_[5]) {
      response_ = {kR1IllegalCmd};
      return;
    }
    initialized_ = false;
    acmd41_polls_ = 0;
    response_ = {kR1Idle};
    return;
  }

  if (was_acmd && cmd == 41) {  // ACMD41: SD_SEND_OP_COND
    if (++acmd41_polls_ >= 2) initialized_ = true;
    response_ = {initialized_ ? kR1Ok : kR1Idle};
    return;
  }

  switch (cmd) {
    case 8:  // SEND_IF_COND -> R7: R1 + 4 bytes echoing voltage/pattern
      response_ = {kR1Idle, 0x00, 0x00, static_cast<u8>((arg >> 8) & 0xFF),
                   static_cast<u8>(arg & 0xFF)};
      break;
    case 55:  // APP_CMD prefix
      acmd_ = true;
      response_ = {initialized_ ? kR1Ok : kR1Idle};
      break;
    case 58:  // READ_OCR -> R3: R1 + OCR (CCS=1: SDHC block addressing)
      response_ = {initialized_ ? kR1Ok : kR1Idle, 0xC0, 0xFF, 0x80, 0x00};
      break;
    case 17:  // READ_SINGLE_BLOCK
      if (!initialized_ || arg >= num_blocks_) {
        response_ = {static_cast<u8>(initialized_ ? 0x40 : kR1IllegalCmd)};
      } else {
        data_lba_ = arg;
        response_ = {kR1Ok};
        after_response_read_ = true;
      }
      break;
    case 24:  // WRITE_BLOCK
      if (!initialized_ || arg >= num_blocks_) {
        response_ = {static_cast<u8>(initialized_ ? 0x40 : kR1IllegalCmd)};
      } else {
        data_lba_ = arg;
        response_ = {kR1Ok};
        after_response_write_ = true;
      }
      break;
    default:
      log_debug("sdcard: illegal CMD", static_cast<int>(cmd));
      response_ = {kR1IllegalCmd};
      break;
  }
}

Status SdCard::backdoor_read(u32 lba, std::span<u8> buf) const {
  if (buf.size() != kBlockSize) return Status::kInvalidArgument;
  if (lba >= num_blocks_) return Status::kOutOfRange;
  const u8* src = block(lba);
  if (src != nullptr) {
    std::memcpy(buf.data(), src, kBlockSize);
  } else {
    std::memset(buf.data(), 0, kBlockSize);
  }
  return Status::kOk;
}

Status SdCard::backdoor_write(u32 lba, std::span<const u8> buf) {
  if (buf.size() != kBlockSize) return Status::kInvalidArgument;
  if (lba >= num_blocks_) return Status::kOutOfRange;
  auto& b = blocks_[lba];
  if (!b) b = std::make_unique<std::array<u8, kBlockSize>>();
  std::memcpy(b->data(), buf.data(), kBlockSize);
  return Status::kOk;
}

}  // namespace rvcap::storage
