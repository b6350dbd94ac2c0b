#include "storage/spi.hpp"

namespace rvcap::storage {

SpiController::SpiController(std::string name, SdCard& card, u32 clock_divider)
    : AxiLiteSlave(std::move(name)), card_(card), divider_(clock_divider) {}

bool SpiController::device_tick() {
  // Not shifting: start a byte the last completion left startable.
  if (!shifting_) return start_shift(sim_now());
  if (sim_now() < shift_done_at_) {
    wake_at(shift_done_at_);  // re-armed: survives a flat->scheduled switch
    return false;
  }
  const u8 miso = card_.exchange(shift_byte_, (ssr_ & 1) == 0);
  rx_.push(miso);  // vacancy was checked before starting the shift
  ++bytes_;
  shifting_ = false;
  return true;
}

bool SpiController::start_shift(Cycles from) {
  if (shifting_ || !enabled_ || !tx_.can_pop() || !rx_.can_push()) {
    return false;
  }
  shift_byte_ = *tx_.pop();
  shift_done_at_ = from + 8 * divider_;
  wake_at(shift_done_at_);
  shifting_ = true;
  return true;
}

bool SpiController::device_ready() const {
  if (shifting_) return shift_done_at_ <= sim_now() + 1;
  return enabled_ && tx_.can_pop() && rx_.can_push();
}

u32 SpiController::read_reg(Addr addr) {
  switch (addr & 0xFF) {
    case kSr: {
      u32 sr = 0;
      if (rx_.empty()) sr |= kSrRxEmpty;
      if (rx_.full()) sr |= kSrRxFull;
      if (tx_.empty() && !shifting_) sr |= kSrTxEmpty;
      if (tx_.full()) sr |= kSrTxFull;
      if (shifting_) sr |= kSrBusy;
      return sr;
    }
    case kDrr: {
      const auto b = rx_.pop();
      start_shift(sim_now() + 1);
      return b.has_value() ? u32{*b} : 0xFFu;
    }
    case kSsr:
      return ssr_;
    case kCr:
      return enabled_ ? 0x1u : 0x0u;
    default:
      return 0;
  }
}

void SpiController::write_reg(Addr addr, u32 value) {
  switch (addr & 0xFF) {
    case kCr:
      enabled_ = (value & 1) != 0;
      if (value & (1u << 5)) tx_.clear();
      if (value & (1u << 6)) rx_.clear();
      start_shift(sim_now() + 1);
      break;
    case kDtr:
      tx_.push(static_cast<u8>(value & 0xFF));  // full FIFO drops, as HW
      start_shift(sim_now() + 1);
      break;
    case kSsr:
      ssr_ = value & 1;
      break;
    default:
      break;
  }
}

bool SpiController::device_busy() const {
  return shifting_ || tx_.can_pop();
}

}  // namespace rvcap::storage
