#include "hwicap/hwicap.hpp"

#include "common/log.hpp"
#include "obs/observability.hpp"

namespace rvcap::hwicap {

HwIcap::HwIcap(std::string name, icap::Icap& icap, u32 write_fifo_depth,
               u32 read_fifo_depth)
    : AxiLiteSlave(std::move(name)), icap_(icap), fifo_(write_fifo_depth),
      rfifo_(read_fifo_depth) {
  icap_.port().watch_as_producer(this);       // vacancy reopens the drain
  icap_.read_port().watch_as_consumer(this);  // readback words arriving
}

void HwIcap::on_register(obs::Observability& o) {
  const std::string prefix(name());
  obs::CounterRegistry& c = o.counters();
  c.register_fn(prefix + ".words_written", [this] { return words_written_; });
  c.register_fn(prefix + ".dropped_words", [this] { return dropped_words_; });
  c.register_fn(prefix + ".write_fifo_hwm",
                [this] { return static_cast<u64>(fifo_.high_water()); });
  c.register_fn(prefix + ".read_fifo_hwm",
                [this] { return static_cast<u64>(rfifo_.high_water()); });
}

bool HwIcap::device_tick() {
  bool progress = false;
  if (writing_) {
    // Drain one word per cycle into the ICAP primitive.
    if (fifo_.can_pop() && icap_.port().can_push()) {
      icap_.port().push(*fifo_.pop());
      ++words_written_;
      progress = true;
    }
    if (fifo_.empty()) {
      writing_ = false;
      isr_ |= kIsrDone;
      progress = true;
    }
  }
  if (read_left_ > 0) {
    // Capture one readback word per cycle into the read FIFO.
    if (icap_.read_port().can_pop() && rfifo_.can_push()) {
      rfifo_.push(*icap_.read_port().pop());
      if (--read_left_ == 0) isr_ |= kIsrDone;
      progress = true;
    }
  }
  return progress;
}

bool HwIcap::device_ready() const {
  return (writing_ && (fifo_.empty() || icap_.port().can_push())) ||
         (read_left_ > 0 && icap_.read_port().can_pop() && rfifo_.can_push());
}

u32 HwIcap::read_reg(Addr addr) {
  switch (addr & 0xFFF) {
    case kGier: return gier_ ? 0x80000000u : 0;
    case kIsr: return isr_;
    case kIer: return ier_;
    case kSr: {
      u32 sr = 0;
      if (!writing_ && read_left_ == 0) sr |= kSrDone;
      return sr;
    }
    case kWfv: return static_cast<u32>(fifo_.vacancy());
    case kRf: {
      const auto w = rfifo_.pop();
      return w.has_value() ? *w : 0;
    }
    case kRfo: return static_cast<u32>(rfifo_.size());
    case kSz: return sz_;
    default: return 0;
  }
}

void HwIcap::write_reg(Addr addr, u32 value) {
  switch (addr & 0xFFF) {
    case kGier:
      gier_ = (value & 0x80000000u) != 0;
      break;
    case kIsr:
      isr_ &= ~value;  // write-1-to-clear
      break;
    case kIer:
      ier_ = value;
      break;
    case kWf:
      // Keyhole register: pushes into the write FIFO. Words written
      // into a full FIFO are lost, exactly as on the IP core — the
      // driver must respect WFV.
      if (!fifo_.push(value)) {
        ++dropped_words_;
        log_warn("hwicap: write FIFO overflow, word dropped");
      }
      break;
    case kSz:
      sz_ = value & 0x0FFFFFFF;
      break;
    case kCr:
      if (value & kCrSwReset) {
        fifo_.clear();
        rfifo_.clear();
        writing_ = false;
        read_left_ = 0;
        break;
      }
      if (value & kCrFifoClear) {
        fifo_.clear();
        rfifo_.clear();
      }
      if (value & kCrWrite) writing_ = true;
      if (value & kCrRead) read_left_ = sz_;
      break;
    default:
      break;
  }
}

bool HwIcap::device_busy() const {
  return writing_ || fifo_.can_pop() || read_left_ > 0;
}

}  // namespace rvcap::hwicap
