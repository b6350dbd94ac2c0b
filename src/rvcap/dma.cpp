#include "rvcap/dma.hpp"

#include <algorithm>
#include <bit>

#include "common/log.hpp"
#include "obs/observability.hpp"

namespace rvcap::rvcap_ctrl {

AxiDma::AxiDma(std::string name, const Config& cfg)
    : AxiLiteSlave(std::move(name)), cfg_(cfg) {
  s2mm_buf_.reserve(cfg_.max_burst_beats);
  // An S2MM flush pushes a whole burst into mem_.w; a blocked flush
  // re-declares the need of its own (possibly final, shorter) burst.
  mem_.watch_manager(this);
  mem_.w.watch_as_producer(
      this, std::min<u32>(cfg_.max_burst_beats,
                          static_cast<u32>(mem_.w.capacity())));
  mm2s_out_.watch_as_producer(this);
  s2mm_in_.watch_as_consumer(this);
}

void AxiDma::on_register(obs::Observability& o) {
  const std::string prefix(name());
  obs::CounterRegistry& c = o.counters();
  c.register_fn(prefix + ".mm2s_bytes", [this] { return mm2s_bytes_total_; });
  c.register_fn(prefix + ".s2mm_bytes", [this] { return s2mm_bytes_total_; });
  c.register_fn(prefix + ".mm2s_jobs", [this] { return mm2s_done_count_; });
  c.register_fn(prefix + ".mm2s_out_hwm", [this] {
    return static_cast<u64>(mm2s_out_.high_water());
  });
  c.register_fn(prefix + ".s2mm_in_hwm", [this] {
    return static_cast<u64>(s2mm_in_.high_water());
  });
  mm2s_latency_ = c.histogram(prefix + ".mm2s_job_cycles");
  s2mm_latency_ = c.histogram(prefix + ".s2mm_job_cycles");
}

u32 AxiDma::read_reg(Addr addr) {
  switch (addr & 0xFF) {
    case kMm2sCr: return mm2s_cr_;
    case kMm2sSr: return mm2s_sr_;
    case kMm2sSa: return static_cast<u32>(mm2s_sa_);
    case kMm2sSaMsb: return static_cast<u32>(mm2s_sa_ >> 32);
    case kMm2sBeats: return static_cast<u32>(mm2s_beats_streamed_);
    case kS2mmCr: return s2mm_cr_;
    case kS2mmSr: return s2mm_sr_;
    case kS2mmDa: return static_cast<u32>(s2mm_da_);
    case kS2mmDaMsb: return static_cast<u32>(s2mm_da_ >> 32);
    default: return 0;
  }
}

void AxiDma::write_reg(Addr addr, u32 value) {
  switch (addr & 0xFF) {
    case kMm2sCr:
      if (value & kCrReset) {
        mm2s_cr_ = 0;
        mm2s_sr_ = kSrHalted;
        mm2s_job_.reset();
        mm2s_out_.clear();
        mm2s_beats_streamed_ = 0;
        mm2s_fault_beat_ = 0;
        mm2s_early_ioc_beat_ = 0;
        mm2s_stalled_ = false;
        break;
      }
      mm2s_cr_ = value;
      if (value & kCrRunStop) {
        mm2s_sr_ &= ~kSrHalted;
      } else {
        mm2s_sr_ |= kSrHalted;
      }
      break;
    case kMm2sSr:
      // Write-1-to-clear for interrupt bits; error causes stay sticky
      // until soft reset, as on the Xilinx core.
      mm2s_sr_ &= ~(value & (kSrIocIrq | kSrErrIrq));
      break;
    case kMm2sSa:
      mm2s_sa_ = (mm2s_sa_ & ~u64{0xFFFFFFFF}) | value;
      break;
    case kMm2sSaMsb:
      mm2s_sa_ = (mm2s_sa_ & 0xFFFFFFFF) | (u64{value} << 32);
      break;
    case kMm2sLength: {
      const u64 bytes = value & 0x03FFFFFF;
      if ((mm2s_cr_ & kCrRunStop) && bytes > 0 && !mm2s_job_.has_value()) {
        const u64 beats = (bytes + 7) / 8;
        mm2s_job_ = Mm2sJob{mm2s_sa_, bytes, beats};
        mm2s_job_bytes_ = bytes;
        mm2s_start_cycle_ = sim_now();
        RVCAP_TRACE(trace_sink(), obs::EventKind::kDmaMm2sStart, trace_src(),
                    sim_now(), mm2s_sa_, bytes);
        mm2s_sr_ &= ~kSrIdle;
        mm2s_beats_streamed_ = 0;
        mm2s_fault_beat_ = 0;
        mm2s_early_ioc_beat_ = 0;
        if (fault_ != nullptr) {
          namespace fs = sim::fault_sites;
          if (fault_->should_fire(fs::kDmaMm2sSlvErr)) {
            mm2s_fault_beat_ = 1 + fault_->value(fs::kDmaMm2sSlvErr, beats);
          }
          if (fault_->should_fire(fs::kDmaMm2sStall)) mm2s_stalled_ = true;
          if (beats > 1 && fault_->should_fire(fs::kDmaMm2sEarlyIoc)) {
            mm2s_early_ioc_beat_ =
                1 + fault_->value(fs::kDmaMm2sEarlyIoc, beats - 1);
          }
        }
      } else {
        log_warn("dma: MM2S length write ignored (halted or busy)");
      }
      break;
    }
    case kS2mmCr:
      if (value & kCrReset) {
        s2mm_cr_ = 0;
        s2mm_sr_ = kSrHalted;
        s2mm_job_.reset();
        s2mm_buf_.clear();
        s2mm_in_.clear();
        break;
      }
      s2mm_cr_ = value;
      if (value & kCrRunStop) {
        s2mm_sr_ &= ~kSrHalted;
      } else {
        s2mm_sr_ |= kSrHalted;
      }
      break;
    case kS2mmSr:
      s2mm_sr_ &= ~(value & kSrIocIrq);
      break;
    case kS2mmDa:
      s2mm_da_ = (s2mm_da_ & ~u64{0xFFFFFFFF}) | value;
      break;
    case kS2mmDaMsb:
      s2mm_da_ = (s2mm_da_ & 0xFFFFFFFF) | (u64{value} << 32);
      break;
    case kS2mmLength: {
      const u64 bytes = value & 0x03FFFFFF;
      if ((s2mm_cr_ & kCrRunStop) && bytes > 0 && !s2mm_job_.has_value()) {
        s2mm_job_ = S2mmJob{s2mm_da_, bytes};
        s2mm_job_bytes_ = bytes;
        s2mm_start_cycle_ = sim_now();
        RVCAP_TRACE(trace_sink(), obs::EventKind::kDmaS2mmStart, trace_src(),
                    sim_now(), s2mm_da_, bytes);
        s2mm_sr_ &= ~kSrIdle;
      } else {
        log_warn("dma: S2MM length write ignored (halted or busy)");
      }
      break;
    }
    default:
      break;
  }
  update_irqs();
}

bool AxiDma::device_tick() {
  // The IRQ lines follow SR and CR, which a tick changes only when a
  // job ends or fails.
  const u32 mm2s_sr = mm2s_sr_;
  const u32 s2mm_sr = s2mm_sr_;
  const bool mm2s = tick_mm2s();
  const bool s2mm = tick_s2mm();
  if (mm2s_sr != mm2s_sr_ || s2mm_sr != s2mm_sr_) update_irqs();
  return mm2s || s2mm;
}

bool AxiDma::tick_mm2s() {
  if (!mm2s_job_.has_value()) {
    // Drain read data from bursts that were in flight when the job
    // ended early (injected error or premature IOC); left in place it
    // would wedge the memory crossbar and poison the next transfer.
    if (mem_.r.can_pop()) {
      const axi::AxiR r = *mem_.r.pop();
      if (r.last && mm2s_bursts_outstanding_ > 0) --mm2s_bursts_outstanding_;
      return true;
    }
    return false;
  }
  if (mm2s_stalled_) return false;  // injected wedge: sleeps until reset
  bool progress = false;
  Mm2sJob& j = *mm2s_job_;

  // Issue read bursts, keeping up to max_outstanding in flight.
  if (j.bytes_left_to_request > 0 &&
      mm2s_bursts_outstanding_ < cfg_.max_outstanding &&
      mem_.ar.can_push()) {
    const u64 beats_needed = (j.bytes_left_to_request + 7) / 8;
    const u32 beats =
        static_cast<u32>(std::min<u64>(beats_needed, cfg_.max_burst_beats));
    mem_.ar.push(axi::AxiAr{j.addr, static_cast<u8>(beats - 1), 3});
    j.addr += u64{beats} * 8;
    j.bytes_left_to_request -=
        std::min<u64>(j.bytes_left_to_request, u64{beats} * 8);
    ++mm2s_bursts_outstanding_;
    progress = true;
  }

  // Move read data into the output stream, one beat per cycle.
  if (mem_.r.can_pop() && mm2s_out_.can_push()) {
    const axi::AxiR r = *mem_.r.pop();
    if (r.last) --mm2s_bursts_outstanding_;
    ++mm2s_beats_streamed_;
    if (mm2s_fault_beat_ != 0 && mm2s_beats_streamed_ == mm2s_fault_beat_) {
      // Injected SLVERR on the read channel: the engine drops the
      // transfer and halts with DMASlvErr, as the Xilinx core does.
      mm2s_job_.reset();
      mm2s_fault_beat_ = 0;
      mm2s_cr_ &= ~kCrRunStop;
      mm2s_sr_ |= kSrDmaSlvErr | kSrErrIrq | kSrHalted;
      RVCAP_TRACE(trace_sink(), obs::EventKind::kDmaMm2sError, trace_src(),
                  sim_now(), mm2s_sr_);
      return true;
    }
    const bool early = (mm2s_early_ioc_beat_ != 0 &&
                        mm2s_beats_streamed_ == mm2s_early_ioc_beat_);
    const bool stream_last = (j.beats_left_to_stream == 1) || early;
    mm2s_out_.push(axi::AxisBeat{r.data, 0xFF, stream_last});
    if (--j.beats_left_to_stream == 0 || early) {
      // `early` is the injected premature-IOC fault: completion is
      // signalled with part of the bitstream never streamed.
      mm2s_job_.reset();
      mm2s_early_ioc_beat_ = 0;
      mm2s_sr_ |= kSrIdle | kSrIocIrq;
      ++mm2s_done_count_;
      mm2s_bytes_total_ += mm2s_job_bytes_;
      const Cycles lat = sim_now() - mm2s_start_cycle_;
      if (mm2s_latency_ != nullptr) mm2s_latency_->record(lat);
      RVCAP_TRACE(trace_sink(), obs::EventKind::kDmaMm2sDone, trace_src(),
                  sim_now(), mm2s_job_bytes_, mm2s_beats_streamed_, lat);
    }
    progress = true;
  }
  return progress;
}

bool AxiDma::tick_s2mm() {
  if (!s2mm_job_.has_value()) return false;
  bool progress = false;
  S2mmJob& j = *s2mm_job_;

  // Accept stream beats into the burst buffer, one per cycle.
  if (j.bytes_left > 0 && s2mm_buf_.size() < cfg_.max_burst_beats &&
      s2mm_in_.can_pop()) {
    const axi::AxisBeat b = *s2mm_in_.pop();
    s2mm_buf_.push_back(axi::AxiW{b.data, b.keep, false});
    j.bytes_left -= std::min<u64>(j.bytes_left, std::popcount(b.keep));
    progress = true;
  }

  // Flush a full burst (or the final partial burst).
  if (flush_due() && mem_.w.vacancy() < s2mm_buf_.size()) {
    mem_.w.watch_as_producer(this, static_cast<u32>(s2mm_buf_.size()));
  }
  if (flush_due() && mem_.aw.can_push() &&
      mem_.w.vacancy() >= s2mm_buf_.size()) {
    mem_.aw.push(axi::AxiAw{
        j.addr, static_cast<u8>(s2mm_buf_.size() - 1), 3});
    s2mm_buf_.back().last = true;
    mem_.w.push_beats(sim_now(), 0, s2mm_buf_);  // one span
    j.addr += s2mm_buf_.size() * 8;
    s2mm_buf_.clear();
    ++j.bursts_in_flight;
    progress = true;
  }

  // Retire write responses.
  if (mem_.b.can_pop()) {
    mem_.b.pop();
    --j.bursts_in_flight;
    progress = true;
  }

  if (j.bytes_left == 0 && s2mm_buf_.empty() && j.bursts_in_flight == 0) {
    s2mm_job_.reset();
    s2mm_sr_ |= kSrIdle | kSrIocIrq;
    s2mm_bytes_total_ += s2mm_job_bytes_;
    const Cycles lat = sim_now() - s2mm_start_cycle_;
    if (s2mm_latency_ != nullptr) s2mm_latency_->record(lat);
    RVCAP_TRACE(trace_sink(), obs::EventKind::kDmaS2mmDone, trace_src(),
                sim_now(), s2mm_job_bytes_, 0, lat);
    progress = true;
  }
  return progress;
}

bool AxiDma::flush_due() const {
  return s2mm_buf_.size() == cfg_.max_burst_beats ||
         (s2mm_job_->bytes_left == 0 && !s2mm_buf_.empty());
}

bool AxiDma::device_ready() const {
  if (!mm2s_job_.has_value()) {
    if (mem_.r.can_pop()) return true;  // draining an ended job's bursts
  } else if (!mm2s_stalled_) {
    const Mm2sJob& j = *mm2s_job_;
    if ((j.bytes_left_to_request > 0 &&
         mm2s_bursts_outstanding_ < cfg_.max_outstanding &&
         mem_.ar.can_push()) ||
        (mem_.r.can_pop() && mm2s_out_.can_push())) {
      return true;
    }
  }
  if (!s2mm_job_.has_value()) return false;
  const S2mmJob& j = *s2mm_job_;
  return (j.bytes_left > 0 && s2mm_buf_.size() < cfg_.max_burst_beats &&
          s2mm_in_.can_pop()) ||
         (flush_due() && mem_.aw.can_push() &&
          mem_.w.vacancy() >= s2mm_buf_.size()) ||
         mem_.b.can_pop() ||
         (j.bytes_left == 0 && s2mm_buf_.empty() && j.bursts_in_flight == 0);
}

void AxiDma::update_irqs() {
  mm2s_irq_.set(((mm2s_sr_ & kSrIocIrq) && (mm2s_cr_ & kCrIocIrqEn)) ||
                ((mm2s_sr_ & kSrErrIrq) && (mm2s_cr_ & kCrErrIrqEn)));
  s2mm_irq_.set((s2mm_sr_ & kSrIocIrq) && (s2mm_cr_ & kCrIocIrqEn));
}

bool AxiDma::device_busy() const {
  return mm2s_job_.has_value() || s2mm_job_.has_value() ||
         mm2s_bursts_outstanding_ > 0 || mem_.r.can_pop() ||
         mem_.b.can_pop() || s2mm_in_.can_pop();
}

}  // namespace rvcap::rvcap_ctrl
