#include "icap/icap.hpp"

#include "common/log.hpp"
#include "obs/observability.hpp"

namespace rvcap::icap {

using bitstream::Cmd;
using bitstream::ConfigReg;
using bitstream::decode_packet;
using bitstream::PacketHeader;
using bitstream::PacketOp;

Icap::Icap(std::string name, fabric::ConfigMemory& cfg)
    : Component(std::move(name)), cfg_(cfg) {
  frame_buf_.reserve(fabric::kFrameWords);
  in_.watch_as_consumer(this);     // words arriving on the write port
  rdata_.watch_as_producer(this);  // reader draining the readback FIFO
}

void Icap::on_register(obs::Observability& o) {
  const std::string prefix(name());
  obs::CounterRegistry& c = o.counters();
  c.register_fn(prefix + ".words", [this] { return words_; });
  c.register_fn(prefix + ".frames", [this] { return frames_committed_; });
  c.register_fn(prefix + ".readback_words",
                [this] { return words_read_back_; });
  c.register_fn(prefix + ".desyncs", [this] { return desyncs_; });
  c.register_fn(prefix + ".port_hwm",
                [this] { return static_cast<u64>(in_.high_water()); });
}

bool Icap::tick() {
  // Half-duplex 32-bit port: while a readback drains, input stalls.
  if (read_words_left_ > 0) {
    return emit_read_word();
  }
  // One 32-bit word per cycle: the 400 MB/s physical ceiling.
  if (auto w = in_.pop()) {
    ++words_;
    RVCAP_TRACE(trace_sink(), obs::EventKind::kIcapWord, trace_src(),
                sim_now(), *w);
    consume(*w);
    return true;
  }
  return false;
}

bool Icap::busy() const { return in_.can_pop() || read_words_left_ > 0; }

void Icap::abort() {
  in_.clear();
  rdata_.clear();
  read_words_left_ = 0;
  read_word_in_frame_ = 0;
  state_ = State::kUnsynced;
  cur_reg_ = 0;
  payload_left_ = 0;
  fdri_pending_type2_ = false;
  fdro_pending_type2_ = false;
  frame_buf_.clear();
  crc_.reset();
  wcfg_ = false;
  clear_errors();
}

void Icap::start_readback(u32 words) {
  read_words_left_ = words;
  read_word_in_frame_ = 0;
}

bool Icap::emit_read_word() {
  if (!rdata_.can_push()) return false;  // reader back-pressure
  const fabric::FrameAddr fa = fabric::FrameAddr::decode(far_);
  const std::vector<u32>* frame = cfg_.frame(fa);
  const u32 word = (frame != nullptr && read_word_in_frame_ < frame->size())
                       ? (*frame)[read_word_in_frame_]
                       : 0;  // unwritten frames read back as zeros
  rdata_.push(word);
  ++words_read_back_;
  RVCAP_TRACE(trace_sink(), obs::EventKind::kIcapReadWord, trace_src(),
              sim_now(), word);
  if (++read_word_in_frame_ == fabric::kFrameWords) {
    read_word_in_frame_ = 0;
    fabric::FrameAddr next = fa;
    if (cfg_.device().next_frame(&next)) far_ = next.encode();
  }
  --read_words_left_;
  return true;
}

void Icap::consume(u32 word) {
  if (fault_ != nullptr && state_ != State::kUnsynced) {
    namespace fs = sim::fault_sites;
    if (fault_->should_fire(sync_loss_)) {
      // Injected sync loss: the FSM falls out of sync and swallows
      // this and every following word until the next sync sequence.
      state_ = State::kUnsynced;
      cur_reg_ = 0;
      payload_left_ = 0;
      fdri_pending_type2_ = false;
      fdro_pending_type2_ = false;
      frame_buf_.clear();
      wcfg_ = false;
      return;
    }
    if ((state_ == State::kType1Data || state_ == State::kType2Data) &&
        fault_->should_fire(crc_corrupt_)) {
      // Injected single-bit upset on the 32-bit write port; the
      // bitstream's trailing CRC check catches the divergence.
      word ^= 1u << fault_->value(fs::kIcapCrcCorrupt, 32);
    }
  }
  switch (state_) {
    case State::kUnsynced:
      if (word == bitstream::kSyncWord) state_ = State::kSynced;
      return;

    case State::kSynced: {
      const PacketHeader h = decode_packet(word);
      if (h.type == 1) {
        if (h.op == PacketOp::kNop) return;
        if (h.op == PacketOp::kRead) {
          // FDRO readback request (other registers read as no-ops).
          if (h.reg == static_cast<u32>(ConfigReg::kFdro)) {
            if (h.count == 0) {
              fdro_pending_type2_ = true;
            } else {
              start_readback(h.count);
            }
          }
          return;
        }
        if (h.op != PacketOp::kWrite) return;
        cur_reg_ = h.reg;
        payload_left_ = h.count;
        if (cur_reg_ == static_cast<u32>(ConfigReg::kFdri) &&
            payload_left_ == 0) {
          fdri_pending_type2_ = true;
          return;
        }
        if (payload_left_ > 0) state_ = State::kType1Data;
        return;
      }
      if (h.type == 2 && h.op == PacketOp::kWrite && fdri_pending_type2_) {
        fdri_pending_type2_ = false;
        cur_reg_ = static_cast<u32>(ConfigReg::kFdri);
        payload_left_ = h.count;
        if (payload_left_ > 0) state_ = State::kType2Data;
        return;
      }
      if (h.type == 2 && h.op == PacketOp::kRead && fdro_pending_type2_) {
        fdro_pending_type2_ = false;
        if (h.count > 0) start_readback(h.count);
        return;
      }
      // Anything else between packets is a protocol violation; the real
      // device would abort configuration. Log and ignore.
      log_debug("icap: unexpected word 0x", std::hex, word);
      return;
    }

    case State::kType1Data:
    case State::kType2Data: {
      const State before = state_;
      reg_write(cur_reg_, word);
      // DESYNC inside the payload moves to kUnsynced; keep that.
      if (--payload_left_ == 0 && state_ == before) state_ = State::kSynced;
      return;
    }
  }
}

void Icap::reg_write(u32 reg, u32 data) {
  switch (static_cast<ConfigReg>(reg)) {
    case ConfigReg::kCrc:
      if (data != crc_.value()) {
        crc_error_ = true;
        cfg_.notify_crc_error();
        log_warn("icap: CRC mismatch (expected 0x", std::hex, crc_.value(),
                 ", got 0x", data, ")");
      }
      crc_.reset();
      return;

    case ConfigReg::kFar:
      crc_.update(reg, data);
      far_ = data;
      frame_buf_.clear();
      return;

    case ConfigReg::kFdri:
      crc_.update(reg, data);
      frame_word(data);
      return;

    case ConfigReg::kIdcode:
      crc_.update(reg, data);
      if (data != bitstream::kIdCode) {
        idcode_mismatch_ = true;
        log_warn("icap: IDCODE mismatch");
      }
      return;

    case ConfigReg::kCmd:
      crc_.update(reg, data);
      switch (static_cast<Cmd>(data)) {
        case Cmd::kRcrc:
          crc_.reset();
          cfg_.notify_rcrc();
          break;
        case Cmd::kWcfg:
          wcfg_ = true;
          break;
        case Cmd::kDesync:
          state_ = State::kUnsynced;
          wcfg_ = false;
          frame_buf_.clear();
          ++desyncs_;
          RVCAP_TRACE(trace_sink(), obs::EventKind::kIcapDesync, trace_src(),
                      sim_now(), words_);
          break;
        case Cmd::kNull:
        case Cmd::kLfrm:
        case Cmd::kRcfg:
        case Cmd::kStart:
        case Cmd::kGrestore:
        default:  // no functional effect here
          break;
      }
      return;

    case ConfigReg::kFdro:
    case ConfigReg::kCtl0:
    case ConfigReg::kMask:
    case ConfigReg::kStat:
    case ConfigReg::kCor0:
    default:  // default keeps reg values outside the enum covered
      crc_.update(reg, data);
      return;
  }
}

void Icap::frame_word(u32 data) {
  if (!wcfg_ || idcode_mismatch_) return;  // not in write-config mode
  frame_buf_.push_back(data);
  if (frame_buf_.size() < fabric::kFrameWords) return;

  const fabric::FrameAddr fa = fabric::FrameAddr::decode(far_);
  cfg_.write_frame(fa, frame_buf_);
  ++frames_committed_;
  RVCAP_TRACE(trace_sink(), obs::EventKind::kIcapFrame, trace_src(),
              sim_now(), far_);
  frame_buf_.clear();
  // FAR auto-increment in device configuration order.
  fabric::FrameAddr next = fa;
  if (cfg_.device().next_frame(&next)) {
    far_ = next.encode();
  }
}

}  // namespace rvcap::icap
