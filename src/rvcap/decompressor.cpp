#include "rvcap/decompressor.hpp"

#include "common/log.hpp"

namespace rvcap::rvcap_ctrl {

using bitstream::kCompressMagic;
using bitstream::kLiteralTag;
using bitstream::kRunCountMask;
using bitstream::kZeroTag;

Decompressor::Decompressor(std::string name, axi::AxisFifo& in,
                           axi::AxisFifo& out)
    : Component(std::move(name)), in_(in), out_(out) {
  in_.watch_as_consumer(this);
  out_.watch_as_producer(this);
}

void Decompressor::set_enabled(bool e) {
  enabled_ = e;
  state_ = State::kMagic;
  run_left_ = 0;
  have_pending_in_ = false;
  have_pending_out_ = false;
  saw_last_in_ = false;
  format_error_ = false;
  wake();
}

bool Decompressor::next_input_word(u32* w) {
  if (have_pending_in_) {
    *w = pending_in_;
    have_pending_in_ = false;
    return true;
  }
  if (const axi::AxisBeat* b = in_.front()) {
    *w = bswap(static_cast<u32>(b->data & 0xFFFFFFFF));
    if ((b->keep & 0xF0) != 0) {
      pending_in_ = bswap(static_cast<u32>(b->data >> 32));
      have_pending_in_ = true;
    }
    if (b->last) saw_last_in_ = true;
    in_.pop();
    return true;
  }
  return false;
}

void Decompressor::emit_word(u32 w) {
  if (!have_pending_out_) {
    pending_out_ = w;
    have_pending_out_ = true;
    return;
  }
  const u64 data =
      (u64{bswap(w)} << 32) | bswap(pending_out_);
  out_.push(axi::AxisBeat{data, 0xFF, false});
  have_pending_out_ = false;
}

bool Decompressor::tick() {
  if (!ready()) return false;
  if (!enabled_) {
    // Passthrough wire.
    out_.push(*in_.pop());
    return ready();
  }
  decode();
  return ready();
}

void Decompressor::decode() {
  // Emit at most one beat (two words) per cycle.
  for (int half = 0; half < 2; ++half) {
    switch (state_) {
      case State::kMagic: {
        u32 w;
        if (!next_input_word(&w)) return;
        if (w != kCompressMagic) {
          format_error_ = true;
          log_warn("decompressor: bad magic 0x", std::hex, w);
          return;
        }
        state_ = State::kHeader;
        break;
      }
      case State::kHeader: {
        u32 w;
        if (!next_input_word(&w)) return;
        const u32 tag = w >> 28;
        run_left_ = w & kRunCountMask;
        if (tag == kLiteralTag) {
          state_ = run_left_ > 0 ? State::kLiteral : State::kHeader;
        } else if (tag == kZeroTag) {
          state_ = run_left_ > 0 ? State::kZeros : State::kHeader;
        } else {
          format_error_ = true;
          log_warn("decompressor: bad record tag");
          return;
        }
        break;
      }
      case State::kLiteral: {
        u32 w;
        if (!next_input_word(&w)) return;
        emit_word(w);
        if (--run_left_ == 0) state_ = State::kHeader;
        break;
      }
      case State::kZeros:
        emit_word(0);
        if (--run_left_ == 0) state_ = State::kHeader;
        break;
    }
  }

  // Odd total word count: flush the final half-beat once the input
  // stream has ended (the original bitstream had an odd word count).
  if (flush_due() && out_.can_push()) {
    out_.push(axi::AxisBeat{u64{bswap(pending_out_)}, 0x0F, true});
    have_pending_out_ = false;
  }
}

bool Decompressor::flush_due() const {
  return saw_last_in_ && !have_pending_in_ && run_left_ == 0 &&
         have_pending_out_;
}

bool Decompressor::ready() const {
  if (!out_.can_push()) return false;  // downstream back-pressure
  if (!enabled_) return in_.can_pop();
  // Every decoder step consumes an input word, emits a zero word, or
  // flushes the final half-beat.
  return !format_error_ && (in_.can_pop() || have_pending_in_ ||
                            state_ == State::kZeros || flush_due());
}

bool Decompressor::busy() const {
  return in_.can_pop() || have_pending_in_ ||
         (enabled_ && (run_left_ > 0 || have_pending_out_));
}

}  // namespace rvcap::rvcap_ctrl
