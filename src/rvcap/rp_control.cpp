#include "rvcap/rp_control.hpp"

#include <cassert>

#include "rvcap/decompressor.hpp"

namespace rvcap::rvcap_ctrl {

RpControl::RpControl(std::string name, axi::AxisSwitch& axis_switch)
    : AxiLiteSlave(std::move(name)), switch_(axis_switch) {}

u32 RpControl::add_slot(axi::AxisIsolator& isolator) {
  assert(slots_.size() < kMaxSlots);
  slots_.push_back(Slot{&isolator});
  return static_cast<u32>(slots_.size() - 1);
}

u32 RpControl::read_reg(Addr addr) {
  const u32 slot = static_cast<u32>((addr >> 8) & 0xF);
  const Addr off = addr & 0xFF;
  if (slot >= slots_.size()) return 0;  // window beyond populated slots
  Slot& s = slots_[slot];
  if (off == kControl) {
    return (s.decouple ? kCtlDecouple : 0) |
           (select_icap_ ? kCtlSelectIcap : 0) |
           (decompress_ ? kCtlDecompress : 0);
  }
  if (off == kStatus) {
    u32 st = 0;
    if (s.decouple) st |= kStDecoupled;
    if (select_icap_) st |= kStIcapSelected;
    if (s.rm != nullptr) st |= kStRmActive;
    if (decompress_) st |= kStDecompress;
    if (decomp_ != nullptr && decomp_->busy()) st |= kStDraining;
    st |= (s.rm_id & 0xFF) << 8;
    return st;
  }
  if (off == kRmSelect) return switch_.rm_select();
  if (off >= kRmRegBase && off < kRmRegBase + 4 * kNumRmRegs) {
    if (s.decouple || s.rm == nullptr) {
      ++s.blocked;  // decoupled: fabric reads back zeros
      return 0;
    }
    return s.rm->rm_reg_read(static_cast<u32>((off - kRmRegBase) / 4));
  }
  return 0;
}

void RpControl::write_reg(Addr addr, u32 value) {
  const u32 slot = static_cast<u32>((addr >> 8) & 0xF);
  const Addr off = addr & 0xFF;
  if (slot >= slots_.size()) return;  // window beyond populated slots
  Slot& s = slots_[slot];
  if (off == kControl) {
    s.decouple = (value & kCtlDecouple) != 0;
    select_icap_ = (value & kCtlSelectIcap) != 0;
    s.isolator->set_decoupled(s.decouple);
    switch_.set_select_icap(select_icap_);
    const bool want_decompress = (value & kCtlDecompress) != 0;
    if (want_decompress != decompress_) {
      decompress_ = want_decompress;
      if (decomp_ != nullptr) decomp_->set_enabled(decompress_);
    }
    // Abort is a pulse, not stored state: it fires once per write.
    if ((value & kCtlIcapAbort) != 0 && abort_hook_) abort_hook_();
    return;
  }
  if (off == kRmSelect) {
    switch_.set_rm_select(value);
    return;
  }
  if (off >= kRmRegBase && off < kRmRegBase + 4 * kNumRmRegs) {
    if (s.decouple || s.rm == nullptr) {
      ++s.blocked;  // dropped while isolated
      return;
    }
    s.rm->rm_reg_write(static_cast<u32>((off - kRmRegBase) / 4), value);
  }
}

}  // namespace rvcap::rvcap_ctrl
