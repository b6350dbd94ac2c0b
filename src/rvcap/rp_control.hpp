// RP control interface (Fig. 2 component 3).
//
// The memory-mapped block the driver's decouple_accel()/select_ICAP()
// calls hit: it drives the AXI isolator's decouple input and the
// AXI-Stream switch's select input, and forwards R/W control-register
// accesses to the reconfigurable module when the partition is coupled.
//
// Multi-slot layout: the register window repeats every 0x100 bytes,
// one window per reconfigurable-partition slot (bits [11:8] of the
// address select the slot; slot 0's window is 0x00..0xFF).
// The decouple bit and RM register file are per-slot; select_ICAP,
// decompress, the abort pulse, and rm_select drive the single shared
// ICAP/stream datapath and behave identically from any slot window.
#pragma once

#include <array>
#include <functional>
#include <vector>

#include "axi/isolator.hpp"
#include "axi/lite_slave.hpp"
#include "axi/stream_switch.hpp"

namespace rvcap::rvcap_ctrl {

/// Control-register view a reconfigurable module exposes through the RP
/// control interface while coupled.
class RmRegisterFile {
 public:
  virtual ~RmRegisterFile() = default;
  virtual u32 rm_reg_read(u32 index) = 0;
  virtual void rm_reg_write(u32 index, u32 value) = 0;
};

class RpControl : public axi::AxiLiteSlave {
 public:
  static constexpr Addr kControl = 0x00;  // bit0 decouple, bit1 select_ICAP
  static constexpr Addr kStatus = 0x04;
  /// Global acceleration-stream routing: which slot's RM port the
  /// switch serves. Read/write, mirrored into every slot window.
  static constexpr Addr kRmSelect = 0x08;
  static constexpr Addr kRmRegBase = 0x10;  // 16 forwarded RM registers
  static constexpr u32 kNumRmRegs = 16;
  /// Byte stride between per-slot register windows.
  static constexpr Addr kSlotStride = 0x100;
  static constexpr u32 kMaxSlots = 16;

  static constexpr u32 kCtlDecouple = 1u << 0;
  static constexpr u32 kCtlSelectIcap = 1u << 1;
  static constexpr u32 kCtlDecompress = 1u << 2;
  /// Self-clearing pulse: abort the ICAP-side datapath (flush stream
  /// FIFOs, reset the decompressor/AXIS2ICAP packers, desync the ICAP).
  /// Reads back as 0.
  static constexpr u32 kCtlIcapAbort = 1u << 4;
  static constexpr u32 kStDecoupled = 1u << 0;
  static constexpr u32 kStIcapSelected = 1u << 1;
  static constexpr u32 kStRmActive = 1u << 2;
  static constexpr u32 kStDecompress = 1u << 3;
  /// The ICAP-side datapath (decompressor) still holds in-flight data:
  /// software must not flip routes until this clears.
  static constexpr u32 kStDraining = 1u << 4;

  /// Every slot, slot 0 included, comes from add_slot().
  RpControl(std::string name, axi::AxisSwitch& axis_switch);

  /// Register the isolator of the next reconfigurable-partition slot;
  /// returns the new slot index. Wiring-time only.
  u32 add_slot(axi::AxisIsolator& isolator);
  u32 num_slots() const { return static_cast<u32>(slots_.size()); }

  /// Wire the optional bitstream decompressor (controlled by bit 2).
  void attach_decompressor(class Decompressor* d) { decomp_ = d; }

  /// Invoked on a kCtlIcapAbort pulse; the controller wires its
  /// datapath-flush routine here.
  void set_abort_hook(std::function<void()> hook) {
    abort_hook_ = std::move(hook);
  }

  /// The SoC wires the active RM's register file here (nullptr while
  /// the partition holds no module).
  void attach_rm(u32 slot, RmRegisterFile* rm, u32 rm_id) {
    slots_[slot].rm = rm;
    slots_[slot].rm_id = rm_id;
  }

  bool decoupled(u32 slot = 0) const { return slots_[slot].decouple; }
  bool icap_selected() const { return select_icap_; }
  /// RM register accesses dropped in `slot`'s window while isolated.
  u64 blocked_rm_accesses(u32 slot) const { return slots_[slot].blocked; }

 protected:
  u32 read_reg(Addr addr) override;
  void write_reg(Addr addr, u32 value) override;

 private:
  /// Per-slot decouple/RM state (the shared datapath bits live outside).
  struct Slot {
    axi::AxisIsolator* isolator = nullptr;
    bool decouple = false;
    RmRegisterFile* rm = nullptr;
    u32 rm_id = 0;
    u64 blocked = 0;
  };

  axi::AxisSwitch& switch_;
  class Decompressor* decomp_ = nullptr;
  bool select_icap_ = false;
  bool decompress_ = false;
  std::vector<Slot> slots_;
  std::function<void()> abort_hook_;
};

}  // namespace rvcap::rvcap_ctrl
