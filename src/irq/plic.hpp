// Platform-level interrupt controller (PLIC).
//
// The RV-CAP DMA completion interrupts are "directly connected to the
// processor-level interrupt controller (PLIC) to support non-blocking
// mode during data transfer" (§III-B). Level-triggered gateway per
// source, priority/enable/threshold, claim/complete — single hart,
// M-mode context only, which is what the bare-metal driver uses.
#pragma once

#include <vector>

#include "axi/lite_slave.hpp"

namespace rvcap::irq {

class Plic : public axi::AxiLiteSlave {
 public:
  // Register map (offsets from device base), RISC-V PLIC spec layout.
  static constexpr Addr kPriorityBase = 0x0000'0000;  // 4 bytes/source
  static constexpr Addr kPendingBase = 0x0000'1000;
  static constexpr Addr kEnableBase = 0x0000'2000;
  static constexpr Addr kThreshold = 0x0020'0000;
  static constexpr Addr kClaimComplete = 0x0020'0004;

  Plic(std::string name, u32 num_sources);

  /// Drive a source's level (device-side). Source ids start at 1, as in
  /// the PLIC spec; source 0 means "no interrupt". Wakes the PLIC on a
  /// level change so the gateway can latch under the scheduled kernel.
  void set_source_level(u32 source, bool level) {
    if (source != 0 && source < level_.size() && level_[source] != level) {
      change_level(source, level);
    }
  }

  /// True when an enabled pending source exceeds the threshold — the
  /// external-interrupt line into the hart. O(1): the CPU's WFI wait
  /// polls it every kernel step.
  bool eip() const { return best_ != 0; }

  u32 num_sources() const { return static_cast<u32>(level_.size() - 1); }

 protected:
  u32 read_reg(Addr addr) override;
  void write_reg(Addr addr, u32 value) override;
  bool device_tick() override;
  bool device_ready() const override;

 private:
  void change_level(u32 source, bool level);
  /// Scan for the highest-priority enabled pending source above the
  /// threshold (lowest id on a tie); 0 when none.
  u32 scan_best() const;
  /// Re-derive best_ after a gateway latch, an enable, priority or
  /// threshold write, or a claim (a complete changes none of them).
  void update_best() { best_ = scan_best(); }

  std::vector<bool> level_;     // raw device lines
  std::vector<bool> pending_;   // gateway latched
  std::vector<bool> in_flight_; // claimed, awaiting complete
  std::vector<u32> priority_;
  std::vector<bool> enable_;
  u32 threshold_ = 0;
  u32 best_ = 0;  // scan_best(), kept current by update_best()
};

/// Handle a device uses to drive its interrupt line.
class IrqLine {
 public:
  IrqLine() = default;
  IrqLine(Plic* plic, u32 source) : plic_(plic), source_(source) {}

  void set(bool level) {
    if (plic_ != nullptr) plic_->set_source_level(source_, level);
  }
  bool connected() const { return plic_ != nullptr; }
  u32 source() const { return source_; }

 private:
  Plic* plic_ = nullptr;
  u32 source_ = 0;
};

}  // namespace rvcap::irq
