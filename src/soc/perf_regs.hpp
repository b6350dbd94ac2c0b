// Performance-counter window registers (DESIGN.md §11).
//
// An AXI4-Lite register file on the peripheral bus exposing the
// simulator's CounterRegistry to driver-side code; it is the SoC's only
// MMIO telemetry path. Firmware reads it the way it would read a
// hardware performance monitor on the real Genesys2: write an index
// into SELECT, then read the latched 64-bit value through
// VALUE_LO/VALUE_HI. The select wraps modulo the registered counter
// count, so firmware can scan the whole window with a free-running
// index and COUNT tells it where the window ends.
//
// Reads sample the live registry (counters registered via sampled
// getters cost one std::function call per MMIO read — off the
// simulation hot path by construction). VALUE_LO latches the full
// 64-bit value so a LO/HI pair is tear-free even while counters move.
#pragma once

#include "axi/lite_slave.hpp"
#include "obs/counters.hpp"

namespace rvcap::soc {

class PerfRegs : public axi::AxiLiteSlave {
 public:
  static constexpr Addr kSelect = 0x00;   // RW: counter index (wraps)
  static constexpr Addr kCount = 0x04;    // RO: registered counters
  static constexpr Addr kValueLo = 0x08;  // RO: latches the 64-bit value
  static constexpr Addr kValueHi = 0x0C;  // RO: high half of the latch

  explicit PerfRegs(std::string name) : AxiLiteSlave(std::move(name)) {}

  /// Attach the registry this window reads. The SoC assembly binds the
  /// owning Simulator's registry right after construction.
  void bind(const obs::CounterRegistry* reg) { reg_ = reg; }

  u32 select() const { return select_; }

 protected:
  u32 read_reg(Addr addr) override {
    switch (addr & 0xFF) {
      case kSelect:
        return select_;
      case kCount:
        return reg_ == nullptr ? 0
                               : static_cast<u32>(reg_->counter_count());
      case kValueLo: {
        const usize n = reg_ == nullptr ? 0 : reg_->counter_count();
        latch_ = n == 0 ? 0 : reg_->counter_value(select_ % n);
        return static_cast<u32>(latch_);
      }
      case kValueHi:
        return static_cast<u32>(latch_ >> 32);
      default:
        return 0;
    }
  }

  void write_reg(Addr addr, u32 value) override {
    if ((addr & 0xFF) == kSelect) select_ = value;
  }

 private:
  const obs::CounterRegistry* reg_ = nullptr;
  u32 select_ = 0;
  u64 latch_ = 0;
};

}  // namespace rvcap::soc
