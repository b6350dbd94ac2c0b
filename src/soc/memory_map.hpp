// SoC address map (Fig. 1) and PLIC interrupt source assignment.
#pragma once

#include "axi/types.hpp"

namespace rvcap::soc {

struct MemoryMap {
  /// On-chip boot memory holding application instructions + RM tables.
  static constexpr axi::AddrRange kBootMem{0x0001'0000, 0x0002'0000};
  /// Peripheral window served by one width/protocol converter chain.
  static constexpr axi::AddrRange kPeripherals{0x0200'0000, 0x2E00'0000};
  static constexpr axi::AddrRange kClint{0x0200'0000, 0x0001'0000};
  static constexpr axi::AddrRange kPlic{0x0C00'0000, 0x0400'0000};
  static constexpr axi::AddrRange kUart{0x1000'0000, 0x1000};
  static constexpr axi::AddrRange kSpi{0x2000'0000, 0x1000};
  /// Performance-counter window (obs::CounterRegistry via MMIO).
  static constexpr axi::AddrRange kPerfRegs{0x2200'0000, 0x1000};
  /// AXI_HWICAP window (vendor-controller deployment, §III-C).
  static constexpr axi::AddrRange kHwicap{0x4000'0000, 0x1000};
  /// RV-CAP controller: DMA control + RP control interfaces.
  static constexpr axi::AddrRange kDmaCtrl{0x4100'0000, 0x1000};
  static constexpr axi::AddrRange kRpCtrl{0x4200'0000, 0x1000};
  /// External DDR.
  static constexpr axi::AddrRange kDdr{0x8000'0000, 1ULL << 30};

  /// Default staging area for partial bitstreams in DDR (§III-B step 1
  /// loads them from the SD card to a "defined destination address").
  static constexpr Addr kPbitStagingBase = 0x8800'0000;
  /// Image buffers for the acceleration-mode case study.
  static constexpr Addr kImageInBase = 0x9000'0000;
  static constexpr Addr kImageOutBase = 0x9100'0000;
};

struct IrqMap {
  static constexpr u32 kDmaMm2s = 1;
  static constexpr u32 kDmaS2mm = 2;
  static constexpr u32 kSpi = 3;
  /// Scrub service: a full scrub pass finished (level held until the
  /// supervisor acks via ScrubService::ack_irqs()).
  static constexpr u32 kScrubDone = 4;
  /// Scrub service: unrepairable damage or a transport error mid-pass.
  static constexpr u32 kScrubError = 5;
  static constexpr u32 kNumSources = 5;
};

}  // namespace rvcap::soc
