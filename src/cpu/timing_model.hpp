// Instruction-timing model of the Ariane (CVA6) core for the driver
// software layer.
//
// The drivers in src/driver are real C++ running against the simulated
// bus; this model charges the core-side cycles a load/store/branch
// costs on Ariane *in addition to* the simulated bus round trip. The
// constants are calibrated against the paper's §IV-B measurements and
// matter most for the AXI_HWICAP baseline, whose throughput is purely
// software-limited:
//
//  * Ariane is a single-issue in-order core that does NOT speculate
//    past accesses to non-cacheable regions ("the Ariane core is not
//    allowed to start speculative memory access to the non-cacheable
//    memory address area of the HWICAP", §IV-B). Every MMIO access
//    therefore drains the pipeline: uncached_access_core_cycles.
//  * The loop closing a FIFO-write iteration (pointer increment,
//    compare, conditional branch) cannot overlap the pending MMIO
//    store, costing loop_overhead_cycles per iteration. Unrolling by U
//    divides this term by U — reproducing the paper's 4.16 -> 8.23 MB/s
//    gain at U=16 and the "<5% beyond U=16" saturation.
//
// The bus round trip of an MMIO store to the AXI_HWICAP is 8 cycles
// (DESIGN.md §5), timed by CpuContext's register call: the crossbar
// takes the address in cycle T and the data in T+1, the converter
// chain hands both to the device in T+1, the device answers in T+2,
// the response crosses the chain's 4 hops back (T+6) and the crossbar
// (T+7), and the CPU sees it at T+8. A read is 7 cycles; the
// peripheral window adds a decoder hop.
//   per-word cost(U) = 8 + uncached + loop/U
//   U=1:  ~88 cycles/word -> ~4.4 MB/s;  U=16: ~47 -> ~8.2 MB/s
// (measured with the vacancy polls and FIFO flushes included).
#pragma once

#include "common/types.hpp"

namespace rvcap::cpu {

struct CpuTimingModel {
  /// Core-side pipeline-drain cost of an access to a non-cacheable
  /// (MMIO) region, excluding the bus round trip.
  u32 uncached_access_core_cycles = 36;

  /// Core-side cost of a cached data access (D$ hit path); the bus
  /// transaction itself is still simulated for correctness.
  u32 cached_access_core_cycles = 1;

  /// Per-iteration loop-control cost that cannot be speculated past a
  /// pending non-cacheable access (compare + taken branch + refetch).
  u32 loop_overhead_cycles = 44;

  /// Function call/return overhead (driver API boundaries).
  u32 call_overhead_cycles = 8;

  /// Trap entry to first handler instruction (mret path included in
  /// the handler's own cost).
  u32 irq_entry_cycles = 40;

  /// Generic per-"instruction bundle" cost used by spend() annotations
  /// in the drivers (ALU-dominated bookkeeping code, IPC ~1).
  u32 cycles_per_instruction = 1;
};

}  // namespace rvcap::cpu
