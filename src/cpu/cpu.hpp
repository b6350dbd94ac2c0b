// CPU software-execution context.
//
// Co-simulation style: driver code (src/driver) is native C++ on the
// host call stack, but every memory access goes through this context,
// which (1) performs a real transaction on the simulated bus, as the
// main crossbar's manager 0 or as a timed register call, and (2)
// advances simulated time by the bus round trip plus the
// CpuTimingModel's core-side cost. Blocking APIs
// run the simulator forward until the response arrives, so hardware
// (DMA, ICAP, SPI...) naturally progresses "while the CPU executes".
// Every wait is on a channel or the PLIC line, so it goes through
// Simulator::run_until_event and the scheduled kernel jumps the idle
// cycles of a round trip; each wait is bounded by the kernel's
// watchdog, and a timeout is logged and counted (bus_timeouts()).
// R and W are stamped channels (sim/fifo.hpp): read_buffer takes every
// span that has arrived in one wait, each beat at the cycle the
// per-beat loop would have popped it, and copies a span's payload out
// in one memcpy; write_buffer pushes a burst as one span (a partial
// first or last beat is a span of its own), each beat stamped with the
// cycle the per-beat loop would have pushed it.
//
// Register windows (DESIGN.md §5). The CPU reaches every AXI4-Lite
// register block with a timed register call: an uncached 32- or 64-bit
// access to a register window goes straight to its device's AXI4-Lite
// port, one 32-bit half at a time, and returns at the cycle the
// paper's converter chain (64->32 width converter, AXI4->AXI4-Lite
// protocol converter, and the peripheral window's address decoder)
// would have delivered the response. The chain is a fixed hop count
// per window, not a component; the crossbar does not tick for such an
// access, and its bus event is emitted at its own cycle. When the
// kernel is quiet in the cycle a half is served (Simulator::quiet), the
// device serves it in place (Simulator::serve_in_place) instead of
// through its port, so an untraced 32-bit call is one device tick and
// two kernel jumps: the core cycles with the serve lead, then the hops
// with the return. Every other access (cached, burst, or outside the
// register windows) goes out on port() to the main crossbar, which has
// no register routes.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "axi/crossbar.hpp"
#include "axi/lite_slave.hpp"
#include "axi/types.hpp"
#include "common/status.hpp"
#include "cpu/timing_model.hpp"
#include "irq/plic.hpp"
#include "sim/simulator.hpp"

namespace rvcap::cpu {

class CpuContext {
 public:
  CpuContext(sim::Simulator& sim, const CpuTimingModel& tm = CpuTimingModel{})
      : sim_(sim), tm_(tm) {}

  /// The CPU's manager link; connect to the main crossbar.
  axi::AxiPort& port() { return port_; }

  /// Response hops of a direct register chain: AXI4-Lite link,
  /// protocol converter, AXI link, width converter.
  static constexpr u32 kDirectHops = 4;
  /// Response hops of a decoded chain: the address decoder adds one.
  static constexpr u32 kDecodedHops = kDirectHops + 1;
  /// Cycles from a request reaching a register block to the tick that
  /// serves it.
  static constexpr Cycles kServeCycles = 1;

  /// Make uncached accesses to `range` timed register calls to
  /// `device` over a converter chain of `hops` response hops behind
  /// `bus`, the crossbar port() is the only manager of. A window with
  /// no device is a decoded window's hole: its decoder answers DECERR.
  /// Throws std::invalid_argument when two device windows overlap.
  void add_register_window(const axi::AddrRange& range,
                           axi::AxiLiteSlave* device, u32 hops,
                           axi::AxiCrossbar& bus);

  sim::Simulator& simulator() { return sim_; }
  const CpuTimingModel& timing() const { return tm_; }
  Cycles now() const { return sim_.now(); }

  // ---- MMIO (non-cacheable) accesses: full pipeline drain ----
  u32 load32_uncached(Addr a);
  void store32_uncached(Addr a, u32 v);
  u64 load64_uncached(Addr a);

  // ---- cached accesses (driver data buffers in DDR) ----
  u64 load64(Addr a);
  void store64(Addr a, u64 v);
  u8 load8(Addr a);
  void store8(Addr a, u8 v);

  /// Bulk cached transfers (memcpy-style driver loops): issued as
  /// 16-beat bursts, charging one core cycle per beat — the amortized
  /// cost of streaming through the D$ with hardware refill. Addresses
  /// need not be 8-byte aligned but transfers are whole bytes.
  void read_buffer(Addr a, std::span<u8> out);
  void write_buffer(Addr a, std::span<const u8> data);

  /// Annotate straight-line software cost (bundles ~= instructions).
  void spend_instructions(u64 n) {
    sim_.run_cycles(n * tm_.cycles_per_instruction);
  }
  /// Per-iteration loop-control cost next to non-cacheable accesses.
  void spend_loop_overhead() { sim_.run_cycles(tm_.loop_overhead_cycles); }
  void spend_call_overhead() { sim_.run_cycles(tm_.call_overhead_cycles); }

  /// Busy-wait until pred() holds (polling is accounted by the caller's
  /// loop of MMIO reads; this variant is for hardware conditions). The
  /// predicate may read only state a component tick changes (see
  /// Simulator::run_until_event).
  template <typename Pred>
  bool wait_for(Pred&& pred, Cycles timeout = 100'000'000) {
    return sim_.run_until_event(std::forward<Pred>(pred), timeout);
  }

  /// Sleep until the PLIC raises an external interrupt, then claim it.
  /// Returns the claimed source id (0 on timeout). `plic_claim_addr` is
  /// the bus address of the claim/complete register.
  u32 wait_for_irq(const irq::Plic& plic, Addr plic_claim_addr,
                   Cycles timeout = 100'000'000);
  /// Signal completion for a claimed source.
  void complete_irq(Addr plic_claim_addr, u32 source);

  // ---- statistics ----
  u64 bus_reads() const { return bus_reads_; }
  u64 bus_writes() const { return bus_writes_; }
  u64 bus_errors() const { return bus_errors_; }
  /// Requests that found no room, and responses that never came,
  /// within the kernel's watchdog (a wedged subordinate).
  u64 bus_timeouts() const { return bus_timeouts_; }

 private:
  /// A register window that takes timed calls (add_register_window).
  struct RegisterWindow {
    axi::AddrRange range;
    axi::AxiLiteSlave* device;  // nullptr: a hole, answered DECERR
    u32 hops;
    axi::AxiCrossbar* bus;
  };

  axi::AxiR blocking_read(Addr a, u8 size);
  void blocking_write(Addr a, u64 data, u8 strb, u8 size);
  /// The register window of `a`: its device window, else the hole
  /// containing it; nullptr when the access goes out on port().
  const RegisterWindow* timed_window(Addr a) const;
  /// Timed calls at `a`, issued now with the core cycles still to
  /// spend: a read of `halves` 32-bit halves, low word first, or a
  /// 32-bit write.
  u64 timed_read(const RegisterWindow& w, Addr a, u8 halves);
  void timed_write(const RegisterWindow& w, Addr a, u32 data);
  /// Have `d` serve a 32-bit read into `data`, or a write of `data`, in
  /// the current cycle, and return at the boundary after it: in place
  /// when the cycle is quiet (Simulator::quiet), else through its port.
  /// False (logged, counted) when the port never answers.
  bool serve(axi::AxiLiteSlave& d, Addr a, bool write, u32& data);
  /// Return from a timed call whose last response the chain collected
  /// now, emitting the crossbar's event on the way.
  void timed_return(const RegisterWindow& w, obs::EventKind kind, Addr a,
                    Cycles start);
  /// Wait for room in a request channel and push `beat`.
  template <typename T>
  bool push_request(sim::Fifo<T>& ch, const T& beat, Addr a);
  /// Wait until pred() holds; false (logged, counted) on the watchdog.
  template <typename Pred>
  bool bus_wait(Pred&& pred, const char* what, Addr a);

  sim::Simulator& sim_;
  CpuTimingModel tm_;
  axi::AxiPort port_;
  std::vector<RegisterWindow> windows_;
  u64 bus_reads_ = 0;
  u64 bus_writes_ = 0;
  u64 bus_errors_ = 0;
  u64 bus_timeouts_ = 0;
};

}  // namespace rvcap::cpu
