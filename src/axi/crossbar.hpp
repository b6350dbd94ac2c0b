// 64-bit AXI-4 crossbar — the SoC's main interconnect (Fig. 1) and the
// additional crossbar between the RV-CAP DMA and the DDR controller
// (Fig. 2, component 1).
//
// Routing model: address-decoded, round-robin arbitration per cycle,
// in-order per subordinate. Transaction origin is tracked with internal
// route queues instead of AXI IDs; since every subordinate in the SoC
// responds in order, this is behaviourally equivalent. Unmapped accesses
// get DECERR responses, as the Xilinx crossbar does.
//
// Open routes, in-progress W bursts and owed DECERR responses are kept
// as bitmasks (one bit per subordinate or manager), so a tick only
// visits the ports that have something in flight and an idle phase
// costs nothing.
//
// R and W are stamped channels (sim/fifo.hpp): once a burst's first
// beat is visible, one tick forwards every queued span of it in one
// step, each beat at the cycle the per-beat crossbar would have moved
// it (one beat per subordinate R channel and per manager W channel per
// cycle, no earlier than its stamp, and only where the far FIFO is sure
// to have room then). A span splits where that room runs out; the rest
// waits for the cycle of its first beat. Address channels, B and DECERR
// beats stay per-beat.
#pragma once

#include <deque>
#include <optional>
#include <stdexcept>
#include <vector>

#include "axi/types.hpp"
#include "obs/trace.hpp"
#include "sim/component.hpp"

namespace rvcap::axi {

class AxiCrossbar : public sim::Component {
 public:
  explicit AxiCrossbar(std::string name);

  /// Register a manager-side link; returns the manager index.
  usize add_manager(AxiPort* port);

  /// Register a subordinate behind an address window.
  /// Throws std::invalid_argument on overlapping windows.
  void add_subordinate(const AddrRange& range, AxiPort* port);

  bool tick() override;
  bool busy() const override;
  void on_register(obs::Observability& o) override;

  /// Count of address-decode failures (DECERR responses generated).
  u64 decode_errors() const { return decode_errors_; }

  /// The bus event of a single-beat access that a timed register call
  /// (cpu::CpuContext) made without this crossbar ticking. Call it at
  /// the boundary before the cycle in which the crossbar would have
  /// moved the response; `start` is the cycle it would have taken the
  /// address. This crossbar is slot 0, so the event lands in the trace
  /// where the crossbar would have emitted it.
  void trace_timed_call(obs::EventKind kind, Addr addr, Cycles start);

  /// Cycles manager m spent with an unaccepted AR/AW at the end of a
  /// progressing tick — the interconnect contention metric. Counted
  /// only inside progressing ticks so both kernels agree exactly.
  u64 stall_cycles(usize m) const { return stalls_[m]; }

 private:
  struct ReadRoute {
    usize manager;
    u32 beats_left;
    u32 beats_total;  // burst length, for the retire event
    Addr addr;
    Cycles start;     // AR accept cycle
  };
  struct WriteRoute {
    usize manager;
    u32 beats;
    Addr addr;
    Cycles start;     // AW accept cycle
  };
  struct ActiveWrite {
    usize sub;           // target subordinate index
    u32 beats_left;      // W beats still to forward
    bool to_error_sink;  // unmapped: swallow beats, answer DECERR
    Cycles next = 0;     // first cycle the next W beat may move
  };
  struct ErrorRead {
    u32 beats_left;  // DECERR R beats still owed to the manager
  };

  std::optional<usize> decode(Addr a) const;
  /// Whether the next tick can progress; arms the deadline of a burst
  /// whose last beat moves later while an AW waits behind it.
  bool ready();
  bool arbitrate_ar();
  bool arbitrate_aw();
  /// Move up to `beats` queued beats of one burst from `in` to `out`
  /// (Fifo::move_from); a beat that found no room retries at its own
  /// cycle. `progress` notes a beat moved at this cycle.
  template <typename T>
  usize move_burst(sim::Fifo<T>& in, sim::Fifo<T>& out, Cycles& c,
                   u32 beats, bool& progress);
  bool forward_w();
  /// Manager m's burst has moved every beat, the last one by now.
  bool write_done(usize m) const;
  bool return_r();
  bool return_b();
  bool drain_error_reads();

  std::vector<AxiPort*> managers_;
  std::vector<AddrRange> ranges_;
  std::vector<AxiPort*> subs_;

  // Per-subordinate queues of outstanding transactions (oldest first).
  std::vector<std::deque<ReadRoute>> read_routes_;
  std::vector<std::deque<WriteRoute>> write_routes_;
  // Per-manager in-progress write burst; AXI forbids interleaving W
  // beats of different bursts from one manager, so one slot suffices.
  std::vector<std::optional<ActiveWrite>> active_writes_;
  std::vector<std::deque<ErrorRead>> error_reads_;   // per manager
  std::vector<Cycles> r_next_;  // per subordinate: first free R cycle
  std::vector<u32> pending_error_b_;                 // per manager

  // Bit s / bit m is set while the queue above is non-empty.
  u64 open_reads_ = 0;    // per subordinate: read_routes_
  u64 open_writes_ = 0;   // per subordinate: write_routes_
  u64 bursts_ = 0;        // per manager: active_writes_
  u64 owed_errors_ = 0;   // per manager: error_reads_, pending_error_b_

  usize rr_ar_ = 0;  // round-robin pointers
  usize rr_aw_ = 0;
  u64 decode_errors_ = 0;
  std::vector<u64> stalls_;  // per manager
};

}  // namespace rvcap::axi
