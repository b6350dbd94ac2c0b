// CPU-side AXI4-Lite register path (Fig. 2 component 2, §III-C).
//
// The Ariane SoC bus is 64-bit while the RV-CAP control ports, the
// AXI_HWICAP and the peripherals are 32-bit AXI4-Lite register blocks,
// so each of those windows sits behind a chain of a 64->32 width
// converter, an AXI4->AXI4-Lite protocol converter and (for the
// peripheral window) an address decoder, joined by registered links.
// LitePath is that whole chain as one component:
//
//  * the 64->32 split: a 64-bit access becomes two 32-bit halves at
//    addr and addr+4; a 32-bit access travels in the lane addressed by
//    bit 2 (AXI convention), and the halves' responses merge into one
//    beat carrying the worst response;
//  * the AXI4->Lite conversion: bursts are answered SLVERR (the burst's
//    data beats are consumed and dropped) and a write without strobes
//    completes OKAY, both without reaching a device;
//  * the peripheral window's address decode: an address no device
//    window contains gets DECERR;
//  * the chain's hop timing (DESIGN.md §5). A request reaches its
//    device in the cycle it reaches the path. A response leaves as
//    many cycles after the device produced it as the chain has
//    response hops: the path collects it the next cycle, as the
//    chain's first stage did, and holds it on a wake_at() deadline
//    instead of moving it one stage per cycle. A DECERR comes from the
//    decoder itself, one hop closer.
//
// The path does not watch its device ports: while an access waits on a
// device it polls that device's port every cycle. A device port thus
// wakes only its device, and the timed register calls of the CPU
// (cpu::CpuContext), which use the device ports directly while the
// path is idle, tick nothing else. The CPU's accessors reach a device
// through the path only when a timed call does not fit: a burst, a
// strobe-less write, a DECERR hole, or a path still busy (DESIGN.md §5).
#pragma once

#include <deque>
#include <vector>

#include "axi/types.hpp"
#include "sim/component.hpp"

namespace rvcap::axi {

class LitePath : public sim::Component {
 public:
  /// Response hops of a direct chain: AXI4-Lite link, protocol
  /// converter, AXI link, width converter.
  static constexpr u32 kDirectHops = 4;
  /// Response hops of a decoded chain: the decoder adds one.
  static constexpr u32 kDecodedHops = kDirectHops + 1;

  /// A direct path: every address reaches `device` (the crossbar has
  /// already decoded the window).
  LitePath(std::string name, AxiLitePort& device);
  /// A decoded path: add_device() maps the windows.
  explicit LitePath(std::string name);

  /// Link facing the 64-bit bus (this component is the subordinate).
  AxiPort& upstream() { return up_; }

  /// Route `range` to a device port (decoded paths). Throws
  /// std::invalid_argument on an overlapping window.
  void add_device(const AddrRange& range, AxiLitePort* port);

  bool tick() override;
  bool busy() const override;

  /// Accesses answered DECERR (no window contains the address).
  u64 decode_errors() const { return decode_errors_; }
  /// Response hops: cycles from collecting a device response to
  /// handing it upstream, plus one.
  u32 hops() const { return hops_; }

 private:
  static constexpr u32 kNoDevice = ~u32{0};

  /// One upstream access in flight.
  struct Pending {
    Addr addr = 0;       // lane select of a 32-bit read
    u32 dev = kNoDevice;
    u8 halves = 0;       // 32-bit halves of the access
    u8 owed = 0;         // device responses still to collect
    Resp resp = Resp::kOkay;
    u64 data = 0;
    Cycles due = 0;      // earliest departure, once owed == 0
  };

  /// One direction's accesses, oldest first. Devices answer in order,
  /// so a device response belongs to the oldest entry still owed one.
  struct Queue {
    std::deque<Pending> q;
    usize done = 0;  // leading entries owed nothing: these may leave

    void push(const Pending& p) {
      if (done == q.size() && p.owed == 0) ++done;
      q.push_back(p);
    }
    /// The oldest access still owed a device response.
    Pending* owing() { return done < q.size() ? &q[done] : nullptr; }
    /// The owing access got its last response.
    void complete() {
      do ++done;
      while (done < q.size() && q[done].owed == 0);
    }
    void pop() {
      q.pop_front();
      --done;
    }
  };

  u32 decode(Addr a) const;
  // Each step returns whether it can progress next cycle without a new
  // event.
  bool accept_read();
  bool accept_write();
  bool collect_read();
  bool collect_write();
  bool deliver_read();
  bool deliver_write();
  /// Queue a response the path (decode_halves == 0) or the decoder
  /// produces instead of a device.
  void answer(Queue& q, Resp resp, u8 decode_halves);
  /// Whether the head can leave next cycle; arms its deadline if not.
  bool head_ready(const Queue& q, bool room);

  AxiPort up_;
  u32 hops_;
  std::vector<AddrRange> ranges_;
  std::vector<AxiLitePort*> devs_;
  Queue reads_;
  Queue writes_;
  bool aw_taken_ = false;  // AW consumed, waiting for its W beat
  AxiAw cur_aw_{};
  u32 drop_w_ = 0;         // data beats of a rejected burst still to drop
  u64 decode_errors_ = 0;
};

}  // namespace rvcap::axi
