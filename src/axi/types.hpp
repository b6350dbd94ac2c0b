// AXI4 / AXI4-Lite / AXI4-Stream beat-level types.
//
// The model keeps the channel structure of AXI (5 memory-mapped channels,
// valid/ready per channel) but drops fields that do not affect the
// paper's measurements: IDs (routing tables in the crossbar track
// transaction origin instead), QoS, cache hints, and exclusive accesses.
// Bursts are INCR-only, which is what both the Xilinx AXI DMA and the
// CPU's single-beat accesses generate.
#pragma once

#include "common/types.hpp"
#include "sim/fifo.hpp"

namespace rvcap::axi {

enum class Resp : u8 {
  kOkay = 0,
  kSlvErr = 2,  // subordinate signalled an error
  kDecErr = 3,  // address decode error (unmapped)
};

/// Read-address channel beat. len is beats-1 (AXI ARLEN encoding);
/// size is log2(bytes per beat).
struct AxiAr {
  Addr addr = 0;
  u8 len = 0;
  u8 size = 3;  // default 64-bit beats
};

/// Write-address channel beat.
struct AxiAw {
  Addr addr = 0;
  u8 len = 0;
  u8 size = 3;
};

/// Write-data channel beat. `at` is the channel's stamp: the first
/// cycle the consumer may take the beat (set by the FIFO on push, see
/// sim/fifo.hpp). strb is a side field: beats with equal strobes share
/// a span.
struct AxiW {
  u64 data = 0;
  u8 strb = 0xFF;
  bool last = true;
  Cycles at = 0;

  bool operator==(const AxiW&) const = default;
};

/// Read-data channel beat, stamped like AxiW; resp is its side field.
struct AxiR {
  u64 data = 0;
  Resp resp = Resp::kOkay;
  bool last = true;
  Cycles at = 0;

  bool operator==(const AxiR&) const = default;
};

/// Write-response channel beat.
struct AxiB {
  Resp resp = Resp::kOkay;
};

/// The five channels of one memory-mapped link, owned by the link
/// itself (the struct); the manager pushes aw/w/ar and pops r/b, the
/// subordinate does the opposite.
template <typename Aw, typename W, typename Ar, typename R, typename B>
struct Channels {
  Channels(usize addr_depth, usize data_depth)
      : aw(addr_depth), w(data_depth), ar(addr_depth), r(data_depth),
        b(addr_depth) {}

  sim::Fifo<Aw> aw;
  sim::Fifo<W> w;
  sim::Fifo<Ar> ar;
  sim::Fifo<R> r;
  sim::Fifo<B> b;

  /// `c` drives this link: it pushes aw/w/ar and pops r/b.
  void watch_manager(sim::Component* c) {
    aw.watch_as_producer(c);
    w.watch_as_producer(c);
    ar.watch_as_producer(c);
    r.watch_as_consumer(c);
    b.watch_as_consumer(c);
  }

  /// `c` answers this link: it pops aw/w/ar and pushes r/b.
  void watch_subordinate(sim::Component* c) {
    aw.watch_as_consumer(c);
    w.watch_as_consumer(c);
    ar.watch_as_consumer(c);
    r.watch_as_producer(c);
    b.watch_as_producer(c);
  }

  /// A request (aw, w or ar) is waiting for the subordinate.
  bool has_request() const {
    return !aw.empty() || !w.empty() || !ar.empty();
  }
};

/// One full-AXI4 link. FIFO depths model the 2-deep skid buffers of
/// typical AXI register slices plus room for one full max-length data
/// burst.
struct AxiPort : Channels<AxiAw, AxiW, AxiAr, AxiR, AxiB> {
  explicit AxiPort(usize addr_depth = 2, usize data_depth = 32)
      : Channels(addr_depth, data_depth) {}
};

/// AXI4-Lite link: 32-bit, single-beat, no bursts.
struct LiteAw { Addr addr = 0; };
struct LiteW { u32 data = 0; u8 strb = 0xF; };
struct LiteAr { Addr addr = 0; };
struct LiteR { u32 data = 0; Resp resp = Resp::kOkay; };
struct LiteB { Resp resp = Resp::kOkay; };

struct AxiLitePort : Channels<LiteAw, LiteW, LiteAr, LiteR, LiteB> {
  explicit AxiLitePort(usize depth = 2) : Channels(depth, depth) {}
};

/// AXI4-Stream beat: 64-bit data path throughout the SoC (Fig. 2).
struct AxisBeat {
  u64 data = 0;
  u8 keep = 0xFF;
  bool last = false;
};

using AxisFifo = sim::Fifo<AxisBeat>;

/// A contiguous, half-open address window on the bus.
struct AddrRange {
  Addr base = 0;
  u64 size = 0;

  bool contains(Addr a) const { return a >= base && a - base < size; }
  bool overlaps(const AddrRange& o) const {
    return base < o.base + o.size && o.base < base + size;
  }
};

}  // namespace rvcap::axi
