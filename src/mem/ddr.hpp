// DDR memory-controller model (Genesys2 DDR3 behind a MIG, 64-bit AXI).
//
// Timing envelope, not per-bank DRAM simulation:
//  * fixed first-access latency per burst (row activation + controller
//    pipeline), with the latencies of queued bursts overlapping the
//    data phase of earlier ones — a MIG keeps the data bus saturated on
//    back-to-back sequential bursts, which is what the RV-CAP DMA issues.
//    Each latency is a deadline (wake_at), not a per-cycle countdown;
//  * full-duplex data movement, as on AXI4: the R and W channels are
//    independent, so a concurrent read + write stream (accelerator
//    mode: MM2S fetch + S2MM write-back) moves one beat per channel per
//    cycle. The MIG behind the port runs at a 4:1 clock ratio and keeps
//    up with both;
//  * burst-granular (DESIGN.md §9): the tick that starts a read burst
//    pushes all its beats as one span, stamped one cycle apart, its
//    payload copied from the pages in one go, and the tick that sees a
//    write burst's first beat takes every queued span of it at the
//    cycles the per-beat controller would have. The bytes move in that
//    tick, so a read is batched only while no write to an overlapping
//    range is queued here, and a write only while no overlapping read
//    is; otherwise that burst goes beat by beat.
//
// Backing store is 4 KiB-paged and lazily allocated, so a 1 GiB address
// window costs only what is touched. Byte access helpers provide the
// test/bench backdoor (paper §IV preloads bitstreams into DDR too); they
// copy page-sized chunks, and the beat path keeps a one-entry page
// cache.
#pragma once

#include <array>
#include <deque>
#include <memory>
#include <span>
#include <unordered_map>

#include "axi/types.hpp"
#include "common/types.hpp"
#include "sim/component.hpp"

namespace rvcap::mem {

class DdrController : public sim::Component {
 public:
  struct Config {
    u32 read_latency = 16;   // cycles from AR accept to first R beat
    u64 size_bytes = 1ULL << 30;
  };
  static constexpr u32 kWriteLatency = 10;  // last W beat to B response

  DdrController(std::string name, const Config& cfg);
  explicit DdrController(std::string name)
      : DdrController(std::move(name), Config{}) {}

  axi::AxiPort& port() { return port_; }
  u64 size_bytes() const { return cfg_.size_bytes; }

  bool tick() override;
  bool busy() const override;

  // ---- backdoor access (no simulation time) ----
  void poke(Addr addr, std::span<const u8> data);
  void peek(Addr addr, std::span<u8> out) const;
  u64 peek64(Addr addr) const;
  void poke64(Addr addr, u64 value);

  /// Total data beats transferred (read + write), for utilization probes.
  u64 beats_transferred() const { return beats_; }

 private:
  static constexpr usize kPageShift = 12;
  static constexpr usize kPageSize = usize{1} << kPageShift;
  using Page = std::array<u8, kPageSize>;

  struct ReadJob {
    Addr addr;
    u32 beats_left;
    Cycles ready_at;  // first R beat may leave at this cycle
  };
  struct WriteJob {
    Addr addr;
    u32 beats_left;
    Cycles ready_at = 0;  // B may leave at this cycle (once data_done)
    bool data_done = false;
    Cycles next = 0;      // first cycle the next W beat may be taken
  };

  /// Start of the page holding addr, allocated on first touch.
  u8* page(u64 key);
  /// Start of the page, or nullptr if it was never touched.
  const u8* find_page(u64 key) const;
  u64 read_beat(Addr addr) const;
  void write_beat(Addr addr, u64 data, u8 strb);
  /// Take the head write job's queued W beats.
  void take_writes();
  /// Produce the R beats of every read job whose turn has come.
  void produce_reads();
  /// First cycle the head read job may put a beat on R.
  Cycles read_start() const;
  /// Whether the controller can progress next cycle; otherwise arms the
  /// latency deadline it waits on (an R or B beat whose turn is later).
  bool ready();

  Config cfg_;
  axi::AxiPort port_;
  std::deque<ReadJob> reads_;
  std::deque<WriteJob> writes_;
  Cycles r_next_ = 0;  // first cycle R is free after the beats produced
  std::unordered_map<u64, std::unique_ptr<Page>> pages_;
  // One-entry page cache of the beat path (pages never move or die).
  mutable u64 cached_key_ = ~u64{0};
  mutable u8* cached_page_ = nullptr;
  u64 beats_ = 0;
};

}  // namespace rvcap::mem
