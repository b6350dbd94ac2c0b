// ICAPE2 primitive model.
//
// The internal configuration access port of 7-series devices: a 32-bit
// write port clocked at up to 100 MHz, i.e. a hard 400 MB/s ceiling —
// the reference point of every throughput number in the paper
// ("the maximum theoretical ICAP throughput ... is 400 MB/s", §IV-C).
//
// The component consumes at most one word per cycle from its input
// FIFO, runs the configuration-packet FSM (sync hunt, type-1/2 decode,
// FAR auto-increment, CRC check, commands), and commits completed
// frames into the ConfigMemory. Both the RV-CAP datapath (via
// AXIS2ICAP) and the AXI_HWICAP baseline feed the same primitive.
#pragma once

#include "bitstream/packets.hpp"
#include "fabric/config_memory.hpp"
#include "sim/component.hpp"
#include "sim/fault_injector.hpp"
#include "sim/fifo.hpp"

namespace rvcap::icap {

class Icap : public sim::Component {
 public:
  Icap(std::string name, fabric::ConfigMemory& cfg);

  /// 32-bit write port; producers push configuration words here.
  sim::Fifo<u32>& port() { return in_; }

  /// 32-bit read port: FDRO readback words appear here (§III-C: the
  /// port also *reads* the configuration memory). While a readback is
  /// draining, the (half-duplex) port does not consume input words.
  sim::Fifo<u32>& read_port() { return rdata_; }

  bool tick() override;
  bool busy() const override;

  // ---- status ----
  bool synced() const { return state_ != State::kUnsynced; }
  bool crc_error() const { return crc_error_; }
  bool idcode_mismatch() const { return idcode_mismatch_; }
  u64 words_consumed() const { return words_; }
  u64 frames_committed() const { return frames_committed_; }
  u64 words_read_back() const { return words_read_back_; }
  bool readback_active() const { return read_words_left_ > 0; }
  u64 desync_count() const { return desyncs_; }

  /// Clear sticky error flags (driver-visible reset).
  void clear_errors() {
    crc_error_ = false;
    idcode_mismatch_ = false;
  }

  /// Driver-initiated abort (RP-control abort pulse): flush both port
  /// FIFOs and return the FSM to the unsynced state with a clean CRC,
  /// discarding any partially received frame and sticky errors.
  void abort();

  /// Optional fault injection (sites: icap.sync_loss, icap.crc).
  void set_fault_injector(sim::FaultInjector* fi) { fault_ = fi; }

  void on_register(obs::Observability& o) override;

 private:
  enum class State {
    kUnsynced,   // hunting for the sync word
    kSynced,     // expecting a packet header
    kType1Data,  // consuming type-1 payload
    kType2Data,  // consuming type-2 payload (FDRI frames)
  };

  void consume(u32 word);
  void reg_write(u32 reg, u32 data);
  void frame_word(u32 data);

  fabric::ConfigMemory& cfg_;
  sim::Fifo<u32> in_{4};

  State state_ = State::kUnsynced;
  u32 cur_reg_ = 0;
  u32 payload_left_ = 0;
  bool fdri_pending_type2_ = false;  // FDRI count 0: expect type-2 next
  bool fdro_pending_type2_ = false;  // FDRO read count 0: type-2 next

  // Readback state.
  sim::Fifo<u32> rdata_{4};
  u32 read_words_left_ = 0;
  u32 read_word_in_frame_ = 0;
  u64 words_read_back_ = 0;
  void start_readback(u32 words);
  bool emit_read_word();

  u32 far_ = 0;
  std::vector<u32> frame_buf_;
  bitstream::ConfigCrc crc_;
  bool wcfg_ = false;

  bool crc_error_ = false;
  bool idcode_mismatch_ = false;
  u64 words_ = 0;
  u64 frames_committed_ = 0;
  u64 desyncs_ = 0;
  sim::FaultInjector* fault_ = nullptr;
  // Resolved once: consume() queries both sites per word.
  sim::FaultInjector::SiteRef sync_loss_{sim::fault_sites::kIcapSyncLoss};
  sim::FaultInjector::SiteRef crc_corrupt_{sim::fault_sites::kIcapCrcCorrupt};
};

}  // namespace rvcap::icap
