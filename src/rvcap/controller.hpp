// The RV-CAP controller: composite of Fig. 2.
//
// Owns the DMA engine (1), the RP control interface (3), the
// AXI-Stream switch (4), the AXIS2ICAP converter (5), the PR isolator,
// and the additional crossbar to the DDR controller. The SoC assembly
// binds:
//   * dma() and rp_control() as the CPU's register windows; the
//     control path's width and protocol converters (2) are the hop
//     count of those windows' timed register calls (cpu::CpuContext);
//   * main_bus_ddr_port() as the main crossbar's DDR window, routed
//     through the additional crossbar so CPU and DMA share the DDR;
//   * the reconfigurable module's streams behind the isolator.
#pragma once

#include <memory>
#include <vector>

#include "axi/crossbar.hpp"
#include "axi/isolator.hpp"
#include "axi/stream_switch.hpp"
#include "axi/wires.hpp"
#include "icap/icap.hpp"
#include "rvcap/axis2icap.hpp"
#include "rvcap/decompressor.hpp"
#include "rvcap/dma.hpp"
#include "rvcap/icap2axis.hpp"
#include "rvcap/rp_control.hpp"
#include "sim/simulator.hpp"

namespace rvcap::rvcap_ctrl {

class RvCapController {
 public:
  /// `ddr_port`: the DDR controller's AXI subordinate port;
  /// `ddr_window`: its address window (shared by CPU and DMA);
  /// `num_slots`: reconfigurable-partition slots (1..16). Each slot has
  /// an isolator, a stream-switch RM port pair, and an RP-control
  /// register window.
  RvCapController(icap::Icap& icap, axi::AxiPort& ddr_port,
                  const axi::AddrRange& ddr_window,
                  const AxiDma::Config& dma_cfg = AxiDma::Config{},
                  u32 num_slots = 1);

  /// Register every internal component with the simulator, in dataflow
  /// order. Must be called exactly once.
  void register_components(sim::Simulator& sim);

  /// The main crossbar's DDR window, routed through the additional
  /// crossbar the DMA shares.
  axi::AxiPort& main_bus_ddr_port() { return main_bus_ddr_port_; }

  // ---- RM-side stream attachment points (behind the isolators) ----
  axi::AxisFifo& rm_input(u32 slot = 0) {
    return isolator(slot).out_to_rp();
  }
  axi::AxisFifo& rm_output_in(u32 slot = 0) {
    return isolator(slot).in_from_rp();
  }
  u32 num_slots() const { return static_cast<u32>(slots_.size()); }

  /// Flush every stage of the reconfiguration datapath: stream FIFOs
  /// between DMA and ICAP, the decompressor and AXIS2ICAP packers, and
  /// the ICAP FSM itself. Wired to RpControl's kCtlIcapAbort pulse so
  /// the driver can recover from a failed transfer without stale beats
  /// poisoning the next attempt.
  void abort_datapath();

  AxiDma& dma() { return dma_; }
  RpControl& rp_control() { return rp_ctrl_; }
  axi::AxisSwitch& axis_switch() { return switch_; }
  axi::AxisIsolator& isolator(u32 slot = 0) { return slots_[slot]->isolator; }
  Axis2Icap& axis2icap() { return axis2icap_; }
  Icap2Axis& icap2axis() { return icap2axis_; }
  Decompressor& decompressor() { return decomp_; }

 private:
  // Datapath.
  icap::Icap& icap_;
  AxiDma dma_;
  axi::AxisSwitch switch_;
  axi::AxisFifo decomp_out_{4};  // decompressor -> AXIS2ICAP link
  Decompressor decomp_;
  Axis2Icap axis2icap_;
  Icap2Axis icap2axis_;
  RpControl rp_ctrl_;

  // DDR side: additional crossbar shared by the CPU path and the DMA.
  axi::AxiPort main_bus_ddr_port_;
  axi::AxiCrossbar ddr_xbar_;

  // Stream wires.
  axi::AxisWire w_dma_to_switch_;
  axi::AxisWire w_switch_to_dma_;

  // Per slot: the isolator and the wires joining it to its RM port pair.
  struct Slot {
    Slot(u32 slot, axi::AxisSwitch& sw);
    axi::AxisIsolator isolator;
    axi::AxisWire to_rp;    // switch RM port -> isolator
    axi::AxisWire from_rp;  // isolator -> switch RM port
  };
  std::vector<std::unique_ptr<Slot>> slots_;

  bool registered_ = false;
};

}  // namespace rvcap::rvcap_ctrl
