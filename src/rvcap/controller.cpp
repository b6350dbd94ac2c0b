#include "rvcap/controller.hpp"

#include <cassert>
#include <string>

namespace rvcap::rvcap_ctrl {

RvCapController::RvCapController(icap::Icap& icap, axi::AxiPort& ddr_port,
                                 const axi::AddrRange& ddr_window,
                                 const AxiDma::Config& dma_cfg,
                                 u32 num_slots)
    : icap_(icap),
      dma_("rvcap.dma", dma_cfg),
      switch_("rvcap.axis_switch", num_slots == 0 ? 1 : num_slots),
      decomp_("rvcap.decompressor", switch_.to_icap(), decomp_out_),
      axis2icap_("rvcap.axis2icap", decomp_out_, icap.port()),
      icap2axis_("rvcap.icap2axis", icap.read_port(), switch_.from_icap()),
      rp_ctrl_("rvcap.rp_ctrl", switch_),
      ddr_xbar_("rvcap.ddr_xbar"),
      w_dma_to_switch_("rvcap.w4", dma_.mm2s_stream(), switch_.from_dma()),
      w_switch_to_dma_("rvcap.w7", switch_.to_dma(), dma_.s2mm_stream()) {
  // Additional crossbar: manager 0 = CPU path, manager 1 = DMA.
  ddr_xbar_.add_manager(&main_bus_ddr_port_);
  ddr_xbar_.add_manager(&dma_.mem_port());
  ddr_xbar_.add_subordinate(ddr_window, &ddr_port);
  rp_ctrl_.attach_decompressor(&decomp_);
  rp_ctrl_.set_abort_hook([this] { abort_datapath(); });
  icap2axis_.set_gate(&switch_);
  // Per slot: isolator + RM-port wire pair + RP-control window.
  assert(num_slots <= RpControl::kMaxSlots);
  for (u32 s = 0; s < switch_.num_rm_ports(); ++s) {
    slots_.push_back(std::make_unique<Slot>(s, switch_));
    rp_ctrl_.add_slot(slots_.back()->isolator);
  }
}

// Slot 0 keeps the single-RP component names: counter names and trace
// sources are keyed on them.
RvCapController::Slot::Slot(u32 s, axi::AxisSwitch& sw)
    : isolator(s == 0 ? "rvcap.isolator"
                      : "rvcap.isolator" + std::to_string(s)),
      to_rp(s == 0 ? "rvcap.w5" : "rvcap.w_slot" + std::to_string(s) + ".in",
            sw.to_rm(s), isolator.in_to_rp()),
      from_rp(s == 0 ? "rvcap.w6"
                     : "rvcap.w_slot" + std::to_string(s) + ".out",
              isolator.out_from_rp(), sw.from_rm(s)) {}

void RvCapController::abort_datapath() {
  switch_.from_dma().clear();
  switch_.to_icap().clear();
  switch_.from_icap().clear();
  switch_.to_dma().clear();
  decomp_out_.clear();
  decomp_.reset_stream();
  axis2icap_.reset_stream();
  icap_.abort();
}

void RvCapController::register_components(sim::Simulator& sim) {
  assert(!registered_);
  registered_ = true;
  // Dataflow order: control registers first, then engines, then the
  // stream fabric toward the ICAP/RM.
  sim.add(&rp_ctrl_);
  sim.add(&ddr_xbar_);
  sim.add(&dma_);
  sim.add(&w_dma_to_switch_);
  sim.add(&switch_);
  sim.add(&decomp_);
  sim.add(&axis2icap_);
  sim.add(&icap2axis_);
  // Slot 0 ahead of w7, slots >= 1 after it: the order counter names
  // and PerfRegs indices were first assigned in.
  for (usize s = 0; s < slots_.size(); ++s) {
    sim.add(&slots_[s]->to_rp);
    sim.add(&slots_[s]->isolator);
    sim.add(&slots_[s]->from_rp);
    if (s == 0) sim.add(&w_switch_to_dma_);
  }
}

}  // namespace rvcap::rvcap_ctrl
