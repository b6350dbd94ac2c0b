#include "soc/ariane_soc.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "fabric/floorplan.hpp"

namespace rvcap::soc {

ArianeSoc::ArianeSoc(const SocConfig& cfg)
    : cfg_(cfg),
      sim_(cfg.sim_mode),
      dev_(cfg.device == DeviceModel::kArtix7_100t
               ? fabric::DeviceGeometry::artix7_100t()
               : fabric::DeviceGeometry::kintex7_325t()),
      cfg_mem_(dev_),
      icap_("icap", cfg_mem_),
      ddr_("ddr", cfg.ddr),
      boot_("boot_mem", MemoryMap::kBootMem.size, MemoryMap::kBootMem.base),
      clint_("clint"),
      plic_("plic", IrqMap::kNumSources),
      uart_("uart"),
      perf_regs_("perf_regs"),
      owned_sd_(cfg.external_sd != nullptr
                    ? nullptr
                    : std::make_unique<storage::SdCard>(cfg.sd_blocks)),
      sd_(cfg.external_sd != nullptr ? *cfg.external_sd : *owned_sd_),
      spi_("spi", sd_),
      cpu_(sim_, cfg.timing),
      main_xbar_("main_xbar") {
  // ---- interconnect: managers ----
  main_xbar_.add_manager(&cpu_.port());

  // ---- register windows ----
  // The CPU reaches every AXI4-Lite register block with timed register
  // calls (DESIGN.md §5). The peripheral window's address decoder adds
  // one hop and answers its holes DECERR.
  const auto timed = [this](const axi::AddrRange& range,
                            axi::AxiLiteSlave* device, u32 hops) {
    cpu_.add_register_window(range, device, hops, main_xbar_);
  };
  const auto peripheral = [&](const axi::AddrRange& range,
                              axi::AxiLiteSlave& device) {
    timed(range, &device, cpu::CpuContext::kDecodedHops);
  };
  peripheral(MemoryMap::kClint, clint_);
  peripheral(MemoryMap::kPlic, plic_);
  peripheral(MemoryMap::kUart, uart_);
  peripheral(MemoryMap::kSpi, spi_);
  perf_regs_.bind(&sim_.obs().counters());
  peripheral(MemoryMap::kPerfRegs, perf_regs_);
  timed(MemoryMap::kPeripherals, nullptr, cpu::CpuContext::kDecodedHops);
  main_xbar_.add_subordinate(MemoryMap::kBootMem, &boot_.port());

  // ---- reconfigurable-partition slots ----
  const u32 num_slots =
      cfg_.with_rvcap ? std::max<u32>(cfg_.num_slots, 1) : 1;
  rps_.reserve(num_slots);
  rps_.push_back(fabric::case_study_partition(dev_));
  const u32 rp0_row = rps_[0].columns().front().row;
  // One ConfigMemory handle, Floorplan region and allocator region per
  // slot (region id == slot id).
  std::vector<fabric::FloorplanRegion> regions;
  allocator_ = std::make_unique<fabric::FabricAllocator>(dev_);
  for (u32 s = 0, row = 0; s < num_slots; ++s) {
    if (s > 0) {
      // Every further slot replicates RP0's column footprint into a
      // different clock-region row (the acceleration window exists at
      // every row), so all slots land in one relocation-compatibility
      // class: a single synthesized RM image serves any slot after FAR
      // retargeting (bitstream::relocate_bitstream).
      if (row == rp0_row) ++row;
      if (row >= dev_.rows()) {
        throw std::invalid_argument(
            "device cannot host reconfigurable-partition slot " +
            std::to_string(s));
      }
      std::vector<fabric::Partition::ColumnRef> cols;
      cols.reserve(rps_[0].columns().size());
      for (const auto& ref : rps_[0].columns()) {
        cols.push_back({row, ref.column});
      }
      rps_.emplace_back("RP" + std::to_string(s), std::move(cols));
      ++row;
    }
    rp_handles_.push_back(cfg_mem_.register_partition(rps_[s]));
    regions.push_back({rps_[s].name(), &rps_[s], "0123456789ABCDEF"[s]});
    allocator_->add_region(rps_[s]);
  }
  // An overlapping or out-of-geometry slot would alias configuration
  // frames, so the Floorplan constructor turns it into a hard error.
  fabric::Floorplan validated(dev_, std::move(regions));

  // ---- DPR controllers ----
  if (cfg_.with_rvcap) {
    rvcap_ = std::make_unique<rvcap_ctrl::RvCapController>(
        icap_, ddr_.port(), MemoryMap::kDdr, cfg_.dma, num_slots);
    timed(MemoryMap::kDmaCtrl, &rvcap_->dma(), cpu::CpuContext::kDirectHops);
    timed(MemoryMap::kRpCtrl, &rvcap_->rp_control(),
          cpu::CpuContext::kDirectHops);
    // CPU reaches DDR through the controller's additional crossbar.
    main_xbar_.add_subordinate(MemoryMap::kDdr,
                               &rvcap_->main_bus_ddr_port());
    rvcap_->dma().set_mm2s_irq(irq::IrqLine(&plic_, IrqMap::kDmaMm2s));
    rvcap_->dma().set_s2mm_irq(irq::IrqLine(&plic_, IrqMap::kDmaS2mm));
  } else {
    // Vendor-only deployment: the main crossbar drives DDR directly.
    ddr_direct_port_ = std::make_unique<axi::AxiPort>();
    ddr_direct_wire_ = std::make_unique<axi::AxiWire>(
        "ddr.direct", *ddr_direct_port_, ddr_.port());
    main_xbar_.add_subordinate(MemoryMap::kDdr, ddr_direct_port_.get());
  }

  if (cfg_.with_hwicap) {
    hwicap_ =
        std::make_unique<hwicap::HwIcap>("hwicap", icap_,
                                         cfg_.hwicap_fifo_depth);
    timed(MemoryMap::kHwicap, hwicap_.get(), cpu::CpuContext::kDirectHops);
  }

  // ---- networked bitstream delivery plant ----
  if (cfg_.with_net) {
    net_link_ = std::make_unique<net::NetLink>("net_link", cfg_.net_link);
    net_server_ = std::make_unique<net::BitstreamServer>(
        "net_server", *net_link_, cfg_.net_server);
  }

  // ---- RM slots behind the isolators (need the RV-CAP streams) ----
  if (cfg_.with_rvcap) {
    for (u32 s = 0; s < num_slots; ++s) {
      const std::string name =
          "rm_slot" + (s == 0 ? std::string() : std::to_string(s));
      auto& rs = *rm_slots_.emplace_back(std::make_unique<accel::RmSlot>(
          name, cfg_mem_, rp_handles_[s], rvcap_->rm_input(s)));
      accel::register_case_study_filters(rs);
      accel::register_cipher(rs);
      accel::register_fir(rs);
      rm_out_wires_.push_back(std::make_unique<axi::AxisWire>(
          name + ".out", rs.out(), rvcap_->rm_output_in(s)));
      rvcap_->rp_control().attach_rm(s, &rs, 0);
    }
  }

  // ---- simulator registration (dataflow order) ----
  sim_.add(&main_xbar_);
  sim_.add(&clint_);
  sim_.add(&plic_);
  sim_.add(&uart_);
  sim_.add(&perf_regs_);
  sim_.add(&spi_);
  sim_.add(&boot_);
  if (rvcap_) rvcap_->register_components(sim_);
  if (hwicap_) sim_.add(hwicap_.get());
  if (ddr_direct_wire_) sim_.add(ddr_direct_wire_.get());
  sim_.add(&ddr_);
  for (usize s = 0; s < rm_slots_.size(); ++s) {
    sim_.add(rm_slots_[s].get());
    sim_.add(rm_out_wires_[s].get());
  }
  sim_.add(&icap_);
  // Net plant last: existing deployments keep their registration order
  // (and therefore their golden traces) bit-identical.
  if (net_link_) {
    sim_.add(net_link_.get());
    sim_.add(net_server_.get());
  }
}

}  // namespace rvcap::soc
