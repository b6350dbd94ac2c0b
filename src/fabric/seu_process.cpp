#include "fabric/seu_process.hpp"

#include <cmath>

namespace rvcap::fabric {

namespace sites = sim::fault_sites;

SeuProcess::SeuProcess(std::string name, ConfigMemory& cfg,
                       sim::FaultInjector& fi, Config c)
    : Component(std::move(name)), mem_(cfg), fi_(fi), cfg_(std::move(c)) {
  if (cfg_.targets.empty()) {
    for (usize h = 0; h < mem_.num_partitions(); ++h) {
      cfg_.targets.push_back(h);
    }
  }
  if (cfg_.mean_cycles == 0) cfg_.mean_cycles = 1;
  if (cfg_.burst == 0) cfg_.burst = 1;
  addrs_.reserve(cfg_.targets.size());
  for (const usize h : cfg_.targets) {
    addrs_.push_back(mem_.partition(h).frame_addrs(mem_.device()));
  }
}

u64 SeuProcess::next_gap() {
  // u in (0, 1]: 20-bit resolution from the site's parameter stream.
  const double u =
      (static_cast<double>(fi_.value(sites::kSeuUpset, 1u << 20)) + 1.0) /
      static_cast<double>(1u << 20);
  const double gap = -static_cast<double>(cfg_.mean_cycles) * std::log(u);
  return gap < 1.0 ? 1 : static_cast<u64>(gap);
}

void SeuProcess::fire() {
  Event ev;
  ev.at = sim_now();
  ev.burst = cfg_.burst;
  // Draw the full target tuple unconditionally so the stream position
  // (and therefore every later event) is independent of gating.
  const usize ti = static_cast<usize>(
      fi_.value(sites::kSeuUpset, cfg_.targets.size()));
  const std::vector<FrameAddr>& addrs = addrs_[ti];
  ev.fa = addrs[fi_.value(sites::kSeuUpset, addrs.size())];
  ev.word = static_cast<u32>(fi_.value(sites::kSeuUpset, kFrameWords));
  ev.bit = static_cast<u32>(fi_.value(sites::kSeuUpset, 32));
  const bool enabled = fi_.should_fire(sites::kSeuUpset);
  if (enabled && mem_.partition_state(cfg_.targets[ti]).loaded) {
    for (u32 i = 0; i < cfg_.burst; ++i) {
      const u32 pos = ev.word * 32 + ev.bit + i;
      if (pos >= kFrameWords * 32) break;
      ev.landed |= mem_.inject_upset(ev.fa, pos / 32, pos % 32);
    }
  }
  if (ev.landed) ++landed_;
  log_.push_back(ev);
}

bool SeuProcess::tick() {
  if (!started_) {
    started_ = true;
    next_at_ = sim_now() + next_gap();
    wake_at(next_at_);
    return true;
  }
  if (sim_now() < next_at_) return false;  // wheel wake already pending
  fire();
  next_at_ = sim_now() + next_gap();
  wake_at(next_at_);
  return true;
}

}  // namespace rvcap::fabric
